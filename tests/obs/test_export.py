"""Unit tests for repro.obs.export: OpenMetrics exposition, the HTTP
exporter, and the JSONL event stream."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    CONTENT_TYPE,
    EventLogWriter,
    MetricsExporter,
    MetricsRegistry,
    escape_label_value,
    read_event_log,
    to_openmetrics,
)


def _snapshot():
    return {
        "counters": {"dd.unique.hits": 7, "service.jobs": 2},
        "gauges": {"service.queue.depth": 3.0},
        "histograms": {
            "trajectory.seconds": {
                "bounds": [0.1, 1.0],
                "counts": [4, 1, 2],
                "sum": 3.5,
                "count": 7,
            }
        },
    }


class TestFormatter:
    def test_counters_get_total_suffix(self):
        text = to_openmetrics(_snapshot())
        assert "# TYPE repro_dd_unique_hits counter" in text
        assert "repro_dd_unique_hits_total 7" in text

    def test_help_lines_carry_dotted_source_names(self):
        text = to_openmetrics(_snapshot())
        # Operators grep for the registry name, mangling notwithstanding.
        assert "# HELP repro_service_queue_depth source=service.queue.depth" in text
        assert "repro_service_queue_depth 3" in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_openmetrics(_snapshot())
        assert 'repro_trajectory_seconds_bucket{le="0.1"} 4' in text
        assert 'repro_trajectory_seconds_bucket{le="1"} 5' in text
        assert 'repro_trajectory_seconds_bucket{le="+Inf"} 7' in text
        assert "repro_trajectory_seconds_sum 3.5" in text
        assert "repro_trajectory_seconds_count 7" in text

    def test_terminates_with_eof(self):
        assert to_openmetrics(None).rstrip("\n").endswith("# EOF")
        assert to_openmetrics(_snapshot()).rstrip("\n").endswith("# EOF")

    def test_metric_name_mangling(self):
        text = to_openmetrics({"counters": {"1weird-name.x": 1}, "gauges": {},
                               "histograms": {}})
        assert "repro__1weird_name_x_total 1" in text

    def test_labeled_gauges_grouped_per_metric(self):
        text = to_openmetrics(
            None,
            labeled_gauges=[
                ("job.estimate.halfwidth", {"property": "fidelity"}, 0.25),
                ("job.estimate.halfwidth", {"property": "p0"}, 0.5),
            ],
        )
        assert text.count("# TYPE repro_job_estimate_halfwidth gauge") == 1
        assert 'repro_job_estimate_halfwidth{property="fidelity"} 0.25' in text
        assert 'repro_job_estimate_halfwidth{property="p0"} 0.5' in text


class TestLabelEscaping:
    def test_escape_rules(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_escaped_values_in_exposition(self):
        text = to_openmetrics(
            None,
            labeled_gauges=[
                ("g", {"circuit": 'ghz"4\\v1\nx'}, 1.0),
            ],
        )
        assert 'circuit="ghz\\"4\\\\v1\\nx"' in text


class TestExporter:
    def test_serves_collect_output(self):
        registry = MetricsRegistry()
        with MetricsExporter(
            lambda: to_openmetrics(_snapshot()), port=0, registry=registry
        ) as exporter:
            response = urllib.request.urlopen(exporter.url, timeout=5)
            body = response.read().decode("utf-8")
            assert response.headers["Content-Type"] == CONTENT_TYPE
            assert "repro_dd_unique_hits_total 7" in body
            assert body.rstrip("\n").endswith("# EOF")
            assert registry.counter("export.scrapes").value == 1

    def test_unknown_path_is_404(self):
        with MetricsExporter(lambda: to_openmetrics(None), port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    exporter.url.replace("/metrics", "/nope"), timeout=5
                )
            assert excinfo.value.code == 404

    def test_collect_failure_is_500_and_server_survives(self):
        calls = {"n": 0}

        def collect():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return to_openmetrics(None)

        with MetricsExporter(collect, port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(exporter.url, timeout=5)
            assert excinfo.value.code == 500
            body = urllib.request.urlopen(exporter.url, timeout=5).read()
            assert b"# EOF" in body


class TestEventLog:
    def test_appends_jsonl(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        registry = MetricsRegistry()
        with EventLogWriter(path, registry=registry) as writer:
            writer.write({"event": "job.start", "job": "abc"})
            writer.write({"event": "heartbeat", "queue_depth": 2})
        with open(path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        assert [e["event"] for e in events] == ["job.start", "heartbeat"]
        assert registry.counter("export.events.written").value == 2

    def test_close_is_idempotent_and_writes_after_close_are_dropped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        writer = EventLogWriter(path)
        writer.write({"event": "one"})
        writer.close()
        writer.close()
        writer.write({"event": "late"})  # silently dropped, no crash
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_reopen_cuts_a_crash_torn_tail(self, tmp_path):
        # A serve killed mid-event leaves a fragment; the next writer's
        # first event must not be glued onto it (and skipped with it).
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"b": 2')
        with EventLogWriter(path) as writer:
            writer.write({"c": 3})
        assert read_event_log(path) == [{"a": 1}, {"c": 3}]

    def test_fsync_interval_batches_durability_not_visibility(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLogWriter(path, fsync_interval=60.0) as writer:
            writer.write({"event": "one"})
            writer.write({"event": "two"})
            # Flushed per event even when the fsync is amortised.
            with open(path, encoding="utf-8") as handle:
                assert len(handle.readlines()) == 2
            writer.flush()


class TestReadEventLog:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_event_log(str(tmp_path / "absent.jsonl")) == []

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLogWriter(path) as writer:
            writer.write({"event": "serve.start", "pid": 42})
            writer.write({"event": "job.done", "job": "abc"})
        events = read_event_log(path)
        assert [e["event"] for e in events] == ["serve.start", "job.done"]

    def test_crash_torn_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLogWriter(path) as writer:
            writer.write({"event": "one"})
            writer.write({"event": "two"})
        with open(path, "r+b") as handle:
            size = handle.seek(0, 2)
            handle.truncate(size - 5)  # kill -9 mid-append
        events = read_event_log(path)
        assert [e["event"] for e in events] == ["one"]

    def test_unterminated_but_parseable_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": "one"}) + "\n")
            handle.write(json.dumps({"event": "tail"}))  # no newline
        assert [e["event"] for e in read_event_log(path)] == ["one"]

    def test_non_object_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"event": "one"}\n[1, 2, 3]\nnot json\n')
        assert [e["event"] for e in read_event_log(path)] == ["one"]
