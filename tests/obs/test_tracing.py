"""Unit tests for repro.obs.tracing: spans, events, bounded buffering."""

import json

from repro.obs import Tracer


class TestTracer:
    def test_event_records_attrs(self):
        tracer = Tracer()
        tracer.event("job.submit", job="abc", chunks=4)
        (entry,) = tracer.export()
        assert entry["name"] == "job.submit"
        assert entry["attrs"] == {"job": "abc", "chunks": 4}
        assert entry["duration"] == 0.0

    def test_span_stamps_duration(self):
        tracer = Tracer()
        with tracer.span("chunk.execute", chunk=1):
            pass
        (entry,) = tracer.export()
        assert entry["duration"] >= 0.0
        assert entry["attrs"] == {"chunk": 1}

    def test_span_records_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert len(tracer) == 1

    def test_export_is_json_able_and_start_ordered(self):
        tracer = Tracer()
        for index in range(5):
            tracer.event("tick", index=index)
        events = tracer.export()
        json.dumps(events)  # must not raise
        starts = [event["start"] for event in events]
        assert starts == sorted(starts)

    def test_bounded_buffer_evicts_oldest(self):
        tracer = Tracer(max_events=3)
        for index in range(5):
            tracer.event("tick", index=index)
        events = tracer.export()
        assert len(events) == 3
        assert [event["attrs"]["index"] for event in events] == [2, 3, 4]
        assert tracer.dropped == 2

    def test_clear(self):
        tracer = Tracer(max_events=1)
        tracer.event("a")
        tracer.event("b")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

