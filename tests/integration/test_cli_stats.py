"""Integration tests for `repro-sim stats` and the table metrics sidecar."""

import json

from repro.cli import main


class TestStatsCommand:
    def test_json_schema(self, tmp_path):
        target = tmp_path / "stats.json"
        assert main(
            ["stats", "ghz:6", "-M", "12", "-w", "2", "--fidelity",
             "--json", "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.stats/v1"
        assert payload["backend"] == "dd"
        assert payload["workers"] == 2
        assert payload["completed_trajectories"] == 12
        assert payload["timed_out"] is False
        assert payload["cpu_seconds"] > 0.0
        assert payload["peak_nodes"] > 0

        counters = payload["metrics"]["counters"]
        assert counters["trajectory.completed"] == 12
        assert counters["scheduler.retries"] == 0
        assert counters["scheduler.worker_respawns"] == 0

        histograms = payload["metrics"]["histograms"]
        assert histograms["trajectory.seconds"]["count"] == 12

        rates = payload["rates"]
        assert "dd.compute.mat_vec.hit_rate" in rates
        for name, value in rates.items():
            assert 0.0 <= value <= 1.0, name

    def test_human_output_mentions_key_sections(self, capsys):
        assert main(["stats", "ghz:4", "-M", "6"]) == 0
        out = capsys.readouterr().out
        assert "hit rates:" in out
        assert "dd.compute.mat_vec.hit_rate" in out
        assert "scheduler.retries: 0" in out
        assert "trajectory.seconds:" in out
        assert "peak DD nodes:" in out

    def test_statevector_backend(self, capsys):
        assert main(["stats", "ghz:3", "-M", "4", "-b", "statevector"]) == 0
        out = capsys.readouterr().out
        assert "statevector backend" in out
        assert "trajectory.seconds:" in out

    def test_trace_flag_with_workers(self, capsys):
        assert main(["stats", "ghz:4", "-M", "8", "-w", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace (" in out
        assert "job.finalize" in out


class TestTableMetricsSidecar:
    def test_sidecar_schema(self, tmp_path, capsys, tiny_table_sweeps):
        sidecar = tmp_path / "table.metrics.json"
        assert main(
            ["table", "1b", "-M", "2", "--timeout", "10",
             "--metrics", str(sidecar)]
        ) == 0
        assert "Table Ib" in capsys.readouterr().out
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.table-metrics/v1"
        assert payload["rows"]
        some_row = next(iter(payload["rows"].values()))
        cell = some_row["dd"]
        assert cell["completed_trajectories"] > 0
        assert cell["cpu_seconds"] > 0.0
        assert "dd.compute.mat_vec.hit_rate" in cell["rates"]
        for value in cell["rates"].values():
            assert 0.0 <= value <= 1.0
