"""Integration tests for the CLI table/report paths.

Both commands run the one sweep :mod:`repro.harness` defines per table; the
tests cut those sweeps to one small row each (``tiny_table_sweeps``).
"""

from repro.cli import main


class TestTableCommandVariants:
    def test_table_1b(self, capsys, tiny_table_sweeps):
        assert main(["table", "1b", "-M", "2", "--timeout", "10"]) == 0
        assert "Table Ib" in capsys.readouterr().out


class TestReportCommand:
    def test_report_table_a_b_sections(self, capsys, tmp_path, tiny_table_sweeps):
        target = tmp_path / "report.md"
        assert main(
            ["report", "-M", "1", "--timeout", "5", "-o", str(target)]
        ) == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# Stochastic DD simulation")
        assert "### Table Ia" in text
        assert "### Table Ib" in text
        assert "### Table Ic" in text
        assert all(len(calls) == 1 for calls in tiny_table_sweeps.values())

    def test_report_renders_the_sweeps_table_runs(
        self, capsys, tmp_path, tiny_table_sweeps
    ):
        """`repro table` and `repro report` call each table's function with
        the same arguments, and neither names a sweep: both run the
        function's own.  The report's rows are the ones `table` prints."""
        for which in ("1a", "1b", "1c"):
            assert main(["table", which, "-M", "2", "--timeout", "20"]) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "report.md"
        assert main(["report", "-M", "2", "--timeout", "20", "-o", str(target)]) == 0
        text = target.read_text(encoding="utf-8")
        for which, calls in tiny_table_sweeps.items():
            assert calls == [{"trajectories": 2, "timeout": 20.0, "workers": 1}] * 2
        printed_rows = [line.lstrip() for line in printed.splitlines()]
        for label in ("4", "seca (11)"):
            assert any(row.startswith(f"{label} |") for row in printed_rows)
            assert f"| {label} |" in text
        # Without -M and --timeout, each table keeps its own M and limit.
        assert main(["report", "-o", str(target)]) == 0
        assert all(calls[-1] == {"workers": 1} for calls in tiny_table_sweeps.values())
