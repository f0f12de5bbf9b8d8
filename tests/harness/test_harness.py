"""Tests for the benchmark harness: timed runs, table reports, rendering."""

import pytest

from repro.circuits.library import QASMBENCH_CIRCUITS, ghz
from repro.harness import (
    TimedRun,
    format_cell,
    render_table,
    run_table1a,
    run_table1c,
    timed_stochastic_run,
)
from repro.noise import NoiseModel
from repro.simulators.ddsim import DDBackend
from repro.simulators.gateplan import compile_plan
from repro.stochastic.prefix import compile_prefix_plan
from repro.stochastic.runner import dense_threshold


class TestFormatting:
    def test_format_cell_values(self):
        assert format_cell(0.1234, 60) == "0.12"
        assert format_cell(123.456, 60) == "123.5"
        assert format_cell(None, 60) == ">60"
        assert format_cell(None, None) == "n/a"

    def test_render_table_alignment(self):
        text = render_table("Title", ["n", "t [s]"], [["4", "0.10"], ["16", "12.00"]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "n" in lines[1] and "t [s]" in lines[1]
        assert len(lines) == 5
        # All body rows equal width.
        assert len(lines[3]) == len(lines[4])


class TestTimedRun:
    def test_completes_within_budget(self):
        run = timed_stochastic_run(
            ghz(3), "dd", trajectories=5, noise_model=NoiseModel.noiseless(), timeout=30
        )
        assert run.completed
        assert run.seconds is not None and run.seconds < 30
        assert run.result.completed_trajectories == 5

    def test_timeout_marks_incomplete(self):
        run = timed_stochastic_run(
            ghz(12), "dd", trajectories=10**6, timeout=0.2
        )
        assert not run.completed
        assert run.seconds is None
        assert run.result is not None and run.result.timed_out

    def test_infeasible_statevector_width(self):
        run = timed_stochastic_run(ghz(64), "statevector", trajectories=1)
        assert run.infeasible
        assert not run.completed


class TestTableReports:
    def test_table1a_small(self):
        report = run_table1a(qubit_range=(2, 3), trajectories=3, timeout=30.0)
        assert len(report.rows) == 2
        rendered = report.render()
        assert "Table Ia" in rendered
        assert "statevector [s]" in rendered
        for label, runs in report.rows:
            assert set(runs) == {"statevector", "dd"}
            assert runs["dd"].completed

    def test_table1a_speedups(self):
        report = run_table1a(qubit_range=(2,), trajectories=3, timeout=30.0)
        ratios = report.speedups()
        assert "2" in ratios
        assert ratios["2"] is None or ratios["2"] > 0

    def test_table1a_dd_stays_linear_to_64_qubits(self):
        """Under the paper's noise, GHZ decision diagrams stay linear in n."""
        report = run_table1a(qubit_range=(64,), trajectories=2, backends=("dd",))
        run = report.rows[0][1]["dd"]
        assert run.result.completed_trajectories == 2
        assert run.result.peak_nodes <= 4 * 64 + 8

    def test_monotone_sweep_skips_after_timeout(self):
        report = run_table1a(
            qubit_range=(10, 12), trajectories=10**6, timeout=0.1,
            backends=("dd",),
        )
        first = report.rows[0][1]["dd"]
        second = report.rows[1][1]["dd"]
        assert not first.completed
        # The larger case was skipped without running (no result object).
        assert second.result is None

    def test_table1c_runs_selected_rows(self):
        report = run_table1c(
            names=("seca",), trajectories=2, timeout=60.0, backends=("dd",)
        )
        assert len(report.rows) == 1
        label, runs = report.rows[0]
        assert label == "seca (11)"
        assert runs["dd"].completed

    def test_render_includes_timeout_marker(self):
        report = run_table1a(
            qubit_range=(12,), trajectories=10**6, timeout=0.1, backends=("dd",)
        )
        assert ">0.1" in report.render()


class TestTable1cRows:
    """Every Table Ic row runs on both engines at the paper's width."""

    #: Rows whose states stay structured, where the paper has the DD ahead.
    STRUCTURED = ("bv", "multiplier", "bigadder", "sat", "seca", "basis_trotter", "cc")
    #: Rows whose states densify, where the paper has the DD behind.
    DENSE = ("ising", "vqe_uccsd_6", "vqe_uccsd_8")

    def test_structured_rows_complete_on_both_engines(self):
        report = run_table1c(names=self.STRUCTURED, trajectories=1, timeout=None)
        assert len(report.rows) == len(self.STRUCTURED)
        for label, runs in report.rows:
            assert runs["statevector"].completed and runs["dd"].completed, label

    def test_dense_rows_complete_on_the_statevector_engine(self):
        report = run_table1c(
            names=self.DENSE, trajectories=1, timeout=None, backends=("statevector",)
        )
        for label, runs in report.rows:
            assert runs["statevector"].completed, label

    def test_a_dense_row_completes_on_the_dd_engine(self):
        # One DD trajectory of ising or vqe_uccsd_8 takes 13 s and 69 s on
        # a 2-vCPU VM; vqe_uccsd_6 takes 2.5 s.
        report = run_table1c(
            names=("vqe_uccsd_6",), trajectories=1, timeout=None, backends=("dd",)
        )
        assert report.rows[0][1]["dd"].completed

    @pytest.mark.parametrize("name", DENSE)
    def test_dense_rows_blow_the_dd_up(self, name):
        """Why the DD loses these rows: before the circuit ends, its ideal
        state's DD holds 2^(n-1) nodes, half a dense DD."""
        circuit = QASMBENCH_CIRCUITS[name][1]()
        qubits = circuit.num_qubits
        backend = DDBackend(qubits)
        plan = compile_prefix_plan(
            backend,
            compile_plan(circuit, package=backend.package),
            NoiseModel.paper_defaults(),
            dense_threshold(qubits),
        )
        assert plan.stopped_after is not None
        assert plan.peak_nodes >= 2 ** (qubits - 1)
