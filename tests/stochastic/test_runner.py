"""Unit tests for the Monte-Carlo runner."""

import time

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.library import ghz
from repro.noise import NoiseModel
from repro.stochastic import (
    BasisProbability,
    ClassicalOutcome,
    IdealFidelity,
    StateFidelity,
    StochasticSimulator,
    simulate_stochastic,
)

NOISE = NoiseModel.paper_defaults().scaled(10)


class TestBasicRuns:
    def test_noiseless_ghz_estimates_half(self):
        result = simulate_stochastic(
            ghz(3),
            noise_model=NoiseModel.noiseless(),
            properties=[BasisProbability("000"), BasisProbability("111")],
            trajectories=20,
        )
        assert result.mean("P(|000>)") == pytest.approx(0.5)
        assert result.mean("P(|111>)") == pytest.approx(0.5)
        assert result.completed_trajectories == 20
        assert all(count == 0 for count in result.errors_fired.values())

    def test_requested_vs_completed(self):
        result = simulate_stochastic(ghz(2), trajectories=7)
        assert result.requested_trajectories == 7
        assert result.completed_trajectories == 7

    def test_sampling_disabled(self):
        result = simulate_stochastic(ghz(2), trajectories=5, sample_shots=0)
        assert result.outcome_counts == {}

    def test_multiple_sample_shots(self):
        result = simulate_stochastic(ghz(2), trajectories=5, sample_shots=4)
        assert sum(result.outcome_counts.values()) == 20

    def test_default_noise_is_paper_configuration(self):
        result = simulate_stochastic(ghz(2), trajectories=3)
        assert result.circuit_name == "entanglement_2"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_stochastic(ghz(2), trajectories=0)
        with pytest.raises(ValueError):
            StochasticSimulator(backend="tensor-network")
        with pytest.raises(ValueError):
            StochasticSimulator(workers=0)


class TestReproducibility:
    def test_same_seed_identical_estimates(self):
        runs = [
            simulate_stochastic(
                ghz(3), NOISE, [BasisProbability("000")], trajectories=50, seed=9
            )
            for _ in range(2)
        ]
        assert runs[0].mean("P(|000>)") == runs[1].mean("P(|000>)")
        assert runs[0].errors_fired == runs[1].errors_fired

    def test_different_seed_different_trajectories(self):
        a = simulate_stochastic(
            ghz(3), NOISE.scaled(5), [BasisProbability("000")], trajectories=50, seed=1
        )
        b = simulate_stochastic(
            ghz(3), NOISE.scaled(5), [BasisProbability("000")], trajectories=50, seed=2
        )
        assert a.errors_fired != b.errors_fired or a.mean("P(|000>)") != b.mean("P(|000>)")

    def test_backends_give_identical_estimates(self, monkeypatch):
        """DD and statevector see identical RNG streams, so their Monte-Carlo
        estimates agree to floating-point accuracy — a strong cross-check.

        Stratified sampling is pinned off: it only engages on the DD
        backend (it needs the prefix plan), so the cross-backend check
        must compare the shared naive estimator.  The stratified-vs-naive
        agreement has its own statistical gate in test_strata.py.
        """
        monkeypatch.setenv("REPRO_TRAJECTORY_MODE", "shared")
        kwargs = dict(
            noise_model=NOISE,
            properties=[BasisProbability("0000"), IdealFidelity()],
            trajectories=60,
            seed=3,
        )
        dd = simulate_stochastic(ghz(4), backend="dd", **kwargs)
        sv = simulate_stochastic(ghz(4), backend="statevector", **kwargs)
        for name in dd.estimates:
            assert dd.mean(name) == pytest.approx(sv.mean(name), abs=1e-9)


class TestParallelExecution:
    def test_parallel_matches_serial(self):
        kwargs = dict(
            noise_model=NOISE,
            properties=[BasisProbability("000")],
            trajectories=24,
            seed=5,
        )
        serial = simulate_stochastic(ghz(3), workers=1, **kwargs)
        parallel = simulate_stochastic(ghz(3), workers=3, **kwargs)
        assert parallel.completed_trajectories == 24
        assert parallel.mean("P(|000>)") == pytest.approx(
            serial.mean("P(|000>)"), abs=1e-12
        )
        assert parallel.errors_fired == serial.errors_fired

    def test_more_workers_than_trajectories(self):
        result = simulate_stochastic(ghz(2), trajectories=2, workers=4)
        assert result.completed_trajectories == 2


class TestTimeout:
    def test_timeout_returns_partial_results(self):
        result = simulate_stochastic(
            ghz(14),
            NOISE,
            [BasisProbability("0" * 14)],
            trajectories=100000,
            timeout=0.3,
        )
        assert result.timed_out
        assert 0 < result.completed_trajectories < 100000

    def test_no_timeout_completes(self):
        result = simulate_stochastic(ghz(2), trajectories=10, timeout=60.0)
        assert not result.timed_out


class _SleepyProbability:
    """``P(|00>)`` whose evaluation also sleeps: wall time without CPU time."""

    name = "sleepy"

    def evaluate(self, backend, run_result, context):
        time.sleep(0.02)
        return backend.probability_of_basis([0, 0])


class TestCpuSeconds:
    def test_span_reports_cpu_time_not_wall_time(self):
        from repro.stochastic.runner import run_trajectory_span

        result = run_trajectory_span(
            ghz(2), NOISE, [_SleepyProbability()], "statevector", 0, 5, 3
        )
        assert result.elapsed_seconds >= 5 * 0.02
        assert 0.0 < result.cpu_seconds < 0.5 * result.elapsed_seconds

    def test_cpu_and_wall_time_cover_the_compile_step(self):
        """An auto span's compile step (an ideal DD run, then the dense gate
        plan) outweighs its one dense trajectory; both times must count it."""
        from repro.circuits.library import qaoa_maxcut
        from repro.stochastic.runner import AUTO_ENGINE, run_trajectory_span

        result = run_trajectory_span(
            qaoa_maxcut(6, measure=False), NOISE, [], AUTO_ENGINE, 0, 1, 3
        )
        assert result.backend_kind == "statevector"
        assert result.cpu_seconds <= 1.1 * result.elapsed_seconds + 0.005


class TestPropertyHandling:
    def test_duplicate_property_names_rejected(self):
        # Both targets keep the default label, so both are named
        # "F(target)": one estimate would hold both values per trajectory
        # and the second target would never be evaluated.
        ghz_target = StateFidelity.from_vector([1, 0, 0, 0, 0, 0, 0, 1])
        zero_target = StateFidelity.from_vector([1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match=r"duplicate property name 'F\(target\)'"):
            simulate_stochastic(ghz(3), NOISE, [ghz_target, zero_target], trajectories=50)

    def test_ideal_fidelity_on_measured_circuit_rejected(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).measure(0, 0)
        with pytest.raises(ValueError, match="IdealFidelity"):
            simulate_stochastic(circuit, properties=[IdealFidelity()], trajectories=2)

    def test_classical_outcome_property(self):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0).measure(0, 0).measure(1, 1)
        result = simulate_stochastic(
            circuit,
            noise_model=NoiseModel.noiseless(),
            properties=[ClassicalOutcome(1), ClassicalOutcome(0)],
            trajectories=10,
        )
        assert result.mean("P(c=1)") == 1.0
        assert result.mean("P(c=0)") == 0.0

    def test_noisy_classical_outcome_below_one(self):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0).measure(0, 0).measure(1, 1)
        result = simulate_stochastic(
            circuit,
            noise_model=NoiseModel.paper_defaults().scaled(100),
            properties=[ClassicalOutcome(1)],
            trajectories=200,
            seed=11,
        )
        assert 0.2 < result.mean("P(c=1)") < 0.999

    def test_peak_nodes_reported_for_dd(self):
        result = simulate_stochastic(ghz(5), trajectories=5, backend="dd")
        assert result.peak_nodes >= 5

    def test_statevector_reports_no_nodes(self):
        result = simulate_stochastic(ghz(3), trajectories=5, backend="statevector")
        assert result.peak_nodes == 0
