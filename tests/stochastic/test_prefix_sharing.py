"""Equivalence gate for the trajectory prefix-sharing engine.

The engine's whole contract is that ``REPRO_TRAJECTORY_MODE=naive`` (the
naive per-trajectory loop) and the ``shared`` path are **bit
identical**: same per-trajectory rng streams, same property estimate
totals, same fired-error tallies, same sampled outcome histograms.  Every
test here runs both modes and compares exactly — no tolerances.
"""

import pytest

import repro.stochastic.prefix as prefix_mod
from repro.circuits.library import ghz, qft
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.stochastic import BasisProbability, IdealFidelity
from repro.stochastic.prefix import compile_prefix_plan
from repro.stochastic.properties import ExpectationZ
from repro.stochastic.runner import run_trajectory_span, simulate_stochastic
from repro.stochastic.strata import TRAJECTORY_MODE_ENV

NOISE = NoiseModel.paper_defaults()
#: Scaled model where most trajectories err — exercises replay heavily.
HOT_NOISE = NoiseModel.paper_defaults().scaled(40)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    # This file gates the prefix engine's naive<->shared *bit identity*;
    # stratified sampling changes the estimator by design and has its own
    # equivalence gate in test_strata.py.
    monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
    reset_injector_cache()
    yield
    reset_injector_cache()


def run_both(monkeypatch, **kwargs):
    """The same simulation in shared and naive mode."""
    results = {}
    for mode in ("shared", "naive"):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, mode)
        results[mode] = simulate_stochastic(**kwargs)
    return results["shared"], results["naive"]


def assert_identical(shared, naive):
    """Bitwise equality of everything user-visible in the two results."""
    assert set(shared.estimates) == set(naive.estimates)
    for name, estimate in shared.estimates.items():
        other = naive.estimates[name]
        assert estimate.count == other.count, name
        assert estimate.total == other.total, name
        assert estimate.total_squared == other.total_squared, name
    assert shared.errors_fired == naive.errors_fired
    assert shared.outcome_counts == naive.outcome_counts
    assert shared.completed_trajectories == naive.completed_trajectories


class TestEnvironmentSwitch:
    def test_default_is_on(self, monkeypatch):
        # With the switch unset, trajectories start from the shared prefix.
        monkeypatch.delenv(TRAJECTORY_MODE_ENV)
        result = run_trajectory_span(
            ghz(6), NOISE, [IdealFidelity()],
            backend_kind="dd", first_trajectory=0, num_trajectories=20,
            master_seed=19, sample_shots=1,
        )
        counters = result.metrics["counters"]
        assert counters["prefix.checkpoints"] >= 1
        assert counters["prefix.replays"] >= 1


class TestBitIdentity:
    def test_ghz_paper_noise(self, monkeypatch):
        shared, naive = run_both(
            monkeypatch,
            circuit=ghz(6),
            noise_model=NOISE,
            properties=(IdealFidelity(), ExpectationZ(0)),
            trajectories=120,
            seed=11,
            sample_shots=2,
        )
        assert_identical(shared, naive)

    def test_qft_hot_noise_replays_dominate(self, monkeypatch):
        shared, naive = run_both(
            monkeypatch,
            circuit=qft(4),
            noise_model=HOT_NOISE,
            properties=(IdealFidelity(),),
            trajectories=60,
            seed=3,
            sample_shots=1,
        )
        assert_identical(shared, naive)
        counters = shared.metrics["counters"]
        assert counters["prefix.replays"] > 0

    def test_exact_damping_mode(self, monkeypatch):
        # "exact" Kraus unravelling: every damping slot diverges, so the
        # engine degenerates to checkpointed replay — still bit-identical.
        shared, naive = run_both(
            monkeypatch,
            circuit=ghz(4),
            noise_model=NoiseModel.paper_defaults(damping_mode="exact"),
            properties=(IdealFidelity(),),
            trajectories=40,
            seed=5,
            sample_shots=1,
        )
        assert_identical(shared, naive)

    def test_measuring_circuit(self, monkeypatch):
        # Measurements are unconditional divergence points; clean
        # trajectories cannot exist, yet the prefix up to the first
        # measurement is still shared.
        shared, naive = run_both(
            monkeypatch,
            circuit=ghz(4, measure=True),
            noise_model=NOISE,
            properties=(),
            trajectories=50,
            seed=9,
            sample_shots=1,
        )
        assert_identical(shared, naive)

    def test_statevector_backend_unaffected(self, monkeypatch):
        shared, naive = run_both(
            monkeypatch,
            circuit=ghz(4),
            noise_model=NOISE,
            properties=(IdealFidelity(),),
            trajectories=30,
            backend="statevector",
            seed=2,
            sample_shots=1,
        )
        assert_identical(shared, naive)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_workers(self, monkeypatch, workers):
        shared, naive = run_both(
            monkeypatch,
            circuit=ghz(5),
            noise_model=NOISE,
            properties=(IdealFidelity(), BasisProbability("00000")),
            trajectories=48,
            workers=workers,
            seed=13,
            sample_shots=1,
        )
        assert_identical(shared, naive)

    def test_parallel_matches_serial_with_sharing(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
        serial = simulate_stochastic(
            ghz(5), noise_model=NOISE, properties=(IdealFidelity(),),
            trajectories=48, workers=1, seed=21, sample_shots=1,
        )
        parallel = simulate_stochastic(
            ghz(5), noise_model=NOISE, properties=(IdealFidelity(),),
            trajectories=48, workers=3, seed=21, sample_shots=1,
        )
        assert_identical(serial, parallel)


class TestCheckpointReplay:
    # The patched interval function lives in this process, so both tests
    # run serially.

    def test_forced_small_interval(self, monkeypatch):
        monkeypatch.setattr(prefix_mod, "_checkpoint_interval", lambda steps: 2)
        shared, naive = run_both(
            monkeypatch,
            circuit=ghz(5),
            noise_model=HOT_NOISE,
            properties=(IdealFidelity(),),
            trajectories=40,
            workers=1,
            seed=17,
            sample_shots=1,
        )
        assert_identical(shared, naive)
        counters = shared.metrics["counters"]
        assert counters["prefix.replays"] > 0
        # interval 2 on a 5-gate GHZ pins checkpoints at steps 0, 2, 4
        assert counters["prefix.checkpoints"] == 3

    def test_replay_resumes_midway(self, monkeypatch):
        from repro.simulators.gateplan import compile_plan

        # With interval 1 every step is a checkpoint: any erring
        # trajectory resumes exactly at its divergence site.
        monkeypatch.setattr(prefix_mod, "_checkpoint_interval", lambda steps: 1)
        shared, naive = run_both(
            monkeypatch,
            circuit=qft(4),
            noise_model=HOT_NOISE,
            properties=(IdealFidelity(),),
            trajectories=30,
            workers=1,
            seed=29,
            sample_shots=0,
        )
        assert_identical(shared, naive)
        assert shared.metrics["counters"]["prefix.checkpoints"] == len(
            compile_plan(qft(4)).steps
        )


class TestFaultInjection:
    def test_drift_fault_materializes_and_matches(self, monkeypatch):
        plan = FaultPlan(
            faults=(FaultSpec(kind="drift", trajectory=3, factor=1.5, times=1),)
        )
        results = {}
        for mode in ("shared", "naive"):
            monkeypatch.setenv(TRAJECTORY_MODE_ENV, mode)
            monkeypatch.setenv(PLAN_ENV, plan.to_json())
            reset_injector_cache()
            results[mode] = run_trajectory_span(
                ghz(4), NOISE, [IdealFidelity()],
                backend_kind="dd", first_trajectory=0, num_trajectories=8,
                master_seed=7, sample_shots=1, on_drift="renorm",
            )
        assert_identical(results["shared"], results["naive"])
        counters = results["shared"].metrics["counters"]
        assert counters["faults.recovered.renorm"] >= 1
        # The drifted trajectory cannot use the cached clean evaluation.
        assert counters["prefix.materialized"] >= 1


class TestCounters:
    def test_span_counter_accounting(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
        result = run_trajectory_span(
            ghz(6), NOISE, [IdealFidelity()],
            backend_kind="dd", first_trajectory=0, num_trajectories=50,
            master_seed=19, sample_shots=1,
        )
        counters = result.metrics["counters"]
        assert counters["gateplan.compiled"] > 0
        assert counters["prefix.checkpoints"] >= 1
        hits = counters["prefix.hits"]
        replays = counters["prefix.replays"]
        assert hits + replays == result.completed_trajectories
        if replays:
            assert counters["prefix.replayed_gates"] > 0
        # Every trajectory still folds one value per property.
        assert counters["property.evaluations"] == result.completed_trajectories

    def test_prefix_plan_shape(self):
        from repro.simulators.ddsim import DDBackend
        from repro.simulators.gateplan import compile_plan

        circuit = ghz(6)
        backend = DDBackend(6)
        plan = compile_plan(circuit, package=backend.package)
        prefix = compile_prefix_plan(backend, plan, NOISE)
        assert prefix.stop_index is None
        assert prefix.ideal_final is not None
        assert len(prefix.sites) == len(plan.steps)
        assert prefix.checkpoints[0][0] == 0
        assert prefix.executed_before(len(plan.steps)) == len(plan.steps)
        assert prefix.ideal_norm_squared == pytest.approx(1.0)

    def test_prefix_plan_stops_at_measurement(self):
        from repro.simulators.ddsim import DDBackend
        from repro.simulators.gateplan import compile_plan

        circuit = ghz(3, measure=True)
        backend = DDBackend(3)
        plan = compile_plan(circuit, package=backend.package)
        prefix = compile_prefix_plan(backend, plan, NOISE)
        assert prefix.stop_index == 3  # h + 2 cx, then the first measure
        assert prefix.ideal_final is None
