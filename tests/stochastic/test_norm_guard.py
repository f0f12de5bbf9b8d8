"""Tests for the norm-drift guard and the drift fault injection site.

The guard is the runner's last line of defence against numerical decay:
every trajectory's squared norm is checked *before* any property is
evaluated, so a drifted state can never silently bias an estimate.  The
drift cases run on the DD engine, the dense statevector engine, and an
``auto`` span (GHZ-3's 5-node ideal DD reaches 2^2, so it runs dense).
"""

import pytest

from repro.circuits.library import ghz
from repro.errors import NumericalDriftError
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.stochastic import BasisProbability
from repro.stochastic.runner import (
    NORM_GUARD_ENV,
    _resolve_norm_guard,
    run_trajectory_span,
)

NOISE = NoiseModel.paper_defaults().scaled(10)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(NORM_GUARD_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


def run_span(trajectories=6, backend_kind="dd", **overrides):
    circuit = ghz(3)
    return run_trajectory_span(
        circuit,
        NOISE,
        [BasisProbability("000")],
        backend_kind=backend_kind,
        first_trajectory=0,
        num_trajectories=trajectories,
        master_seed=7,
        **overrides,
    )


def arm_drift(monkeypatch, trajectory=2, factor=1.5, times=1):
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="drift", trajectory=trajectory, factor=factor, times=times),
        )
    )
    monkeypatch.setenv(PLAN_ENV, plan.to_json())
    reset_injector_cache()


class TestResolveNormGuard:
    def test_defaults(self):
        assert _resolve_norm_guard(None, None) == ("raise", 1e-8)

    def test_env_action(self, monkeypatch):
        monkeypatch.setenv(NORM_GUARD_ENV, "renorm")
        assert _resolve_norm_guard(None, None) == ("renorm", 1e-8)

    def test_env_action_with_tolerance(self, monkeypatch):
        monkeypatch.setenv(NORM_GUARD_ENV, "renorm:1e-9")
        assert _resolve_norm_guard(None, None) == ("renorm", 1e-9)

    def test_env_off(self, monkeypatch):
        monkeypatch.setenv(NORM_GUARD_ENV, "off")
        assert _resolve_norm_guard(None, None)[0] == "off"

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv(NORM_GUARD_ENV, "renorm:1e-9")
        assert _resolve_norm_guard("raise", 1e-6) == ("raise", 1e-6)

    def test_garbage_env_falls_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv(NORM_GUARD_ENV, "explode:soon")
        assert _resolve_norm_guard(None, None) == ("raise", 1e-8)

    def test_unknown_explicit_action_raises(self):
        with pytest.raises(ValueError, match="on_drift"):
            _resolve_norm_guard("explode", None)


class TestDriftGuard:
    backend_kind = "dd"
    #: The engine the span's trajectories run on.
    engine = "dd"
    #: How far a renormalised run's estimates may sit from a clean run's.
    renorm_tolerance = 0.0

    def run_span(self, **overrides):
        result = run_span(backend_kind=self.backend_kind, **overrides)
        assert result.backend_kind == self.engine
        return result

    def test_healthy_run_passes_the_guard(self):
        result = self.run_span()
        assert result.completed_trajectories == 6
        assert "faults.recovered.renorm" not in result.metrics["counters"]

    def test_injected_drift_raises_typed_error(self, monkeypatch):
        arm_drift(monkeypatch, trajectory=2, factor=1.5)
        with pytest.raises(NumericalDriftError, match="drifted beyond") as excinfo:
            self.run_span()
        error = excinfo.value
        assert error.trajectory == 2
        assert error.norm_squared == pytest.approx(1.5**2)
        assert error.tolerance == 1e-8

    def test_renorm_action_recovers_and_counts(self, monkeypatch):
        arm_drift(monkeypatch, trajectory=2, factor=1.5)
        result = self.run_span(on_drift="renorm")
        assert result.completed_trajectories == 6
        assert result.metrics["counters"]["faults.recovered.renorm"] == 1
        # On DD, renormalisation exactly undoes a pure scaling (the complex
        # table snaps the root weight), so the estimates match a clean
        # (no-fault) run bit for bit; a dense state divides every amplitude
        # by its measured norm, which matches to rounding.
        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        clean = self.run_span()
        for name, estimate in clean.estimates.items():
            difference = abs(result.estimates[name].mean - estimate.mean)
            assert difference <= self.renorm_tolerance

    def test_off_action_lets_drift_through(self, monkeypatch):
        arm_drift(monkeypatch, trajectory=2, factor=1.5)
        result = self.run_span(on_drift="off")
        assert result.completed_trajectories == 6

    def test_env_renorm_applies_without_explicit_args(self, monkeypatch):
        arm_drift(monkeypatch, trajectory=1, factor=2.0)
        monkeypatch.setenv(NORM_GUARD_ENV, "renorm")
        result = self.run_span()
        assert result.metrics["counters"]["faults.recovered.renorm"] == 1

    def test_tolerance_wide_enough_accepts_small_drift(self, monkeypatch):
        arm_drift(monkeypatch, trajectory=1, factor=1.0 + 1e-10)
        result = self.run_span(norm_tolerance=1e-3)
        assert result.completed_trajectories == 6


class TestDriftGuardStatevector(TestDriftGuard):
    backend_kind = "statevector"
    engine = "statevector"
    renorm_tolerance = 1e-12


class TestDriftGuardAutoDense(TestDriftGuardStatevector):
    backend_kind = "auto"
