"""Tests for adaptive (run-until-precision) Monte-Carlo sampling."""

import math
import time

import pytest

from repro.circuits.library import ghz, qft
from repro.noise import NoiseModel
from repro.stochastic import (
    BasisProbability,
    IdealFidelity,
    hoeffding_samples,
    run_until_precision,
)

NOISE = NoiseModel.paper_defaults().scaled(10)


@pytest.fixture(autouse=True)
def _naive_estimator(monkeypatch):
    # This file pins the *naive* adaptive-loop mechanics (batch growth,
    # Theorem-1 ceiling, union-bound stopping); stratified sampling stops
    # far earlier by design and is covered separately in test_strata.py.
    monkeypatch.setenv("REPRO_TRAJECTORY_MODE", "shared")


class TestTheorem1Budget:
    """The a-priori sample bound of Theorem 1: M = log(2L/δ) / (2ε)²."""

    @pytest.mark.parametrize(
        "num_properties, epsilon, delta",
        [
            (1, 0.1, 0.05),
            (2, 0.1, 0.1),
            (3, 0.05, 0.05),
            (10, 0.01, 0.01),
            (1, 0.5, 0.5),
        ],
    )
    def test_paper_convention_matches_printed_formula(
        self, num_properties, epsilon, delta
    ):
        expected = math.ceil(
            math.log(2.0 * num_properties / delta) / (2.0 * epsilon) ** 2
        )
        assert (
            hoeffding_samples(num_properties, epsilon, delta, paper_convention=True)
            == expected
        )

    def test_rigorous_bound_is_twice_the_paper_value(self):
        # (2ε)² = 4ε² versus 2ε²: the conservative variant doubles M
        # (up to ±1 from the ceilings).
        paper = hoeffding_samples(4, 0.05, 0.05, paper_convention=True)
        rigorous = hoeffding_samples(4, 0.05, 0.05)
        assert paper <= rigorous <= 2 * paper + 1
        assert rigorous >= 2 * paper - 1

    def test_budget_grows_logarithmically_in_properties(self):
        # Doubling L adds log(2)/(2ε²) samples, independent of L.
        eps, delta = 0.1, 0.05
        increment = math.log(2.0) / (2.0 * eps**2)
        for L in (1, 2, 4, 8):
            gap = hoeffding_samples(2 * L, eps, delta) - hoeffding_samples(
                L, eps, delta
            )
            assert abs(gap - increment) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="num_properties"):
            hoeffding_samples(0, 0.1, 0.05)
        with pytest.raises(ValueError, match="epsilon"):
            hoeffding_samples(1, 1.0, 0.05)
        with pytest.raises(ValueError, match="delta"):
            hoeffding_samples(1, 0.1, 0.0)


class TestEarlyStopHonoursTheorem1:
    """Adaptive early stopping may save trajectories but never spend more
    than the a-priori ceiling, and the final interval always honours the
    requested (ε, δ) guarantee."""

    @pytest.mark.parametrize("epsilon, delta", [(0.12, 0.1), (0.06, 0.05)])
    def test_stops_at_or_under_ceiling(self, epsilon, delta):
        properties = [BasisProbability("000"), IdealFidelity()]
        run = run_until_precision(
            ghz(3),
            properties,
            epsilon=epsilon,
            delta=delta,
            noise_model=NOISE,
            seed=11,
            initial_batch=32,
        )
        ceiling = hoeffding_samples(len(properties), epsilon, delta)
        assert run.ceiling == ceiling
        assert 0 < run.trajectories <= ceiling
        assert run.epsilon_achieved <= epsilon

    def test_full_budget_caps_achieved_epsilon_at_target(self):
        # With a microscopic initial batch the union bound over many rounds
        # makes the adaptive half-width loose, so the loop runs to the
        # ceiling — where Theorem 1's a-priori guarantee takes over.
        run = run_until_precision(
            ghz(2),
            [BasisProbability("00")],
            epsilon=0.1,
            delta=0.05,
            noise_model=NOISE,
            seed=12,
            initial_batch=1,
        )
        assert run.trajectories == run.ceiling
        assert run.epsilon_achieved <= 0.1
        assert run.savings_vs_theorem1() == 0.0


class TestAdaptiveSampling:
    def test_reaches_target_precision(self):
        run = run_until_precision(
            ghz(3),
            [BasisProbability("000")],
            epsilon=0.08,
            delta=0.1,
            noise_model=NOISE,
            seed=1,
        )
        assert run.epsilon_achieved <= 0.08
        assert run.trajectories > 0

    def test_never_exceeds_theorem1_ceiling(self):
        run = run_until_precision(
            ghz(2),
            [BasisProbability("00"), BasisProbability("11")],
            epsilon=0.1,
            delta=0.1,
            noise_model=NOISE,
            seed=2,
        )
        ceiling = hoeffding_samples(2, 0.1, 0.1)
        assert run.ceiling == ceiling
        assert run.trajectories <= ceiling

    def test_savings_reported(self):
        run = run_until_precision(
            ghz(2),
            [BasisProbability("00")],
            epsilon=0.09,
            delta=0.1,
            noise_model=NOISE,
            seed=3,
        )
        assert 0.0 <= run.savings_vs_theorem1() < 1.0

    def test_tighter_epsilon_needs_more_samples(self):
        loose = run_until_precision(
            ghz(2), [BasisProbability("00")], epsilon=0.15, noise_model=NOISE, seed=4
        )
        tight = run_until_precision(
            ghz(2), [BasisProbability("00")], epsilon=0.05, noise_model=NOISE, seed=4
        )
        assert tight.trajectories > loose.trajectories

    def test_estimate_matches_batch_runner(self):
        """Index-derived trajectory seeds make the adaptive session
        bit-identical to one batch of the same total size."""
        from repro.stochastic import simulate_stochastic

        run = run_until_precision(
            ghz(3),
            [BasisProbability("000")],
            epsilon=0.1,
            noise_model=NOISE,
            seed=5,
            initial_batch=64,
        )
        batch = simulate_stochastic(
            ghz(3),
            NOISE,
            [BasisProbability("000")],
            trajectories=run.trajectories,
            seed=5,
            sample_shots=0,
        )
        assert run.result.mean("P(|000>)") == pytest.approx(
            batch.mean("P(|000>)"), abs=1e-12
        )

    def test_batches_grow_geometrically(self):
        run = run_until_precision(
            ghz(2),
            [BasisProbability("00")],
            epsilon=0.04,
            noise_model=NOISE,
            seed=6,
            initial_batch=16,
            growth_factor=4.0,
        )
        assert run.batches >= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one property"):
            run_until_precision(ghz(2), [], epsilon=0.1)
        with pytest.raises(ValueError, match="epsilon"):
            run_until_precision(ghz(2), [BasisProbability("00")], epsilon=0.0)
        with pytest.raises(ValueError, match="growth_factor"):
            run_until_precision(
                ghz(2), [BasisProbability("00")], epsilon=0.1, growth_factor=1.0
            )
        with pytest.raises(ValueError, match="initial_batch"):
            run_until_precision(
                ghz(2), [BasisProbability("00")], epsilon=0.1, initial_batch=0
            )

    def test_timeout_bounds_the_whole_session(self, monkeypatch):
        """The timeout is one budget for every batch, not one per batch."""
        monkeypatch.setenv("REPRO_TRAJECTORY_MODE", "stratified")
        timeout = 1.0
        started = time.monotonic()
        run = run_until_precision(
            qft(8),
            [IdealFidelity()],
            epsilon=0.002,
            noise_model=NoiseModel.paper_defaults(),
            initial_batch=64,
            timeout=timeout,
        )
        elapsed = time.monotonic() - started
        assert run.result.timed_out
        assert run.batches >= 2
        assert elapsed < timeout + 0.5
