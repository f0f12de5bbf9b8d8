"""Merge algebra and seed-stride reproducibility of stochastic results.

The service layer leans on two invariants:

1. ``PropertyEstimate.merge`` / ``StochasticResult.merge`` are associative
   and commutative, bit for bit: the estimate sums are exact, so chunk
   results can be folded in any grouping a scheduler produces;
2. per-trajectory seeds are derived from the absolute trajectory index, so
   the same master seed gives the same estimates no matter how the ``M``
   trajectories are sharded across 1, 2, or 4 workers.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.library import ghz
from repro.noise import NoiseModel
from repro.stochastic import BasisProbability, IdealFidelity, StochasticSimulator
from repro.stochastic.results import PropertyEstimate, StochasticResult
from repro.stochastic.runner import run_trajectory_span
from repro.stochastic.strata import TRAJECTORY_MODE_ENV

NOISE = NoiseModel.paper_defaults().scaled(10)


def estimate_from(values, name="p"):
    estimate = PropertyEstimate(name)
    for value in values:
        estimate.add(value)
    return estimate


def result_from(values, name="p", outcomes=(), peak=0):
    result = StochasticResult(
        circuit_name="c", backend_kind="dd", requested_trajectories=len(values)
    )
    result.completed_trajectories = len(values)
    result.estimates[name] = estimate_from(values, name)
    for outcome in outcomes:
        result.outcome_counts[outcome] = result.outcome_counts.get(outcome, 0) + 1
    result.peak_nodes = peak
    return result


class TestPropertyEstimateMerge:
    def test_associativity_exact_on_dyadic_values(self):
        # Dyadic rationals add exactly in binary floating point, so the
        # associativity law holds bit-for-bit, not just approximately.
        parts = [
            estimate_from([0.5, 0.25]),
            estimate_from([0.125, 0.75]),
            estimate_from([0.0625]),
        ]
        left = estimate_from([])
        left.merge(parts[0]); left.merge(parts[1]); left.merge(parts[2])

        bc = estimate_from([])
        bc.merge(parts[1]); bc.merge(parts[2])
        right = estimate_from([])
        right.merge(parts[0]); right.merge(bc)

        assert left.count == right.count == 5
        assert left.total == right.total
        assert left.total_squared == right.total_squared

    def test_merge_equals_streaming_adds(self):
        values = [0.1, 0.9, 0.4, 0.7, 0.2, 0.5]
        streamed = estimate_from(values)
        merged = estimate_from(values[:3])
        merged.merge(estimate_from(values[3:]))
        assert merged.count == streamed.count
        assert merged.total == streamed.total
        assert merged.total_squared == streamed.total_squared
        assert merged.mean == streamed.mean
        assert merged.variance == streamed.variance
        assert merged == streamed

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
            max_size=40,
        ),
        data=st.data(),
    )
    def test_any_partition_in_any_order_sums_exactly(self, values, data):
        cuts = sorted(data.draw(st.sets(st.integers(0, len(values)), max_size=8)))
        bounds = [0, *cuts, len(values)]
        parts = [values[low:high] for low, high in zip(bounds, bounds[1:])]
        order = data.draw(st.permutations(range(len(parts))))
        merged = estimate_from([])
        for index in order:
            part = estimate_from(parts[index])
            merged.merge(PropertyEstimate.from_dict(part.to_dict()))
        batched = estimate_from([])
        for part in parts:
            batched.add_all(part)
        streamed = estimate_from(values)
        assert merged == streamed
        assert batched == streamed
        assert merged.total == math.fsum(values)
        assert merged.total_squared == math.fsum(v * v for v in values)

    def test_old_payloads_read_as_one_partial(self):
        payload = {"name": "p", "count": 3, "total": 0.1, "total_squared": 0.01}
        estimate = PropertyEstimate.from_dict(payload)
        assert estimate.total_partials == [0.1]
        estimate.add(0.2)
        assert estimate.total == math.fsum([0.1, 0.2])
        assert "total_partials" in estimate.to_dict()  # 0.1 + 0.2 needs two
        assert "total_partials" not in estimate_from([0.5, 0.25]).to_dict()

    def test_merge_rejects_different_properties(self):
        with pytest.raises(ValueError, match="different properties"):
            estimate_from([0.5], "a").merge(estimate_from([0.5], "b"))

    def test_round_trip_dict(self):
        original = estimate_from([0.25, 0.5, 0.125])
        restored = PropertyEstimate.from_dict(original.to_dict())
        assert restored == original


class TestStochasticResultMerge:
    def test_associativity(self):
        parts = [
            result_from([0.5, 0.25], outcomes=("00", "11"), peak=4),
            result_from([0.75], outcomes=("11",), peak=9),
            result_from([0.125, 0.0625, 0.5], outcomes=("00",), peak=2),
        ]

        def fold(*results):
            accumulator = result_from([])
            for result in results:
                accumulator.merge(result)
            return accumulator

        bc = fold(parts[1], parts[2])
        left = fold(parts[0], parts[1], parts[2])
        right = fold(parts[0], bc)

        assert left.completed_trajectories == right.completed_trajectories == 6
        assert left.estimates["p"].total == right.estimates["p"].total
        assert left.outcome_counts == right.outcome_counts == {"00": 2, "11": 2}
        assert left.peak_nodes == right.peak_nodes == 9
        assert left.errors_fired == right.errors_fired

    def test_timed_out_is_sticky(self):
        aggregate = result_from([0.5])
        partial = result_from([0.5])
        partial.timed_out = True
        aggregate.merge(partial)
        aggregate.merge(result_from([0.5]))
        assert aggregate.timed_out

    def test_round_trip_dict(self):
        original = result_from([0.5, 0.25], outcomes=("01",), peak=7)
        original.errors_fired["depolarizing"] = 3
        original.elapsed_seconds = 1.5
        original.workers = 4
        restored = StochasticResult.from_dict(original.to_dict())
        assert restored == original

    def test_copy_is_independent(self):
        original = result_from([0.5])
        duplicate = original.copy()
        duplicate.estimates["p"].add(1.0)
        duplicate.outcome_counts["11"] = 5
        assert original.estimates["p"].count == 1
        assert "11" not in original.outcome_counts


class TestChunkingInvariance:
    @pytest.mark.parametrize("seed", range(1, 41))
    def test_chunks_merge_to_the_one_span_result(self, monkeypatch, seed):
        """One 48-trajectory span against the sixteen 3-trajectory chunks
        that ``Scheduler(workers=2)`` plans for it, merged in index order:
        the same samples, so the same estimate to the last bit."""
        monkeypatch.delenv(TRAJECTORY_MODE_ENV, raising=False)
        args = (
            ghz(5), NoiseModel.paper_defaults(),
            (IdealFidelity(), BasisProbability("00000")), "dd",
        )
        whole = run_trajectory_span(*args, 0, 48, seed, sample_shots=1)
        chunked = StochasticResult(whole.circuit_name, "dd", 48)
        for prop in args[2]:
            chunked.estimates[prop.name] = PropertyEstimate(prop.name)
        for first in range(0, 48, 3):
            chunked.merge(run_trajectory_span(*args, first, 3, seed, sample_shots=1))
        assert chunked.estimates == whole.estimates
        assert chunked.strata == whole.strata


class TestSeedStrideReproducibility:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_estimates(self, workers):
        """Identical estimates for 1, 2, and 4 workers at a fixed master
        seed: trajectory i's RNG depends only on (seed, i)."""
        kwargs = dict(
            noise_model=NOISE,
            properties=[BasisProbability("0000"), IdealFidelity()],
            trajectories=24,
            seed=13,
            sample_shots=1,
        )
        with StochasticSimulator(backend="dd", workers=1) as serial:
            reference = serial.run(ghz(4), **kwargs)
        with StochasticSimulator(backend="dd", workers=workers) as parallel:
            sharded = parallel.run(ghz(4), **kwargs)

        assert sharded.completed_trajectories == 24
        for name in reference.estimates:
            assert sharded.mean(name) == pytest.approx(
                reference.mean(name), abs=1e-12
            )
        assert sharded.errors_fired == reference.errors_fired
        assert sharded.outcome_counts == reference.outcome_counts

    def test_repeated_runs_reuse_the_warm_pool(self):
        """The docstring's promise: one pool across .run() calls."""
        simulator = StochasticSimulator(backend="dd", workers=2)
        try:
            first = simulator.run(
                ghz(3), NOISE, [BasisProbability("000")],
                trajectories=12, seed=1, sample_shots=0,
            )
            scheduler = simulator._scheduler
            assert scheduler is not None
            pids = [h.process.pid for h in scheduler._workers]
            second = simulator.run(
                ghz(3), NOISE, [BasisProbability("000")],
                trajectories=18, seed=2, sample_shots=0,
            )
            assert simulator._scheduler is scheduler
            assert [h.process.pid for h in scheduler._workers] == pids
            assert first.completed_trajectories == 12
            assert second.completed_trajectories == 18
        finally:
            simulator.close()

    def test_close_is_safe_without_pool(self):
        StochasticSimulator(workers=1).close()
