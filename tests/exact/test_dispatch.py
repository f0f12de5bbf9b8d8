"""Hybrid scheduler dispatch: routing, fallback, spec/status plumbing."""

import json

import pytest

from repro.circuits.library import ghz
from repro.errors import SchedulerError
from repro.noise import NoiseModel
from repro.service import JobSpec, JobState, ResultStore, Scheduler
from repro.stochastic import BasisProbability, ClassicalOutcome, ExpectationZ

PAPER_NOISE = NoiseModel.paper_defaults()


def spec_for(n=3, trajectories=50, method="stochastic", **overrides) -> JobSpec:
    return JobSpec.build(
        ghz(n),
        PAPER_NOISE,
        [BasisProbability("0" * n), ExpectationZ(0)],
        trajectories=trajectories,
        seed=9,
        **overrides,
        method=method,
    )


class TestJobSpecMethod:
    def test_default_method_keeps_job_keys_stable(self):
        """Pre-hybrid specs must hash identically: no cache invalidation."""
        spec = spec_for()
        assert "method" not in spec.to_dict()
        data = json.loads(spec.canonical_json())
        assert "method" not in data
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.method == "stochastic"
        assert clone.job_key() == spec.job_key()

    def test_non_default_method_round_trips_and_changes_key(self):
        exact = spec_for(method="exact")
        assert exact.to_dict()["method"] == "exact"
        assert JobSpec.from_dict(exact.to_dict()).method == "exact"
        assert exact.job_key() != spec_for().job_key()

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            spec_for(method="dense")


class TestSchedulerRouting:
    def test_forced_exact_completes_with_exact_result(self):
        with Scheduler(workers=1) as scheduler:
            result = scheduler.run(spec_for(method="exact"), timeout=60)
            assert result.method == "exact"
            assert result.completed_trajectories == 0
            for estimate in result.estimates.values():
                assert estimate.exact
                assert estimate.hoeffding_halfwidth() == 0.0
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["dispatch.exact"] == 1
            assert counters["dispatch.stochastic"] == 0

    def test_auto_routes_one_job_each_way(self, monkeypatch):
        """The acceptance path: real JobSpecs land on both sides.

        Pinned with the stratified budget off: with it on (the default),
        the stochastic side shrinks by ``(1 - p_clean)^2`` and worst-case
        exact no longer wins at 50k trajectories (see test_cost.py).
        """
        monkeypatch.setenv("REPRO_TRAJECTORY_MODE", "shared")
        with Scheduler(workers=1) as scheduler:
            # Tiny trajectory budget: sampling is cheaper than 4^n evolution.
            cheap = scheduler.run(spec_for(trajectories=50, method="auto"), timeout=60)
            assert cheap.method == "stochastic"
            assert cheap.completed_trajectories == 50
            # Huge budget: one exact pass beats 50k trajectories.
            big = scheduler.run(
                spec_for(trajectories=50_000, method="auto"), timeout=60
            )
            assert big.method == "exact"
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["dispatch.exact"] == 1
            assert counters["dispatch.stochastic"] == 1
            assert counters["dispatch.fallback"] == 0

    def test_forced_exact_on_unsupported_spec_fails_submit(self):
        spec = JobSpec.build(
            ghz(3),
            PAPER_NOISE,
            [ClassicalOutcome(0)],
            trajectories=10,
            method="exact",
        )
        with Scheduler(workers=1) as scheduler:
            with pytest.raises(SchedulerError, match="unsupported"):
                scheduler.submit(spec)

    def test_auto_with_unsupported_property_samples(self):
        spec = JobSpec.build(
            ghz(3),
            PAPER_NOISE,
            [ClassicalOutcome(0)],
            trajectories=20,
            method="auto",
        )
        with Scheduler(workers=1) as scheduler:
            result = scheduler.run(spec, timeout=60)
            assert result.method == "stochastic"
            assert result.completed_trajectories == 20

    def test_status_reports_resolved_method(self):
        with Scheduler(workers=1) as scheduler:
            spec = spec_for(method="exact")
            key = scheduler.submit(spec)
            scheduler.result(key, timeout=60)
            status = scheduler.status(key)
            assert status.method == "exact"
            assert status.state == JobState.COMPLETED
            assert "method: exact" in status.render()
            assert "trajectories:" not in status.render()

    def test_exact_result_is_cached_and_method_survives(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        spec = spec_for(method="exact")
        with Scheduler(workers=1, store=store) as first:
            first.run(spec, timeout=60)
        with Scheduler(workers=1, store=store) as second:
            key = second.submit(spec)
            result = second.result(key, timeout=60)
            assert result.method == "exact"
            assert second.status(key).cached
            assert second.status(key).method == "exact"
            # The cache answered; no dispatch decision was re-made.
            counters = second.metrics_snapshot()["counters"]
            assert counters["dispatch.exact"] == 0


class TestNodeCeilingFallback:
    def test_fallback_is_bit_identical_to_pure_stochastic(self):
        """An exact run tripping the ceiling re-runs stochastic, and the
        result matches a never-dispatched-exact job bit for bit."""
        spec = spec_for(n=4, trajectories=60, method="stochastic")
        with Scheduler(workers=2, chunk_size=16) as plain:
            baseline = plain.run(spec, timeout=60)
        forced = spec_for(n=4, trajectories=60, method="exact")
        with Scheduler(workers=2, chunk_size=16, exact_node_ceiling=2) as tripping:
            fallen = tripping.run(forced, timeout=60)
            counters = tripping.metrics_snapshot()["counters"]
            assert counters["dispatch.fallback"] == 1
            assert counters["dispatch.exact"] == 0
            assert tripping.status(forced.job_key()).method == "stochastic"
        assert fallen.method == "stochastic"
        assert fallen.completed_trajectories == baseline.completed_trajectories
        for name, estimate in baseline.estimates.items():
            other = fallen.estimates[name]
            assert (other.total, other.total_squared, other.count) == (
                estimate.total,
                estimate.total_squared,
                estimate.count,
            )
        assert fallen.outcome_counts == baseline.outcome_counts
        assert fallen.errors_fired == baseline.errors_fired

    def test_env_ceiling_reaches_scheduler(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXACT_NODE_CEILING", "2")
        with Scheduler(workers=1) as scheduler:
            assert scheduler.exact_node_ceiling == 2
            result = scheduler.run(spec_for(method="exact"), timeout=60)
            assert result.method == "stochastic"  # fell back


class TestServeQueue:
    def test_query_status_surfaces_method(self, tmp_path):
        from repro.service import enqueue_job
        from repro.service.serve import query_status, serve

        store = ResultStore(directory=str(tmp_path))
        key, cached = enqueue_job(store, spec_for(method="exact"))
        assert not cached
        processed = serve(store, workers=1, once=True, log=lambda *_: None)
        assert processed == 1
        status = query_status(store, key)
        assert status.state == JobState.COMPLETED
        assert status.method == "exact"
        for estimate in status.estimates.values():
            assert estimate.halfwidth == 0.0
