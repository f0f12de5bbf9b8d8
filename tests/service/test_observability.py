"""Scheduler observability: metrics snapshots, traces, deadline budgets."""

import time

import pytest

from repro.circuits.library import ghz
from repro.noise import NoiseModel
from repro.service import JobSpec, ResultStore, Scheduler
from repro.stochastic import BasisProbability, StochasticSimulator

NOISE = NoiseModel.paper_defaults().scaled(10)


def ghz_spec(n=4, trajectories=40, seed=5, **overrides) -> JobSpec:
    return JobSpec.build(
        ghz(n),
        NOISE,
        [BasisProbability("0" * n)],
        trajectories=trajectories,
        seed=seed,
        sample_shots=0,
        **overrides,
    )


class TestSchedulerMetrics:
    def test_counters_are_preseeded(self):
        with Scheduler(workers=1) as scheduler:
            counters = scheduler.metrics_snapshot()["counters"]
        for name in (
            "scheduler.retries",
            "scheduler.worker_respawns",
            "scheduler.chunks_completed",
            "scheduler.checkpoint_writes",
            "store.hits",
            "store.misses",
        ):
            assert counters[name] == 0

    def test_run_updates_scheduler_counters(self):
        spec = ghz_spec(trajectories=20)
        with Scheduler(workers=2, chunk_size=5) as scheduler:
            scheduler.run(spec, timeout=120)
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["scheduler.chunks_completed"] == 4
            assert counters["scheduler.trajectories_executed"] == 20
            assert counters["store.misses"] == 1
            # Resubmission answers from the cache.
            scheduler.run(spec, timeout=120)
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["store.hits"] == 1
            assert counters["scheduler.chunks_completed"] == 4

    def test_result_carries_merged_worker_metrics(self):
        spec = ghz_spec(trajectories=20)
        with Scheduler(workers=2, chunk_size=5) as scheduler:
            result = scheduler.run(spec, timeout=120)
        counters = result.metrics["counters"]
        assert counters["trajectory.completed"] == 20
        assert counters["dd.unique.vector.misses"] > 0
        latency = result.metrics["histograms"]["trajectory.seconds"]
        assert latency["count"] == 20

    def test_status_exposes_metrics(self):
        spec = ghz_spec(trajectories=20)
        with Scheduler(workers=2, chunk_size=5) as scheduler:
            key = scheduler.submit(spec)
            scheduler.result(key, timeout=120)
            status = scheduler.status(key)
        assert status.metrics["counters"]["trajectory.completed"] == 20

    def test_trace_records_job_lifecycle(self):
        spec = ghz_spec(trajectories=10)
        with Scheduler(workers=1, chunk_size=5) as scheduler:
            scheduler.run(spec, timeout=120)
            names = {event["name"] for event in scheduler.trace_events()}
        assert "job.finalize" in names

    def test_respawn_counter_tracks_worker_death(self):
        spec = ghz_spec(n=6, trajectories=60, seed=2)
        with Scheduler(workers=2, chunk_size=2) as scheduler:
            key = scheduler.submit(spec)
            time.sleep(0.05)
            scheduler._workers[0].process.terminate()
            scheduler.result(key, timeout=120)
            # The job (about 70 ms) may end before the dispatcher reaps the
            # dead worker, and the respawn lands a pass after the reap.
            deadline = time.monotonic() + 10.0
            while True:
                counters = scheduler.metrics_snapshot()["counters"]
                if counters["scheduler.worker_respawns"] or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
        assert counters["scheduler.worker_respawns"] >= 1


class TestSharedDeadline:
    def test_parallel_job_respects_one_wall_clock_budget(self):
        """N workers share the job budget instead of burning it each."""
        spec = ghz_spec(n=14, trajectories=10_000_000, timeout=1.0)
        started = time.monotonic()
        with Scheduler(workers=2, chunk_size=1000) as scheduler:
            result = scheduler.run(spec, timeout=120)
        wall = time.monotonic() - started
        assert result.timed_out
        assert wall < 3.0  # ~budget + drain grace + dispatch slack
        assert 0 < result.completed_trajectories < spec.trajectories

    def test_in_flight_partials_are_counted_not_dropped(self):
        spec = ghz_spec(n=12, trajectories=10_000_000, timeout=0.8)
        with Scheduler(workers=2, chunk_size=5000) as scheduler:
            result = scheduler.run(spec, timeout=120)
        assert result.timed_out
        # Both workers were mid-chunk at the deadline; each returns its
        # partial trajectories, which must appear in the final result.
        assert result.completed_trajectories > 0
        assert result.metrics["counters"]["trajectory.completed"] == (
            result.completed_trajectories
        )

    def test_chunk_deadline_is_absolute_not_relative(self):
        spec = ghz_spec(trajectories=10, timeout=300.0)
        with Scheduler(workers=1, chunk_size=5) as scheduler:
            key = scheduler.submit(spec)
            job = scheduler._jobs[key]
            deadlines = {task.deadline for task in job.chunks.values()}
            scheduler.result(key, timeout=120)
        # Every chunk shares the single job deadline instant.
        assert len(deadlines) == 1
        (deadline,) = deadlines
        assert deadline == pytest.approx(time.monotonic() + 300.0, abs=30.0)


class TestSimulatorIntegration:
    def test_parallel_run_includes_scheduler_delta(self):
        with StochasticSimulator(backend="dd", workers=2) as simulator:
            result = simulator.run(
                ghz(6), noise_model=NOISE, trajectories=20, sample_shots=0,
            )
            counters = result.metrics["counters"]
            assert counters["scheduler.chunks_completed"] > 0
            assert counters["scheduler.retries"] == 0
            assert simulator.trace_events()  # the pool traced the job

    def test_second_run_reports_only_its_own_scheduler_activity(self):
        with StochasticSimulator(backend="dd", workers=2) as simulator:
            first = simulator.run(
                ghz(6), noise_model=NOISE, trajectories=20, sample_shots=0,
            )
            second = simulator.run(
                ghz(6), noise_model=NOISE, trajectories=20, seed=1, sample_shots=0,
            )
        first_chunks = first.metrics["counters"]["scheduler.chunks_completed"]
        second_chunks = second.metrics["counters"]["scheduler.chunks_completed"]
        assert second_chunks == first_chunks  # delta, not lifetime total
