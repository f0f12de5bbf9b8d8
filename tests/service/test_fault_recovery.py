"""Recovery-path tests: every injected fault class must heal end to end.

Each test arms a deterministic :class:`FaultPlan` through the environment
(the only channel that reaches forked workers), runs a real job through the
scheduler, and asserts BOTH that the job succeeded with reference-equal
results AND that the expected recovery counters moved — a fault that is
silently swallowed is as much a bug as one that kills the job.
"""

import os

import pytest

from repro.circuits.library import ghz
from repro.errors import PoisonChunkError, WorkerPoolBrokenError
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.service import JobSpec, ResultStore, Scheduler
from repro.service import scheduler as scheduler_module
from repro.stochastic import BasisProbability, simulate_stochastic

NOISE = NoiseModel.paper_defaults().scaled(10)


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


def ghz_spec(n=4, trajectories=24, seed=5, **overrides) -> JobSpec:
    return JobSpec.build(
        ghz(n),
        NOISE,
        [BasisProbability("0" * n)],
        trajectories=trajectories,
        seed=seed,
        sample_shots=0,
        **overrides,
    )


def reference(spec: JobSpec):
    return simulate_stochastic(
        spec.circuit,
        spec.noise_model,
        spec.properties,
        trajectories=spec.trajectories,
        seed=spec.seed,
        sample_shots=spec.sample_shots,
    )


def arm(monkeypatch, tmp_path, *specs, coordinate=True) -> FaultPlan:
    """Activate a fault plan for this test (and any forked workers)."""
    state_dir = None
    if coordinate:
        state_dir = str(tmp_path / "fault-state")
        os.makedirs(state_dir, exist_ok=True)
    plan = FaultPlan(faults=tuple(specs), state_dir=state_dir)
    monkeypatch.setenv(PLAN_ENV, plan.to_json())
    reset_injector_cache()
    return plan


def counters(scheduler) -> dict:
    return scheduler.metrics_snapshot()["counters"]


def wait_counter(scheduler, name, minimum=1, timeout=5.0) -> dict:
    """Counters snapshot once ``name`` reaches ``minimum`` (respawns land
    asynchronously, shortly after the job that triggered them finishes)."""
    import time

    deadline = time.time() + timeout
    while True:
        snap = counters(scheduler)
        if snap.get(name, 0) >= minimum or time.time() >= deadline:
            return snap
        time.sleep(0.02)


def assert_reference_equal(result, spec):
    expected = reference(spec)
    assert result.completed_trajectories == spec.trajectories
    for name, estimate in expected.estimates.items():
        assert result.estimates[name].mean == pytest.approx(
            estimate.mean, abs=1e-12
        )


class TestWorkerFaultRecovery:
    def test_crash_before_is_respawned_and_retried(self, monkeypatch, tmp_path):
        plan = arm(monkeypatch, tmp_path, FaultSpec(kind="crash-before", chunk_index=0))
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = wait_counter(scheduler, "faults.recovered.respawn")
        assert_reference_equal(result, spec)
        assert snap["faults.recovered.respawn"] >= 1
        assert snap["faults.recovered.requeue"] >= 1
        assert plan.claimed_counts() == {"faults.injected.crash-before": 1}

    def test_unfiltered_crash_fires_once_per_pool(self, monkeypatch, tmp_path):
        plan = arm(monkeypatch, tmp_path, FaultSpec(kind="crash-before"))
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = wait_counter(scheduler, "scheduler.worker_respawns")
        assert plan.claimed_counts() == {"faults.injected.crash-before": 1}
        assert snap["scheduler.worker_respawns"] == 1
        assert_reference_equal(result, spec)

    def test_crash_mid_chunk_discards_partial_work(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, FaultSpec(kind="crash-mid-chunk", chunk_index=1))
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = wait_counter(scheduler, "scheduler.worker_respawns")
        # The retry re-derives per-trajectory seeds, so the partially
        # executed chunk leaves no trace in the merged estimates.
        assert_reference_equal(result, spec)
        assert snap["scheduler.worker_respawns"] >= 1

    def test_hang_is_reaped_by_chunk_timeout(self, monkeypatch, tmp_path):
        arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="hang", chunk_index=0, seconds=30.0),
        )
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8, chunk_timeout=1.0) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = wait_counter(scheduler, "faults.recovered.respawn")
        assert_reference_equal(result, spec)
        assert snap["faults.recovered.respawn"] >= 1

    def test_slow_chunk_adds_latency_not_failure(self, monkeypatch, tmp_path):
        plan = arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="slow-chunk", chunk_index=0, seconds=0.2),
        )
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = counters(scheduler)
        assert_reference_equal(result, spec)
        assert snap["scheduler.retries"] == 0
        assert plan.claimed_counts() == {"faults.injected.slow-chunk": 1}

    def test_corrupt_outcome_is_rejected_and_reexecuted(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, FaultSpec(kind="corrupt-outcome", chunk_index=0))
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = counters(scheduler)
        assert_reference_equal(result, spec)
        assert snap["scheduler.outcomes.rejected"] == 1
        assert snap["faults.recovered.outcome_rejected"] == 1


class TestSchedulerFaultRecovery:
    def test_queue_drop_requeues_the_chunk(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, FaultSpec(kind="queue-drop", chunk_index=1))
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = counters(scheduler)
        assert_reference_equal(result, spec)
        assert snap["faults.injected.queue-drop"] == 1
        assert snap["faults.recovered.requeue"] >= 1

    def test_queue_delay_holds_then_delivers(self, monkeypatch, tmp_path):
        arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="queue-delay", chunk_index=1, seconds=0.3),
        )
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = counters(scheduler)
        assert_reference_equal(result, spec)
        assert snap["faults.injected.queue-delay"] == 1
        assert snap["scheduler.retries"] == 0  # a delay is not a failure


class TestStoreFaultRecovery:
    def test_enospc_on_checkpoint_degrades_not_fails(self, monkeypatch, tmp_path):
        """Only a job that ends short writes a checkpoint: here its deadline
        cuts it short (every chunk first sleeps 0.6 s of its 1 s budget).
        A full disk costs that checkpoint on disk, not the job: it still
        returns its partial, the store still answers for it in process,
        and a resubmission through a fresh store reruns and completes."""
        arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="enospc", operation="put_partial"),
            FaultSpec(kind="slow-chunk", seconds=0.6, times=100),
        )
        spec = ghz_spec(trajectories=64, timeout=1.0)
        store_dir = str(tmp_path / "store")
        store = ResultStore(directory=store_dir)
        with Scheduler(workers=2, chunk_size=8, store=store) as scheduler:
            result = scheduler.run(spec, timeout=60)
            snap = counters(scheduler)
        assert result.timed_out
        assert result.completed_trajectories < spec.trajectories
        assert snap["scheduler.checkpoint_writes"] == 1
        assert snap["store.write.errors"] == 1
        assert snap["faults.recovered.write_skipped"] == 1
        assert store.record(spec.job_key())["end"]["state"] == "completed"
        assert ResultStore(directory=store_dir).get_partial(spec.job_key()) is None

        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        with Scheduler(workers=2, chunk_size=8,
                       store=ResultStore(directory=store_dir)) as scheduler:
            again = scheduler.run(spec, timeout=60)
        assert not again.timed_out
        assert_reference_equal(again, spec)

    def test_bit_flip_on_final_write_is_caught_by_the_next_reader(
        self, monkeypatch, tmp_path
    ):
        arm(monkeypatch, tmp_path, FaultSpec(kind="bit-flip", operation="put"))
        spec = ghz_spec()
        store_dir = str(tmp_path / "store")
        with Scheduler(workers=2, chunk_size=8,
                       store=ResultStore(directory=store_dir)) as scheduler:
            first = scheduler.run(spec, timeout=60)
        # A fresh store (cold memory cache) must detect the corrupted disk
        # entry by checksum, quarantine it, and report a miss — after which
        # a re-run reproduces the identical result.
        reset_injector_cache()
        fresh = ResultStore(directory=store_dir)
        assert fresh.get(spec.job_key()) is None
        assert fresh.stats()["corrupt"] == 1
        snap = fresh.metrics.snapshot()["counters"]
        assert snap["store.corruption.quarantined"] == 1
        assert snap["faults.recovered.store_quarantine"] == 1
        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        with Scheduler(workers=2, chunk_size=8, store=fresh) as scheduler:
            again = scheduler.run(spec, timeout=60)
        for name, estimate in first.estimates.items():
            assert again.estimates[name].mean == estimate.mean


class TestSelfProtection:
    def test_poison_chunk_is_quarantined_with_diagnosis(self, monkeypatch, tmp_path):
        # A chunk that kills its worker on every attempt must not retry
        # forever: once it has killed more than max_retries workers the job
        # fails fast with a structured diagnosis.
        arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="crash-before", chunk_index=0, times=10),
        )
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8, max_retries=2) as scheduler:
            key = scheduler.submit(spec)
            with pytest.raises(PoisonChunkError, match="quarantined") as excinfo:
                scheduler.result(key, timeout=60)
            snap = counters(scheduler)
        diagnosis = excinfo.value.diagnosis
        assert diagnosis["chunk_index"] == 0
        assert diagnosis["worker_deaths"] == 3
        assert diagnosis["first_trajectory"] == 0
        assert diagnosis["num_trajectories"] == 8
        assert any("worker died" in reason for reason in diagnosis["reasons"])
        assert snap["scheduler.poison_quarantined"] == 1

    def test_respawn_storm_trips_the_circuit_breaker(self, monkeypatch, tmp_path):
        # Every chunk kills every worker: a storm.  The breaker must fail
        # the job with a pool-level error before the per-chunk poison or
        # retry budgets are reached.
        arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="crash-before", times=50),
        )
        monkeypatch.setattr(scheduler_module, "_BREAKER_THRESHOLD", 3)
        monkeypatch.setattr(scheduler_module, "_BREAKER_WINDOW", 30.0)
        spec = ghz_spec()
        with Scheduler(workers=2, chunk_size=8, max_retries=20) as scheduler:
            key = scheduler.submit(spec)
            with pytest.raises(WorkerPoolBrokenError, match="circuit breaker"):
                scheduler.result(key, timeout=60)
            snap = counters(scheduler)
        assert snap["scheduler.breaker.trips"] == 1

    def test_drain_errors_are_counted_not_swallowed(self):
        # Satellite fix: a failing result-queue read must leave evidence.
        class _ExplodingQueue:
            def get_nowait(self):
                raise RuntimeError("feeder died mid-put")

        class _Handle:
            worker_id = 99
            result_queue = _ExplodingQueue()

        with Scheduler(workers=1) as scheduler:
            drained = scheduler._drain_results(_Handle())
            snap = counters(scheduler)
            events = scheduler.trace_events()
        assert drained == 0
        assert snap["scheduler.drain.errors"] == 1
        assert any(event["name"] == "drain.error" for event in events)
