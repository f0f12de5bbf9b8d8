"""Lease-based chunk ownership: fencing tokens, renewal, expiry reclaim."""

import pytest

from repro.circuits.library import ghz
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.service.job import JobSpec
from repro.service.scheduler import Scheduler
from repro.service.store import ResultStore
from repro.service.worker import ChunkOutcome
from repro.stochastic import IdealFidelity, simulate_stochastic


def _spec(trajectories=8, num_qubits=3, seed=0):
    return JobSpec(
        circuit=ghz(num_qubits),
        noise_model=NoiseModel.paper_defaults(),
        properties=(IdealFidelity(),),
        trajectories=trajectories,
        seed=seed,
        backend_kind="dd",
        sample_shots=0,
    )


def _counters(scheduler):
    return scheduler.metrics_snapshot().get("counters", {})


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


def _real_chunk_result(spec, first, count):
    """A genuine chunk result (passes the scheduler's outcome validation)."""
    from repro.stochastic.runner import run_trajectory_span

    return run_trajectory_span(
        spec.circuit,
        spec.noise_model,
        spec.properties,
        spec.backend_kind,
        first,
        count,
        spec.seed,
        sample_shots=0,
    )


class TestFencing:
    def test_stale_token_rejected_current_token_commits(self):
        spec = _spec(trajectories=8)
        with Scheduler(
            workers=1, store=ResultStore(directory=None), chunk_size=4
        ) as scheduler:
            # Drain mode parks the job: chunks stay pending, never leased,
            # so the test can inject outcomes with chosen tokens.
            scheduler._draining = True
            key = scheduler.submit(spec, token_base=5)
            with scheduler._lock:
                job = scheduler._jobs[key]
                job.lease_tokens[0] = 5
            result = _real_chunk_result(spec, 0, 4)

            stale = ChunkOutcome(
                worker_id=0, job_key=key, chunk_index=0,
                first_trajectory=0, num_trajectories=4,
                result=result, error=None, fencing_token=3,
            )
            with scheduler._lock:
                scheduler._handle_outcome(stale)
                assert 0 not in job.completed
            assert _counters(scheduler)["lease.fenced"] == 1

            current = ChunkOutcome(
                worker_id=0, job_key=key, chunk_index=0,
                first_trajectory=0, num_trajectories=4,
                result=result, error=None, fencing_token=5,
            )
            with scheduler._lock:
                scheduler._handle_outcome(current)
                assert 0 in job.completed
                committed = _counters(scheduler)["scheduler.chunks_completed"]
                # A duplicate of an already-committed chunk is a no-op.
                scheduler._handle_outcome(current)
            assert (
                _counters(scheduler)["scheduler.chunks_completed"] == committed
            )

    def test_report_from_a_cancelled_run_of_the_same_key_is_fenced(self):
        """A resubmission never leased the cancelled run's in-flight chunk
        and grants tokens past the cancelled run's, so that chunk's late
        report cannot commit into it under either condition."""
        spec = _spec(trajectories=8)
        with Scheduler(
            workers=1, store=ResultStore(directory=None), chunk_size=4
        ) as scheduler:
            scheduler._draining = True
            key = scheduler.submit(spec)
            with scheduler._lock:
                cancelled = scheduler._jobs[key]
                cancelled.lease_tokens[0] = cancelled.next_token  # in flight
                cancelled.next_token += 1
            assert scheduler.cancel(key)
            scheduler.submit(spec)
            stale = ChunkOutcome(
                worker_id=0, job_key=key, chunk_index=0,
                first_trajectory=0, num_trajectories=4,
                result=_real_chunk_result(spec, 0, 4), error=None,
                fencing_token=0,
            )
            with scheduler._lock:
                job = scheduler._jobs[key]
                scheduler._handle_outcome(stale)  # chunk not leased yet
                assert 0 not in job.completed
                job.lease_tokens[0] = job.next_token  # leased by this run
                job.next_token += 1
                scheduler._handle_outcome(stale)
                assert 0 not in job.completed
            assert _counters(scheduler)["lease.fenced"] == 2

    def test_pre_lease_outcomes_are_not_fenced(self):
        """Tasks dispatched before leasing existed (token None) still commit."""
        spec = _spec(trajectories=4)
        with Scheduler(
            workers=1, store=ResultStore(directory=None), chunk_size=4
        ) as scheduler:
            scheduler._draining = True
            key = scheduler.submit(spec, token_base=0)
            outcome = ChunkOutcome(
                worker_id=0, job_key=key, chunk_index=0,
                first_trajectory=0, num_trajectories=4,
                result=_real_chunk_result(spec, 0, 4), error=None,
                fencing_token=None,
            )
            with scheduler._lock:
                scheduler._handle_outcome(outcome)
            result = scheduler.result(key, timeout=5.0)
        assert result.completed_trajectories == 4


class TestLeaseLifecycle:
    def test_renewal_keeps_a_slow_chunk_owned(self, monkeypatch):
        plan = FaultPlan(
            faults=(FaultSpec(kind="slow-chunk", chunk_index=0, seconds=0.5),),
            seed=0,
        )
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()
        spec = _spec(trajectories=4)
        with Scheduler(
            workers=1,
            store=ResultStore(directory=None),
            chunk_size=4,
            lease_duration=0.15,
        ) as scheduler:
            result = scheduler.run(spec, timeout=60.0)
            counters = _counters(scheduler)
        assert result.completed_trajectories == 4
        assert counters.get("lease.renewed", 0) >= 1
        assert counters.get("lease.expired", 0) == 0

    def test_expired_lease_is_reclaimed_and_zombie_fenced(self, monkeypatch):
        # lease-expiry stops renewal for chunk 0; slow-chunk keeps its
        # holder busy past the lease, so the reaper reclaims it and the
        # original holder's late report arrives with a dead token.
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="lease-expiry", chunk_index=0),
                FaultSpec(kind="slow-chunk", chunk_index=0, seconds=0.6),
            ),
            seed=0,
        )
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()
        spec = _spec(trajectories=8, seed=3)
        reference = simulate_stochastic(
            spec.circuit,
            noise_model=spec.noise_model,
            properties=spec.properties,
            trajectories=8,
            backend="dd",
            workers=1,
            seed=3,
            sample_shots=0,
        )
        with Scheduler(
            workers=1,
            store=ResultStore(directory=None),
            chunk_size=4,
            lease_duration=0.1,
        ) as scheduler:
            result = scheduler.run(spec, timeout=60.0)
            counters = _counters(scheduler)
        assert result.completed_trajectories == 8
        assert counters.get("lease.expired", 0) >= 1
        assert counters.get("lease.fenced", 0) >= 1
        # Re-execution is value-identical: per-trajectory seeds derive
        # from absolute indices, merges fold in chunk-index order.
        for name, estimate in result.estimates.items():
            assert abs(estimate.mean - reference.estimates[name].mean) <= 1e-12
