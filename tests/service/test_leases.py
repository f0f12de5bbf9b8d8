"""Commit fencing: only the report of a chunk's latest dispatch commits."""

import pytest

from repro.circuits.library import ghz
from repro.faults import PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.service.job import JobSpec
from repro.service.scheduler import Scheduler
from repro.service.store import ResultStore
from repro.service.worker import ChunkOutcome
from repro.stochastic import IdealFidelity


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
            # Drain mode parks the job: chunks stay pending, never
            # dispatched, so the test can inject outcomes with chosen tokens.
            scheduler._draining = True
            key = scheduler.submit(spec)
            with scheduler._lock:
                job = scheduler._active[key]
                job.fencing_tokens[0] = 5  # chunk 0's latest dispatch
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
        """A resubmission has not dispatched the cancelled run's in-flight
        chunk, and its dispatches take later tokens of the scheduler-wide
        counter, so that chunk's late report cannot commit into it under
        either condition."""
        spec = _spec(trajectories=8)
        with Scheduler(
            workers=1, store=ResultStore(directory=None), chunk_size=4
        ) as scheduler:
            scheduler._draining = True
            key = scheduler.submit(spec)
            with scheduler._lock:
                cancelled = scheduler._active[key]
                cancelled.fencing_tokens[0] = scheduler._next_token  # in flight
                scheduler._next_token += 1
            assert scheduler.cancel(key)
            scheduler.submit(spec)
            stale = ChunkOutcome(
                worker_id=0, job_key=key, chunk_index=0,
                first_trajectory=0, num_trajectories=4,
                result=_real_chunk_result(spec, 0, 4), error=None,
                fencing_token=0,
            )
            with scheduler._lock:
                job = scheduler._active[key]
                scheduler._handle_outcome(stale)  # chunk not dispatched yet
                assert 0 not in job.completed
                job.fencing_tokens[0] = scheduler._next_token  # dispatched by this run
                scheduler._next_token += 1
                scheduler._handle_outcome(stale)
                assert 0 not in job.completed
            assert _counters(scheduler)["lease.fenced"] == 2

    def test_an_outcome_without_a_token_is_fenced(self):
        """Every dispatch stamps a token, so a tokenless report is not one
        of this run's dispatches."""
        spec = _spec(trajectories=4)
        with Scheduler(
            workers=1, store=ResultStore(directory=None), chunk_size=4
        ) as scheduler:
            scheduler._draining = True
            key = scheduler.submit(spec)
            outcome = ChunkOutcome(
                worker_id=0, job_key=key, chunk_index=0,
                first_trajectory=0, num_trajectories=4,
                result=_real_chunk_result(spec, 0, 4), error=None,
                fencing_token=None,
            )
            with scheduler._lock:
                job = scheduler._active[key]
                scheduler._handle_outcome(outcome)  # chunk not dispatched yet
                job.fencing_tokens[0] = scheduler._next_token
                scheduler._next_token += 1
                scheduler._handle_outcome(outcome)
                assert not job.completed
            assert _counters(scheduler)["lease.fenced"] == 2
