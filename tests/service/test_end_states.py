"""Every way a job ends reads the same through every reader.

A finished job lives in one place, its store record: the scheduler
forgets it, and one reader (``ResultStore.job_status``) answers for it in
process and across processes.  For each end -- cancelled mid-run and
before any commit, failed on retries, quarantined as poison, failed by the
respawn breaker, cut short by its deadline -- the state, the error and the
completed count must agree between

* a ``result()`` that was waiting when the job ended;
* a later ``result()`` and ``status()`` on the same scheduler;
* ``query_status`` on the store;
* ``query_status`` after a second ``JobJournal`` open has compacted the
  journal (on-disk stores only);
* a fresh ``Scheduler`` on the same store.
"""

import threading
import time

import pytest

from repro.circuits.library import ghz
from repro.errors import SchedulerError
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.service import JobSpec, JobState, ResultStore, Scheduler, query_status
from repro.service import scheduler as scheduler_module
from repro.service.journal import JobJournal, journal_path
from repro.stochastic import BasisProbability

NOISE = NoiseModel.paper_defaults()


def ghz_spec(trajectories=24, **overrides) -> JobSpec:
    return JobSpec.build(
        ghz(4), NOISE, [BasisProbability("0000")],
        trajectories=trajectories, seed=5, sample_shots=0, **overrides,
    )


#: case -> (faults, spec, Scheduler options, expected state)
CASES = {
    "cancelled-mid-run": (
        (FaultSpec(kind="slow-chunk", seconds=0.3, times=100),),
        ghz_spec(), {"chunk_size": 4}, JobState.CANCELLED,
    ),
    "cancelled-before-commit": ((), ghz_spec(), {"chunk_size": 4}, JobState.CANCELLED),
    "retries": (
        (FaultSpec(kind="corrupt-outcome", times=100),),
        ghz_spec(), {"chunk_size": 8}, JobState.FAILED,
    ),
    "poison": (
        (FaultSpec(kind="crash-before", chunk_index=0, times=10),),
        ghz_spec(), {"chunk_size": 8}, JobState.FAILED,
    ),
    "breaker": (
        (FaultSpec(kind="crash-before", times=50),),
        ghz_spec(), {"chunk_size": 8, "max_retries": 20}, JobState.FAILED,
    ),
    "deadline": (
        (FaultSpec(kind="slow-chunk", seconds=0.6, times=100),),
        ghz_spec(trajectories=64, timeout=1.0), {"chunk_size": 8}, JobState.COMPLETED,
    ),
}


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


def outcome(read):
    """(error type, message, poison diagnosis, completed) of one result read."""
    try:
        result = read()
    except SchedulerError as error:
        return type(error).__name__, str(error), getattr(error, "diagnosis", None), None
    assert result.timed_out
    return "result", None, None, result.completed_trajectories


def view(status):
    return status.state, status.error, status.completed_trajectories


def run_to_end(case, scheduler) -> tuple:
    """Submit the case's job and end it; returns (key, the waiting read)."""
    _, spec, _, _ = CASES[case]
    if case == "cancelled-before-commit":
        scheduler._draining = True  # nothing is dispatched, nothing commits
    key = scheduler.submit(spec)
    waited = []
    waiter = threading.Thread(
        target=lambda: waited.append(outcome(lambda: scheduler.result(key, timeout=60)))
    )
    waiter.start()
    if case.startswith("cancelled"):
        deadline = time.monotonic() + 60
        while case == "cancelled-mid-run" and (
            scheduler.status(key).completed_trajectories < 8
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        time.sleep(0.05)  # let the waiter block on the live job
        assert scheduler.cancel(key)
    waiter.join(timeout=90)
    (seen,) = waited
    return key, seen


@pytest.mark.parametrize("store_kind", ["memory", "disk"])
@pytest.mark.parametrize("case", list(CASES))
def test_an_ended_job_reads_the_same_everywhere(case, store_kind, monkeypatch, tmp_path):
    faults, _, options, state = CASES[case]
    if faults:
        state_dir = tmp_path / "fault-state"
        state_dir.mkdir()
        plan = FaultPlan(faults=faults, state_dir=str(state_dir))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()
    if case == "breaker":
        monkeypatch.setattr(scheduler_module, "_BREAKER_THRESHOLD", 3)
        monkeypatch.setattr(scheduler_module, "_BREAKER_WINDOW", 30.0)
    directory = None if store_kind == "memory" else str(tmp_path / "store")
    store = ResultStore(directory=directory)
    with Scheduler(workers=2, store=store, **options) as scheduler:
        key, waited = run_to_end(case, scheduler)
        with scheduler._lock:
            assert key not in scheduler._active  # forgotten, not retained
        results = [waited, outcome(lambda: scheduler.result(key))]
        views = {"status": view(scheduler.status(key))}
        assert not scheduler.cancel(key)
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()

    views["query_status"] = view(query_status(store, key))
    if directory is not None:
        JobJournal(journal_path(directory)).close()  # compacts job-done away
        views["query_status after a journal open"] = view(query_status(store, key))
        store = ResultStore(directory=directory)
    with Scheduler(workers=1, store=store) as fresh:
        views["fresh scheduler"] = view(fresh.status(key))
        results.append(outcome(lambda: fresh.result(key)))

    assert results == [waited] * len(results), results
    assert len(set(views.values())) == 1, views
    kind, message, diagnosis, completed = waited
    seen_state, error, count = views["status"]
    assert seen_state == state
    if state == JobState.FAILED:
        assert error == message
    else:
        assert error is None
    expected_kind = {
        "retries": "JobFailedError",
        "poison": "PoisonChunkError",
        "breaker": "WorkerPoolBrokenError",
        "deadline": "result",
    }.get(case, "JobCancelledError")
    assert kind == expected_kind
    if case == "poison":
        assert diagnosis["chunk_index"] == 0 and diagnosis["worker_deaths"] == 3
    if case == "deadline":
        assert completed == count < 64
    elif case == "cancelled-mid-run":
        assert count >= 8
    elif case in ("cancelled-before-commit", "retries", "breaker"):
        assert count == 0
