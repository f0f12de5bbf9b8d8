"""Cancellation and shutdown edge cases: races and store hygiene."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro

from repro.circuits.library import ghz
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.service import (
    JobCancelledError,
    JobSpec,
    JobState,
    ResultStore,
    Scheduler,
    SchedulerError,
)
from repro.stochastic import BasisProbability

NOISE = NoiseModel.paper_defaults().scaled(10)


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


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


def _slow_plan(monkeypatch, tmp_path, seconds=0.5, times=8):
    """Make every chunk slow so a cancel reliably races in-flight work."""
    state_dir = str(tmp_path / "fault-state")
    os.makedirs(state_dir, exist_ok=True)
    plan = FaultPlan(
        faults=(FaultSpec(kind="slow-chunk", seconds=seconds, times=times),),
        state_dir=state_dir,
    )
    monkeypatch.setenv(PLAN_ENV, plan.to_json())
    reset_injector_cache()


class TestCancelRacingInFlightChunks:
    def test_cancel_while_chunks_are_in_flight(self, monkeypatch, tmp_path):
        _slow_plan(monkeypatch, tmp_path)
        store = ResultStore(directory=str(tmp_path / "store"))
        with Scheduler(workers=2, chunk_size=8, store=store) as scheduler:
            key = scheduler.submit(ghz_spec(trajectories=64))
            # Wait until at least one chunk has actually been dispatched.
            deadline = time.time() + 10
            while time.time() < deadline:
                if scheduler.status(key).state == JobState.RUNNING:
                    break
                time.sleep(0.01)
            assert scheduler.cancel(key) is True
            with pytest.raises(JobCancelledError):
                scheduler.result(key, timeout=10)
            assert scheduler.status(key).state == JobState.CANCELLED
            # The in-flight chunk finishes AFTER the cancel; its late
            # outcome must be ignored, not resurrect the job.
            time.sleep(1.0)
            assert scheduler.status(key).state == JobState.CANCELLED

    def test_cancel_is_idempotent_and_false_when_finished(self, tmp_path):
        store = ResultStore(directory=str(tmp_path / "store"))
        with Scheduler(workers=2, chunk_size=8, store=store) as scheduler:
            key = scheduler.submit(ghz_spec(trajectories=8))
            scheduler.result(key, timeout=60)
            assert scheduler.cancel(key) is False

    def test_cancelled_partial_checkpoint_resumes_cleanly(
        self, monkeypatch, tmp_path
    ):
        _slow_plan(monkeypatch, tmp_path, seconds=0.3)
        store_dir = str(tmp_path / "store")
        spec = ghz_spec(trajectories=64)
        with Scheduler(workers=2, chunk_size=8,
                       store=ResultStore(directory=store_dir)) as scheduler:
            key = scheduler.submit(spec)
            deadline = time.time() + 20
            while time.time() < deadline:
                if scheduler.status(key).completed_trajectories > 0:
                    break
                time.sleep(0.02)
            scheduler.cancel(key)
        # A cancel mid-run leaves a valid checkpoint; a fresh scheduler
        # resumes from it and completes with every trajectory accounted.
        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        store = ResultStore(directory=store_dir)
        checkpoint = store.get_partial(spec.job_key())
        assert checkpoint is not None
        spans, partial = checkpoint
        assert sum(count for _, count in spans) == partial.completed_trajectories
        with Scheduler(workers=2, chunk_size=8, store=store) as scheduler:
            result = scheduler.run(spec, timeout=60)
        assert result.completed_trajectories == spec.trajectories


class TestShutdownHygiene:
    def test_shutdown_with_queued_unstarted_jobs_leaves_no_stale_partials(
        self, monkeypatch, tmp_path
    ):
        # Two slow jobs saturate both workers; a third job is queued but
        # never dispatches a single chunk.  Shutdown must not write a
        # partial checkpoint for work that never produced anything.
        _slow_plan(monkeypatch, tmp_path, seconds=1.0, times=32)
        store = ResultStore(directory=str(tmp_path / "store"))
        scheduler = Scheduler(workers=1, chunk_size=8, store=store)
        try:
            running = scheduler.submit(ghz_spec(trajectories=64, seed=1))
            queued = scheduler.submit(ghz_spec(trajectories=64, seed=2))
            deadline = time.time() + 10
            while time.time() < deadline:
                if scheduler.status(running).state == JobState.RUNNING:
                    break
                time.sleep(0.01)
        finally:
            scheduler.shutdown()
        assert scheduler.status(queued).state == JobState.CANCELLED
        # The never-started job must have no partial entry on disk or in
        # memory — a stale zero-trajectory checkpoint would poison resume.
        fresh = ResultStore(directory=str(tmp_path / "store"))
        queued_key = ghz_spec(trajectories=64, seed=2).job_key()
        assert fresh.get_partial(queued_key) is None
        assert fresh.stats()["corrupt"] == 0

    def test_submit_after_shutdown_raises(self, tmp_path):
        scheduler = Scheduler(workers=1)
        scheduler.shutdown()
        with pytest.raises(SchedulerError, match="shut down"):
            scheduler.submit(ghz_spec())

    def test_shutdown_is_idempotent(self):
        scheduler = Scheduler(workers=1)
        scheduler.shutdown()
        scheduler.shutdown()


def _running(pid: int) -> bool:
    """True while ``pid`` runs; a zombie left for its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_scheduler_process_dies(tmp_path):
    """A scheduler's process that dies hard takes its workers with it.  A
    whole process-group kill (``repro chaos --kill-serve``) cannot show
    this: here only the scheduler's own process dies."""
    script = textwrap.dedent(
        """
        import os
        from repro.service import Scheduler

        if __name__ == "__main__":
            scheduler = Scheduler(workers=2)
            print(*(handle.process.pid for handle in scheduler._workers), flush=True)
            os._exit(1)
        """
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    out = tmp_path / "pids.txt"
    with open(out, "w", encoding="ascii") as handle:
        # A file, not a pipe: a worker that outlived the parent would hold
        # a pipe open and wedge the read.
        code = subprocess.run(
            [sys.executable, "-c", script], stdout=handle, env=env, timeout=60
        ).returncode
    assert code == 1
    pids = [int(pid) for pid in out.read_text(encoding="ascii").split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
