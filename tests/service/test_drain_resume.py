"""Durable execution end to end: drain, resume, and restart bit-identity."""

import os
import signal
import subprocess
import time

import pytest

from repro.circuits.library import ghz
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.service.job import JobSpec
from repro.service.journal import (
    JobJournal,
    JournalJob,
    journal_path,
    replay_journal,
)
from repro.service.scheduler import Scheduler
from repro.service.serve import _journaled_checkpoint, enqueue_job, serve
from repro.service.store import ResultStore
from repro.stochastic import IdealFidelity
from repro.stochastic.results import StochasticResult
from repro.stochastic.runner import run_trajectory_span


def _spec(trajectories, num_qubits=3, seed=7, sample_shots=0):
    return JobSpec(
        circuit=ghz(num_qubits),
        noise_model=NoiseModel.paper_defaults(),
        properties=(IdealFidelity(),),
        trajectories=trajectories,
        seed=seed,
        backend_kind="dd",
        sample_shots=sample_shots,
    )


def _estimates(result):
    return {name: est.mean for name, est in result.estimates.items()}


#: The fields of a result that the spec alone determines.
DETERMINISTIC_FIELDS = (
    "estimates", "outcome_counts", "clean_outcome_counts", "errors_fired",
    "strata", "completed_trajectories", "backend_kind", "peak_nodes",
)


def _assert_same_bits(result, reference):
    for name in DETERMINISTIC_FIELDS:
        assert result.to_dict().get(name) == reference.to_dict().get(name), name


def _span_payload(spec, first, count):
    """The payload a chunk of ``spec`` over ``[first, first + count)`` commits."""
    return run_trajectory_span(
        spec.circuit, spec.noise_model, spec.properties, spec.backend_kind,
        first, count, spec.seed, sample_shots=spec.sample_shots,
    ).to_dict()


def _resume_serve(store_dir, chunk_size):
    assert serve(
        ResultStore(directory=store_dir), workers=1, once=True,
        chunk_size=chunk_size, resume=True, install_signal_handlers=False,
        log=lambda _: None,
    ) == 1


def _slow_all_chunks_plan(seconds):
    """Sleep-only latency on every chunk — widens windows, changes no value."""
    return FaultPlan(
        faults=(FaultSpec(kind="slow-chunk", seconds=seconds, times=1_000_000),),
        seed=0,
    )


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


class TestDrainResumeBitIdentity:
    def test_drain_midjob_then_journal_resume_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        spec = _spec(trajectories=40)

        # Uninterrupted reference through the same chunked pipeline.
        ref_store = ResultStore(directory=str(tmp_path / "ref"))
        with Scheduler(workers=2, store=ref_store, chunk_size=4) as scheduler:
            reference = scheduler.run(spec, timeout=120.0)
        assert reference.completed_trajectories == 40

        # Interrupted run: slow chunks, drain after the first commit.
        monkeypatch.setenv(PLAN_ENV, _slow_all_chunks_plan(0.2).to_json())
        reset_injector_cache()
        store_dir = str(tmp_path / "store")
        store = ResultStore(directory=store_dir)
        journal = JobJournal(journal_path(store_dir))
        scheduler = Scheduler(
            workers=2, store=store, chunk_size=4, journal=journal
        )
        try:
            key = scheduler.submit(spec)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                journaled = journal.job(key)
                if journaled is not None and journaled.completed:
                    break
                time.sleep(0.005)
            assert journal.job(key).completed, "no chunk committed in time"
            clean = scheduler.drain(timeout=10.0)
            assert clean, "in-flight chunks failed to land inside the drain"
        finally:
            scheduler.shutdown()
            journal.close()

        journaled = replay_journal(journal_path(store_dir))[key]
        assert not journaled.done
        assert 0 < len(journaled.completed) < len(journaled.plan)

        # Resume from the journal alone (fresh scheduler, no fault plan).
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reset_injector_cache()
        resume_journal = JobJournal(journal_path(store_dir))
        (incomplete,) = resume_journal.incomplete_jobs()
        with Scheduler(
            workers=2,
            store=ResultStore(directory=store_dir),
            chunk_size=4,
            journal=resume_journal,
        ) as scheduler:
            scheduler.submit(spec, _journaled_checkpoint(spec, incomplete))
            resumed = scheduler.result(key, timeout=120.0)
            assert resume_journal.incomplete_jobs() == []
        resume_journal.close()

        assert resumed.completed_trajectories == 40
        # Bit-identical, not merely close: same per-trajectory seeds and
        # exact estimate sums, whichever chunks committed before the drain.
        assert _estimates(resumed) == _estimates(reference)

    def test_resume_when_final_result_landed_before_the_crash(self, tmp_path):
        """Crash between store.put and the job-done record: the store wins."""
        spec = _spec(trajectories=8, num_qubits=2, seed=1)
        key = spec.job_key()
        store_dir = str(tmp_path)
        store = ResultStore(directory=store_dir)
        with Scheduler(workers=1, store=store, chunk_size=8) as scheduler:
            stored = scheduler.run(spec, timeout=120.0)
        # Forge the crash window: journal says incomplete, store says done.
        with JobJournal(journal_path(store_dir)) as journal:
            journal.job_submitted(key, spec.to_dict())
            journal.plan_recorded(key, [(0, 0, 8)], [])
        resume_journal = JobJournal(journal_path(store_dir))
        (incomplete,) = resume_journal.incomplete_jobs()
        assert incomplete.key == key
        with Scheduler(
            workers=1,
            store=ResultStore(directory=store_dir),
            journal=resume_journal,
        ) as scheduler:
            scheduler.submit(spec, _journaled_checkpoint(spec, incomplete))
            resumed = scheduler.result(key, timeout=30.0)
            # Answered by the cache — and the journal entry is settled.
            assert resume_journal.incomplete_jobs() == []
        resume_journal.close()
        assert _estimates(resumed) == _estimates(stored)

    def test_journal_resume_converges_with_prepopulated_results(self, tmp_path):
        """Replaying chunk results the store already merged stays idempotent:
        resuming with every chunk already committed recomputes nothing."""
        spec = _spec(trajectories=16, seed=2)
        key = spec.job_key()
        store_dir = str(tmp_path / "a")
        store = ResultStore(directory=store_dir)
        journal = JobJournal(journal_path(store_dir))
        with Scheduler(
            workers=2, store=store, chunk_size=4, journal=journal
        ) as scheduler:
            direct = scheduler.run(spec, timeout=120.0)
        journal.close()

        # Rebuild purely from journaled chunk results (ignore the store).
        journaled = replay_journal(journal_path(store_dir))[key]
        completed = {
            index: StochasticResult.from_dict(payload)
            for index, payload in journaled.completed.items()
        }
        assert len(completed) == len(journaled.plan)
        fresh_dir = str(tmp_path / "b")
        with Scheduler(
            workers=2, store=ResultStore(directory=fresh_dir), chunk_size=4
        ) as scheduler:
            scheduler.submit(spec, _journaled_checkpoint(spec, journaled))
            rebuilt = scheduler.result(key, timeout=30.0)
            assert scheduler.trajectories_executed == 0
        assert rebuilt.completed_trajectories == 16
        assert _estimates(rebuilt) == _estimates(direct)


class TestJournalLayouts:
    """Journals as earlier builds wrote them (each plan journaled with its
    base, committed chunks by plan index, a ``lease`` record per dispatched
    chunk, or one summary ``lease`` record once compacted) resume to the
    uninterrupted result, under a chunk plan of another size."""

    SPEC = _spec(trajectories=24, num_qubits=4, seed=3, sample_shots=2)

    def journal(self, store_dir, chunks, base, base_result, committed,
                compacted=False):
        spec, key = self.SPEC, self.SPEC.job_key()
        horizon = len(chunks) - 1  # the highest token granted
        with JobJournal(journal_path(store_dir)) as journal:
            journal.job_submitted(key, spec.to_dict())
            journal.plan_recorded(key, chunks, base, base_result)
            if compacted:
                journal.lease_granted(key, -1, "compaction", horizon, 0.0)
            for token, (index, first, count) in enumerate(chunks):
                if not compacted:
                    journal.lease_granted(key, index, "host:1", token, 99.0)
                if index in committed:
                    journal.chunk_done(
                        key, index, first, count,
                        horizon if compacted else token,
                        committed[index] or _span_payload(spec, first, count),
                    )

    @pytest.mark.parametrize(
        "layout",
        ["mid-job", "compacted", "over-a-base", "unparsable-base",
         "unparsable-chunk"],
    )
    def test_resume_gives_the_uninterrupted_bits(self, tmp_path, layout):
        spec = self.SPEC
        with Scheduler(workers=1) as scheduler:
            reference = scheduler.run(spec, timeout=120.0)
        store_dir = str(tmp_path)
        if layout in ("mid-job", "compacted"):
            chunks = [(i, 4 * i, 4) for i in range(6)]
            self.journal(
                store_dir, chunks, [], None, {1: None, 4: None},
                compacted=layout == "compacted",
            )
        else:
            # A plan laid over a checkpoint of the first 8 trajectories.
            base_result = (
                {"completed_trajectories": 8} if layout == "unparsable-base"
                else _span_payload(spec, 0, 8)
            )
            committed = {2: None}
            if layout == "unparsable-chunk":
                committed[0] = {"completed_trajectories": 4}
            chunks = [(i, 8 + 4 * i, 4) for i in range(4)]
            self.journal(store_dir, chunks, [(0, 8)], base_result, committed)
        _resume_serve(store_dir, chunk_size=5)
        resumed = ResultStore(directory=store_dir).get(spec.job_key())
        _assert_same_bits(resumed, reference)
        assert replay_journal(journal_path(store_dir))[spec.job_key()].done

    def test_a_planned_auto_job_resumes_on_sampling(self, tmp_path, monkeypatch):
        """An ``auto`` job the journal shows as planned was sampling: it
        resumes on sampling even with nothing committed, though the cost
        model (here forced) would now route a fresh submission exact."""
        spec = JobSpec.build(
            ghz(4), NoiseModel.paper_defaults(), (IdealFidelity(),),
            trajectories=40, seed=5, method="auto",
        )
        with JobJournal(journal_path(str(tmp_path))) as journal:
            journal.job_submitted(spec.job_key(), spec.to_dict())
            journal.plan_recorded(spec.job_key(), [(0, 0, 20), (1, 20, 20)], [])
        monkeypatch.setattr(
            Scheduler, "_resolve_method", lambda self, spec, job=None: "exact"
        )
        _resume_serve(str(tmp_path), chunk_size=10)
        resumed = ResultStore(directory=str(tmp_path)).get(spec.job_key())
        assert resumed.method == "stochastic"
        assert resumed.completed_trajectories == 40

    def test_unparsable_payloads_add_neither_spans_nor_trajectories(self):
        spec = self.SPEC
        journaled = JournalJob(
            spec.job_key(),
            plan=[(0, 8, 4), (1, 12, 4), (2, 16, 8)],
            base_spans=[(0, 8)],
            base_result={"completed_trajectories": 8},
            completed={0: {"bad": True}, 1: _span_payload(spec, 12, 4),
                       7: _span_payload(spec, 0, 4)},
        )
        spans, partial = _journaled_checkpoint(spec, journaled)
        assert spans == [(12, 4)]
        assert partial.completed_trajectories == 4


class TestResumeAfterResubmission:
    def test_journaled_commits_of_a_cancelled_run_are_not_restored(
        self, tmp_path, monkeypatch
    ):
        """Cancel after a chunk commits and resubmit in the same scheduler:
        the resubmission resumes the checkpoint under a new plan whose chunk
        indices name other spans.  A crash before any of its chunks commits
        must resume to the uninterrupted result, shot histograms and fired
        errors included, not restore the cancelled run's commits in their
        place."""
        spec = _spec(trajectories=16, num_qubits=6, seed=3, sample_shots=4)
        with Scheduler(workers=1, chunk_size=4) as scheduler:
            reference = scheduler.run(spec, timeout=120.0)

        monkeypatch.setenv(PLAN_ENV, _slow_all_chunks_plan(0.2).to_json())
        reset_injector_cache()
        store_dir = str(tmp_path / "store")
        journal = JobJournal(journal_path(store_dir))
        scheduler = Scheduler(
            workers=1, store=ResultStore(directory=store_dir), chunk_size=4,
            journal=journal,
        )
        try:
            key = scheduler.submit(spec)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not journal.job(key).completed:
                time.sleep(0.005)
            # Drained, the scheduler lands what is in flight and then
            # dispatches nothing: the resubmission plans but never runs.
            assert scheduler.drain(timeout=10.0)
            assert scheduler.cancel(key)
            scheduler.submit(spec)
        finally:
            scheduler.shutdown()  # the crash: no job-done record
            journal.close()
        journaled = replay_journal(journal_path(store_dir))[key]
        assert journaled.base_spans and not journaled.done
        # The new plan's chunk 0 starts where the cancelled run stopped.
        assert journaled.plan[0][:2] == (
            0, sum(count for _, count in journaled.base_spans)
        )

        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        _resume_serve(store_dir, chunk_size=4)
        _assert_same_bits(ResultStore(directory=store_dir).get(key), reference)


class TestSignalDrain:
    def test_sigterm_drains_with_exit_zero_and_resume_finishes(self, tmp_path):
        from repro.faults.chaos import _SERVE_SNIPPET, _serve_subprocess_env
        import sys as _sys

        spec = _spec(trajectories=100, seed=11)
        store_dir = str(tmp_path / "store")
        events = str(tmp_path / "events.jsonl")
        key, cached = enqueue_job(ResultStore(directory=store_dir), spec)
        assert not cached

        plan_json = _slow_all_chunks_plan(0.1).to_json()
        proc = subprocess.Popen(
            [_sys.executable, "-c", _SERVE_SNIPPET,
             store_dir, "2", "4", events, "0"],
            env=_serve_subprocess_env(plan_json),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            wal = journal_path(store_dir)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    with open(wal, "rb") as handle:
                        if handle.read().count(b'"chunk-done"') >= 1:
                            break
                except OSError:
                    pass
                time.sleep(0.005)
            assert proc.poll() is None, "serve finished before SIGTERM"
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr.decode(errors="replace")

        journaled = replay_journal(journal_path(store_dir))[key]
        assert not journaled.done
        assert journaled.completed  # the drained chunks were not lost

        from repro.obs.export import read_event_log

        names = [event.get("event") for event in read_event_log(events)]
        assert "serve.start" in names
        assert "serve.drain" in names

        # A --resume restart completes the job bit-identically to an
        # uninterrupted serve pass over the same spec.
        ref_dir = str(tmp_path / "ref")
        enqueue_job(ResultStore(directory=ref_dir), spec)
        assert serve(
            ResultStore(directory=ref_dir), workers=2, once=True,
            chunk_size=4, install_signal_handlers=False, log=lambda _: None,
        ) == 1
        reference = ResultStore(directory=ref_dir).get(key)

        assert serve(
            ResultStore(directory=store_dir), workers=2, once=True,
            chunk_size=4, resume=True, install_signal_handlers=False,
            log=lambda _: None,
        ) == 1
        resumed = ResultStore(directory=store_dir).get(key)
        assert resumed is not None
        assert resumed.completed_trajectories == 100
        assert _estimates(resumed) == _estimates(reference)
        # Nothing left to resume.
        assert [
            j for j in replay_journal(journal_path(store_dir)).values()
            if not j.done
        ] == []


class TestKillServeScenario:
    def test_sigkill_resume_is_bit_identical(self):
        from repro.faults.chaos import run_kill_serve

        report = run_kill_serve(
            seed=5,
            trajectories=96,
            num_qubits=3,
            workers=2,
            chunk_size=4,
            slow_chunk_seconds=0.05,
        )
        assert report.ok, "\n" + report.render()
