"""End-to-end CLI tests: submit → serve → status/result → cached resubmit."""

import os
import threading

import pytest

from repro.circuits.library import ghz
from repro.cli import main
from repro.noise import NoiseModel
from repro.obs.export import read_event_log
from repro.service import JobSpec, ResultStore, query_status
from repro.service.job import JobState
from repro.service.journal import JobJournal, journal_path
from repro.stochastic.results import StochasticResult

GHZ_QASM = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "circuits", "ghz_n8.qasm"
)


def submit(store_dir, capsys, extra=()):
    exit_code = main(
        [
            "submit", GHZ_QASM, "-M", "40", "--seed", "4",
            "--probability", "00000000", "--probability", "11111111",
            "--store", store_dir, *extra,
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    return output.splitlines()[0].strip(), output


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro-sim" in capsys.readouterr().out


class TestSubmitServeRoundTrip:
    def test_full_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        key, output = submit(store_dir, capsys)
        assert len(key) == 64
        assert "queued" in output

        # Before serving: the job is visible as queued.
        assert main(["status", key[:12], "--store", store_dir]) == 0
        assert "[queued]" in capsys.readouterr().out

        # result without --wait reports not-ready.
        assert main(["result", key[:12], "--store", store_dir]) == 1
        capsys.readouterr()

        # Drain the queue with the batch runner.
        assert main(
            ["serve", "--once", "-w", "2", "--chunk-size", "5",
             "--store", store_dir]
        ) == 0
        serve_output = capsys.readouterr().out
        assert "processed 1 job(s)" in serve_output

        # Status now shows completion with estimates.
        assert main(["status", key[:12], "--store", store_dir]) == 0
        status_output = capsys.readouterr().out
        assert "[completed]" in status_output
        assert "40/40" in status_output
        assert "P(|00000000>)" in status_output

        # Full result renders the standard summary.
        assert main(["result", key[:12], "--store", store_dir]) == 0
        result_output = capsys.readouterr().out
        assert "trajectories: 40/40" in result_output
        assert "P(|11111111>)" in result_output

    def test_resubmission_is_answered_by_cache(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        key, _ = submit(store_dir, capsys)
        main(["serve", "--once", "--store", store_dir])
        capsys.readouterr()

        key_again, output = submit(store_dir, capsys)
        assert key_again == key
        assert "cache hit" in output
        # Nothing was re-queued, so another serve pass finds no work.
        assert main(["serve", "--once", "--store", store_dir]) == 0
        assert "processed 0 job(s)" in capsys.readouterr().out

    def test_job_done_reports_the_chunk_plan(self, tmp_path, capsys):
        """The first job of a circuit family is cut 8 ways per worker; the
        next one, in a later serve pass, is sized from the run ledger."""
        store_dir = str(tmp_path / "store")
        done = []
        for seed in ("7", "8"):
            assert main(["submit", "ghz:10", "-M", "200", "--seed", seed,
                         "--fidelity", "--store", store_dir]) == 0
            events = str(tmp_path / f"events-{seed}.jsonl")
            assert main(["serve", "--once", "-w", "2", "--store", store_dir,
                         "--events-log", events]) == 0
            done += [e for e in read_event_log(events) if e["event"] == "job.done"]
        capsys.readouterr()
        first, second = done
        assert (first["chunking"], first["chunks"]) == ("default", 16)
        assert second["chunking"] == "measured"
        assert second["chunks"] < 16
        assert first["completed"] == second["completed"] == 200

    def test_streaming_estimates_visible_while_serving(self, tmp_path, capsys):
        """A status poller in a separate thread (standing in for a separate
        process) observes RUNNING checkpoints while `serve` executes."""
        store_dir = str(tmp_path)
        exit_code = main(
            ["submit", "ghz:12", "-M", "30", "--seed", "2", "--shots", "0",
             "--probability", "0" * 12, "--store", store_dir]
        )
        assert exit_code == 0
        key = capsys.readouterr().out.splitlines()[0].strip()

        store = ResultStore(directory=store_dir)
        seen = []
        done = threading.Event()

        def poll():
            while not done.is_set():
                try:
                    status = query_status(store, key)
                except KeyError:
                    continue
                seen.append(
                    (status.state, status.completed_trajectories,
                     dict(status.estimates))
                )

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            assert main(
                ["serve", "--once", "-w", "2", "--chunk-size", "1",
                 "--store", store_dir]
            ) == 0
        finally:
            done.set()
            poller.join(timeout=30)
        capsys.readouterr()

        partial = [
            entry for entry in seen
            if entry[0] == JobState.RUNNING and 0 < entry[1] < 30
        ]
        assert partial, "no streaming (mid-run) status was observed"
        # The streaming snapshot carries a live Hoeffding estimate.
        state, count, estimates = partial[-1]
        estimate = estimates["P(|000000000000>)"]
        assert estimate.count == count
        assert estimate.halfwidth > 0

    def test_a_timed_out_job_reads_as_ended(self, tmp_path, capsys):
        """The deadline cuts the job short with no final result: status and
        monitor read its checkpoint as COMPLETED with its partial count,
        never as a job still running."""
        store_dir = str(tmp_path)
        assert main(
            ["submit", "ghz:14", "-M", "200000", "--timeout", "1.0",
             "--seed", "3", "--fidelity", "--shots", "0", "--store", store_dir]
        ) == 0
        key = capsys.readouterr().out.splitlines()[0].strip()
        assert main(["serve", "--once", "-w", "2", "--store", store_dir]) == 0
        capsys.readouterr()

        status = query_status(ResultStore(directory=store_dir), key)
        assert status.state == JobState.COMPLETED
        assert 0 < status.completed_trajectories < 200000
        assert main(["status", key[:12], "--store", store_dir]) == 0
        output = capsys.readouterr().out
        assert "[completed]" in output
        assert "[running]" not in output
        assert main(
            ["monitor", key[:12], "--interval", "0.1", "--max-seconds", "3",
             "--store", store_dir]
        ) == 0
        assert "timed out" not in capsys.readouterr().out

    def test_unknown_key_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="no job"):
            main(["status", "beef", "--store", str(tmp_path)])


class TestStatusFromDisk:
    """Only a key the journal shows incomplete reads RUNNING.  A store
    partial is a run that ended short: it reads as the journal recorded
    that end while it holds the job, else COMPLETED when the deadline cut
    it short, else FAILED."""

    SPEC = JobSpec.build(ghz(3), NoiseModel.paper_defaults(), (), trajectories=16)

    @pytest.mark.parametrize(
        "ended, error, timed_out, state",
        [
            ("failed", "chunk 1 failed after 3 attempts (boom)", False,
             JobState.FAILED),
            ("cancelled", None, False, JobState.CANCELLED),
            ("completed", None, True, JobState.COMPLETED),
            (None, None, True, JobState.COMPLETED),
            (None, None, False, JobState.FAILED),
        ],
    )
    def test_a_partial_reads_as_its_run_ended(
        self, tmp_path, ended, error, timed_out, state
    ):
        spec, key = self.SPEC, self.SPEC.job_key()
        store = ResultStore(directory=str(tmp_path))
        partial = StochasticResult(spec.circuit.name, spec.backend_kind, 16)
        partial.completed_trajectories = 8
        partial.timed_out = timed_out
        store.put_partial(key, [(0, 8)], partial)
        if ended is not None:
            with JobJournal(journal_path(str(tmp_path))) as journal:
                journal.job_submitted(key, spec.to_dict())
                journal.plan_recorded(key, [(0, 0, 8), (1, 8, 8)], [])
                journal.job_done(key, ended, error)
        status = query_status(store, key)
        assert (status.state, status.error) == (state, error)
        assert status.completed_trajectories == 8

    def test_a_job_only_the_journal_knows_reads_as_running(self, tmp_path, capsys):
        """A job submitted straight to a scheduler (not spooled) is on disk
        only as its journal entry while it runs: status finds it there."""
        spec, key = self.SPEC, self.SPEC.job_key()
        chunk = StochasticResult(spec.circuit.name, spec.backend_kind, 16)
        chunk.completed_trajectories = 8
        with JobJournal(journal_path(str(tmp_path))) as journal:
            journal.job_submitted(key, spec.to_dict())
            journal.plan_recorded(key, [(0, 0, 8), (1, 8, 8)], [])
            journal.chunk_done(key, 0, 0, 8, 0, chunk.to_dict())
        assert main(["status", key[:12], "--store", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "[running]" in output
        assert "8/16" in output


class TestCacheCommand:
    def test_show_and_clear(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        key, _ = submit(store_dir, capsys)
        main(["serve", "--once", "--store", store_dir])
        capsys.readouterr()

        assert main(["cache", "show", "--store", store_dir]) == 0
        shown = capsys.readouterr().out
        assert "final results: 1" in shown
        assert key[:16] in shown
        assert "ghz_n8" in shown

        assert main(["cache", "clear", "--store", store_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "show", "--store", store_dir]) == 0
        assert "final results: 0" in capsys.readouterr().out


class TestJobsCommand:
    def test_empty_store_reports_nothing_resumable(self, tmp_path, capsys):
        assert main(["jobs", "--store", str(tmp_path)]) == 0
        assert "no resumable work" in capsys.readouterr().out

    def test_queued_and_journaled_work_is_listed(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        key, _ = submit(store_dir, capsys)
        assert main(["jobs", "--store", store_dir]) == 0
        listing = capsys.readouterr().out
        assert key[:16] in listing
        assert "[queued]" in listing
        assert "serve --once --resume" in listing

        # A journal entry takes precedence over the queue row for its key.
        from repro.service.journal import JobJournal, journal_path

        with JobJournal(journal_path(store_dir)) as journal:
            journal.job_submitted(key, {"circuit_name": "ghz-8",
                                        "trajectories": 40})
            journal.plan_recorded(key, [(0, 0, 20), (1, 20, 20)], [])
            journal.chunk_done(key, 0, 0, 20, 0,
                               {"completed_trajectories": 20})
        assert main(["jobs", "--json", "--store", store_dir]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        (row,) = [r for r in payload["jobs"] if r["key"] == key]
        assert row["source"] == "journal"
        assert row["completed_chunks"] == 1
        assert row["planned_chunks"] == 2

    def test_serve_accepts_resume_and_drain_flags(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        assert main(
            ["serve", "--once", "--resume", "--drain-timeout", "2",
             "--store", store_dir]
        ) == 0
        assert "processed 0 job(s)" in capsys.readouterr().out
