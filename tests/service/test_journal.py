"""Write-ahead job journal: replay idempotency, torn tails, compaction."""

import json
import os

import pytest

from repro.circuits.library import ghz
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.obs.metrics import MetricsRegistry
from repro.service import JobSpec, ResultStore, list_jobs
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    journal_path,
    replay_journal,
)
from repro.stochastic.results import StochasticResult

KEY = "a" * 64
OTHER = "b" * 64


def _result_payload(first, count):
    """A stand-in chunk-result payload (replay never parses it)."""
    return {"completed_trajectories": count, "first": first}


#: A real spec for the progress fold (the stand-in payloads above do not
#: parse, so the fold skips them).
SPEC = JobSpec.build(ghz(3), NoiseModel.paper_defaults(), (), trajectories=16)


def _ran(trajectories, timed_out=False):
    """A parseable chunk or base payload that ran ``trajectories``."""
    result = StochasticResult(SPEC.circuit.name, SPEC.backend_kind, 16)
    result.completed_trajectories = trajectories
    result.timed_out = timed_out
    return result.to_dict()


def _populate(journal, key=KEY, chunks=2):
    journal.job_submitted(key, {"circuit_name": "ghz-3", "trajectories": 8})
    plan = [(i, 4 * i, 4) for i in range(chunks)]
    journal.plan_recorded(key, plan, [])
    for i in range(chunks):
        journal.lease_granted(key, i, "host:1", i, 99.0)
        journal.chunk_done(key, i, 4 * i, 4, i, _result_payload(4 * i, 4))
    return plan


@pytest.fixture
def wal(tmp_path):
    return journal_path(str(tmp_path))


class TestReplayIdempotency:
    def test_replay_twice_yields_identical_state(self, wal):
        with JobJournal(wal) as journal:
            _populate(journal)
        first = replay_journal(wal)
        second = replay_journal(wal)
        assert first.keys() == second.keys() == {KEY}
        assert first[KEY].plan == second[KEY].plan == [(0, 0, 4), (1, 4, 4)]
        assert first[KEY].completed == second[KEY].completed
        assert not first[KEY].done

    def test_records_are_absorbing(self, wal):
        """Duplicate chunk-done / job-done records fold to the same state."""
        with JobJournal(wal) as journal:
            _populate(journal, chunks=1)
            journal.chunk_done(KEY, 0, 0, 4, 0, _result_payload(0, 4))
            journal.job_done(KEY, "completed")
            journal.job_done(KEY, "completed")
        jobs = replay_journal(wal)
        # The open-time compaction of a *new* journal drops the finished job.
        with JobJournal(wal) as reopened:
            assert reopened.incomplete_jobs() == []
        assert jobs == {} or jobs[KEY].done

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay_journal(str(tmp_path / "nope" / "wal.jsonl")) == {}

    def test_a_plan_starts_a_fresh_chunk_set(self, wal):
        """A resubmission's plan reuses chunk indices for other spans: the
        earlier plan's commits must not stand in for its chunks."""
        with JobJournal(wal) as journal:
            _populate(journal)
            journal.job_done(KEY, "cancelled")
            journal.job_submitted(KEY, {"circuit_name": "ghz-3", "trajectories": 16})
            journal.plan_recorded(
                KEY, [(0, 8, 4), (1, 12, 4)], [(0, 4), (4, 4)],
                base_result=_ran(8),
            )
        job = replay_journal(wal)[KEY]
        assert not job.done
        assert job.plan == [(0, 8, 4), (1, 12, 4)]
        assert job.completed == {}
        spans, partial = job.checkpoint(SPEC)
        assert spans == [(0, 4), (4, 4)]
        assert partial.completed_trajectories == 8


class TestListedProgress:
    def test_a_timed_out_chunk_lists_only_what_it_ran(self, tmp_path):
        """``repro jobs`` counts what committed chunks ran, not their
        planned spans: a chunk the deadline cut to 0 trajectories adds 0."""
        key = SPEC.job_key()
        with JobJournal(journal_path(str(tmp_path))) as journal:
            journal.job_submitted(key, SPEC.to_dict())
            journal.plan_recorded(key, [(0, 0, 8), (1, 8, 8)], [])
            journal.chunk_done(key, 0, 0, 8, 0, _ran(0, timed_out=True))
        (row,) = list_jobs(ResultStore(directory=str(tmp_path)))
        assert row["source"] == "journal"
        assert row["completed_chunks"] == 1
        assert row["completed_trajectories"] == 0
        assert row["engine"] == SPEC.backend_kind


class TestTornTail:
    def test_truncated_final_record_is_skipped(self, wal):
        with JobJournal(wal) as journal:
            _populate(journal)
        with open(wal, "rb") as handle:
            raw = handle.read()
        lines = raw.rstrip(b"\n").split(b"\n")
        torn = b"\n".join(lines[:-1]) + b"\n" + lines[-1][: len(lines[-1]) // 2]
        with open(wal, "wb") as handle:
            handle.write(torn)
        metrics = MetricsRegistry()
        jobs = replay_journal(wal, metrics)
        # The second chunk-done was torn: only chunk 0 replays as committed.
        assert set(jobs[KEY].completed) == {0}
        assert metrics.snapshot()["counters"]["journal.replay.torn_skipped"] == 1

    def test_unterminated_but_parseable_tail_is_skipped(self, wal):
        """A tail that happens to parse is still untrusted without its \\n."""
        with JobJournal(wal) as journal:
            _populate(journal, chunks=1)
        record = json.dumps(
            {"rec": "job-done", "job": KEY, "status": "completed"},
            separators=(",", ":"),
        )
        with open(wal, "ab") as handle:
            handle.write(record.encode("utf-8"))  # no trailing newline
        jobs = replay_journal(wal)
        assert not jobs[KEY].done

    def test_bad_interior_line_is_skipped(self, wal):
        with JobJournal(wal) as journal:
            _populate(journal, chunks=1)
        with open(wal, "rb") as handle:
            lines = handle.read().rstrip(b"\n").split(b"\n")
        lines.insert(2, b"\x00garbage not json\x00")
        with open(wal, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")
        metrics = MetricsRegistry()
        jobs = replay_journal(wal, metrics)
        assert set(jobs[KEY].completed) == {0}
        assert metrics.snapshot()["counters"]["journal.replay.bad_skipped"] == 1

    def test_open_time_compaction_removes_torn_tail(self, wal):
        with JobJournal(wal) as journal:
            _populate(journal)
        with open(wal, "r+b") as handle:
            size = os.path.getsize(wal)
            handle.truncate(size - 7)
        with JobJournal(wal) as reopened:
            jobs = reopened.incomplete_jobs()
            assert len(jobs) == 1 and set(jobs[0].completed) == {0}
        # After the atomic rotation the file is fully newline-terminated.
        with open(wal, "rb") as handle:
            raw = handle.read()
        assert raw.endswith(b"\n")
        assert json.loads(raw.split(b"\n")[0])["schema"] == JOURNAL_SCHEMA


class TestCompaction:
    def test_finished_jobs_are_dropped_incomplete_kept(self, wal):
        with JobJournal(wal) as journal:
            _populate(journal, key=OTHER, chunks=1)
            journal.job_done(OTHER, "completed")
            _populate(journal)
        with JobJournal(wal) as reopened:
            assert [j.key for j in reopened.incomplete_jobs()] == [KEY]
        with open(wal, "rb") as handle:
            raw = handle.read()
        assert OTHER.encode() not in raw
        assert KEY.encode() in raw

    def test_rotation_preserves_plan_and_base_and_drops_leases(self, wal):
        """Journals of older builds hold ``lease`` records: replay ignores
        them and a rotation does not carry them over."""
        with JobJournal(wal) as journal:
            journal.job_submitted(KEY, {"trajectories": 12})
            journal.plan_recorded(
                KEY, [(0, 4, 4), (1, 8, 4)], [(0, 4)],
                base_result={"completed_trajectories": 4},
            )
            journal.lease_granted(KEY, 1, "host:1", 7, 99.0)
            journal.chunk_done(KEY, 0, 4, 4, 2, _result_payload(4, 4))
        with JobJournal(wal) as reopened:
            (job,) = reopened.incomplete_jobs()
            assert job.plan == [(0, 4, 4), (1, 8, 4)]
            assert job.base_spans == [(0, 4)]
            assert job.base_result == {"completed_trajectories": 4}
            assert set(job.completed) == {0}
        with open(wal, "rb") as handle:
            kinds = [json.loads(line)["rec"] for line in handle]
        assert kinds == ["header", "submit", "plan", "chunk-done"]


class TestFaultSites:
    @pytest.fixture(autouse=True)
    def _clean_injector(self, monkeypatch):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reset_injector_cache()
        yield
        reset_injector_cache()

    def _arm(self, monkeypatch, kind):
        plan = FaultPlan(
            faults=(FaultSpec(kind=kind, operation="chunk-done"),), seed=0
        )
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()

    def test_enospc_journal_degrades_but_mirror_advances(
        self, wal, monkeypatch
    ):
        self._arm(monkeypatch, "enospc-journal")
        with JobJournal(wal) as journal:
            journal.job_submitted(KEY, {"trajectories": 8})
            journal.plan_recorded(KEY, [(0, 0, 4), (1, 4, 4)], [])
            journal.chunk_done(KEY, 0, 0, 4, 0, _result_payload(0, 4))  # ENOSPC
            assert journal.degraded
            journal.chunk_done(KEY, 1, 4, 4, 1, _result_payload(4, 4))  # shed
            counters = journal.metrics.snapshot()["counters"]
            assert counters["journal.write.errors"] == 1
            assert counters["journal.degraded.skipped"] == 1
            # The running process stays correct: the mirror has both chunks.
            assert set(journal.job(KEY).completed) == {0, 1}
        # Crash durability for the shed records is what was lost.
        assert replay_journal(wal)[KEY].completed == {}

    def test_torn_journal_fault_tears_the_tail(self, wal, monkeypatch):
        self._arm(monkeypatch, "torn-journal")
        with JobJournal(wal) as journal:
            journal.job_submitted(KEY, {"trajectories": 4})
            journal.plan_recorded(KEY, [(0, 0, 4)], [])
            journal.chunk_done(KEY, 0, 0, 4, 0, _result_payload(0, 4))
        jobs = replay_journal(wal)
        # The chunk-done record was cut mid-line: submit/plan survive.
        assert jobs[KEY].plan == [(0, 0, 4)]
        assert jobs[KEY].completed == {}
