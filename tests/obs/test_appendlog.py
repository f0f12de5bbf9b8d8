"""One property suite for the three JSONL logs: the job journal and the run
ledger (both :class:`~repro.obs.appendlog.AppendLog`) and the event log.

Every log writes hypothesis-drawn record sequences through its public
API, and the suite checks the crash contract on the bytes it leaves:
truncation at any byte offset replays exactly the records before it, a
reopened log appends past a torn tail cleanly, and a failed or torn
append loses its own record and no other.
"""

import copy
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.obs.export import EventLogWriter, read_event_log
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger, ledger_path, replay_ledger
from repro.obs.metrics import MetricsRegistry
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    journal_path,
    replay_journal,
)

KEYS = ("a" * 64, "b" * 64)
FPS = ("c" * 16, "d" * 16)

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_small = st.integers(min_value=0, max_value=50)
_real = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_text = st.text(max_size=6)
_payload = st.dictionaries(st.sampled_from("xyz"), _small | _real | _text, max_size=3)


def _compact(record):
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()


# -- job journal -------------------------------------------------------------

_chunk = st.tuples(_small, _small, st.integers(min_value=1, max_value=9))


def _journal_record():
    job = st.sampled_from(KEYS)
    plan = st.fixed_dictionaries(
        {
            "rec": st.just("plan"),
            "job": job,
            "chunks": st.lists(_chunk.map(list), min_size=1, max_size=3),
            "base": st.lists(st.tuples(_small, _small).map(list), max_size=2),
        },
        optional={"base_result": _payload},
    )
    done = st.fixed_dictionaries(
        {
            "rec": st.just("job-done"),
            "job": job,
            "status": st.sampled_from(["completed", "failed", "cancelled"]),
        },
        optional={"error": _text},
    )
    return st.one_of(
        st.fixed_dictionaries({"rec": st.just("submit"), "job": job, "spec": _payload}),
        plan,
        st.fixed_dictionaries(
            {
                "rec": st.just("lease"),
                "job": job,
                "chunk": _small,
                "owner": _text,
                "token": _small,
                "deadline": _real,
            }
        ),
        st.fixed_dictionaries(
            {
                "rec": st.just("chunk-done"),
                "job": job,
                "chunk": _small,
                "first": _small,
                "count": _small,
                "token": _small,
                "result": _payload,
            }
        ),
        done,
    )


class Journal:
    name = "journal"
    record = _journal_record()
    header = _compact({"rec": "header", "schema": JOURNAL_SCHEMA})
    encode = staticmethod(_compact)
    path = staticmethod(journal_path)
    open = JobJournal

    @staticmethod
    def put(journal, record):
        kind, key = record["rec"], record["job"]
        if kind == "submit":
            journal.job_submitted(key, record["spec"])
        elif kind == "plan":
            journal.plan_recorded(
                key,
                [tuple(chunk) for chunk in record["chunks"]],
                [tuple(span) for span in record["base"]],
                base_result=record.get("base_result"),
            )
        elif kind == "lease":
            journal.lease_granted(
                key, record["chunk"], record["owner"], record["token"],
                record["deadline"],
            )
        elif kind == "chunk-done":
            journal.chunk_done(
                key, record["chunk"], record["first"], record["count"],
                record["token"], record["result"],
            )
        else:
            journal.job_done(key, record["status"], record.get("error"))

    @staticmethod
    def mirror(journal):
        jobs = {key: journal.job(key) for key in KEYS}
        return {key: copy.deepcopy(job) for key, job in jobs.items() if job}

    replay = staticmethod(replay_journal)

    @staticmethod
    def live(jobs):
        """What survives the open-time compaction: incomplete jobs."""
        return {key: job for key, job in jobs.items() if not job.done}


# -- run ledger --------------------------------------------------------------


def _ledger_record():
    fp = st.sampled_from(FPS)
    run = st.fixed_dictionaries(
        {
            "rec": st.just("run"),
            "job": st.sampled_from(KEYS),
            "fp": fp,
            "method": st.sampled_from(["exact", "stochastic"]),
            "qubits": _small,
            "depth": _small,
            "peak_nodes": _small,
            "cpu_seconds": _real,
            "elapsed_seconds": _real,
            "trajectories": _small,
            "effective_trajectories": _real,
            "trajectories_per_second": _real,
        },
        optional={
            "engine": st.sampled_from(["dd", "statevector"]),
            "p_clean": st.floats(min_value=0.0, max_value=1.0),
            "halfwidths": st.dictionaries(
                st.sampled_from(["P(0)", "F"]), _real, min_size=1
            ),
        },
    )
    fallback = st.fixed_dictionaries(
        {
            "rec": st.just("fallback"),
            "job": st.sampled_from(KEYS),
            "fp": fp,
            "nodes": _small,
            "ceiling": _small,
        }
    )
    return st.one_of(run, fallback)


def _ledger_view(aggregates, recent):
    """Aggregates plus recent windows; rotation's ``folded`` stamp dropped."""
    return {
        fp: (
            aggregate.to_dict(),
            [
                {k: v for k, v in record.items() if k != "folded"}
                for record in recent.get(fp, [])
            ],
        )
        for fp, aggregate in aggregates.items()
    }


class Ledger:
    name = "ledger"
    record = _ledger_record()
    header = _compact({"rec": "header", "schema": LEDGER_SCHEMA})
    encode = staticmethod(_compact)
    path = staticmethod(ledger_path)
    open = RunLedger

    @staticmethod
    def put(ledger, record):
        if record["rec"] == "fallback":
            ledger.record_fallback(
                record["job"], record["fp"], record["nodes"], record["ceiling"]
            )
            return
        fields = {k: v for k, v in record.items() if k not in ("rec", "job", "fp")}
        ledger.record_run(key=record["job"], fingerprint=record["fp"], **fields)

    @staticmethod
    def mirror(ledger):
        recent = {fp: ledger.recent(fp) for fp in FPS}
        return _ledger_view(ledger.aggregates(), recent)

    @staticmethod
    def replay(path):
        state = replay_ledger(path)
        return _ledger_view(state.aggregates, state.recent)

    @staticmethod
    def live(view):
        return view


# -- event log ---------------------------------------------------------------


class _EventWriter(EventLogWriter):
    """The event log keeps no mirror: remember what was written instead."""

    def __init__(self, path):
        super().__init__(path)
        self.written = []

    def write(self, event):
        super().write(event)
        self.written.append(dict(event))


class Events:
    name = "events"
    record = st.fixed_dictionaries(
        {"event": st.sampled_from(["job.start", "heartbeat", "job.done"])},
        optional={"n": _small, "x": _real, "job": _text},
    )
    header = b""
    path = staticmethod(lambda directory: os.path.join(directory, "events.jsonl"))
    open = _EventWriter
    replay = staticmethod(read_event_log)

    @staticmethod
    def encode(event):
        return (json.dumps(event, sort_keys=True) + "\n").encode()

    @staticmethod
    def put(writer, event):
        writer.write(event)

    @staticmethod
    def mirror(writer):
        return list(writer.written)


LOGS = [Journal, Ledger, Events]
APPEND_LOGS = [Journal, Ledger]


def _ids(log):
    return log.name


def _write(log, path, records, **options):
    """Write ``records`` through the log's API; the mirror after each one."""
    writer = log.open(path, **options)
    views = [log.mirror(writer)]
    for record in records:
        log.put(writer, record)
        views.append(log.mirror(writer))
    writer.close()
    return views


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class _StrikeAt:
    """Stands in for the fault injector: fires ``kind`` at its ``index``-th
    site check only (one check per append, no append shed)."""

    def __init__(self, kind, index):
        self.kind = kind
        self.index = index
        self.checks = 0

    def fire(self, kind, **site):
        if kind != self.kind:
            return None
        self.checks += 1
        return True if self.checks == self.index + 1 else None


@pytest.mark.parametrize("log", LOGS, ids=_ids)
@SETTINGS
@given(data=st.data())
def test_file_is_the_header_then_one_sorted_compact_line_per_record(log, data):
    records = data.draw(st.lists(log.record, max_size=6))
    with tempfile.TemporaryDirectory() as directory:
        path = log.path(directory)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write(log, path, records)
        expected = log.header + b"".join(log.encode(record) for record in records)
        assert _read(path) == expected


@pytest.mark.parametrize("log", LOGS, ids=_ids)
@SETTINGS
@given(data=st.data())
def test_truncation_at_every_offset_replays_the_complete_prefix(log, data):
    records = data.draw(st.lists(log.record, min_size=1, max_size=5))
    with tempfile.TemporaryDirectory() as directory:
        path = log.path(directory)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        views = _write(log, path, records)
        raw = _read(path)
        cut = path + ".cut"
        header_lines = log.header.count(b"\n")
        for offset in range(len(raw) + 1):
            with open(cut, "wb") as handle:
                handle.write(raw[:offset])
            complete = max(0, raw[:offset].count(b"\n") - header_lines)
            assert log.replay(cut) == views[complete], offset


@pytest.mark.parametrize("log", APPEND_LOGS, ids=_ids)
@SETTINGS
@given(data=st.data())
def test_a_truncated_log_reopens_and_appends_past_the_tear(log, data):
    records = data.draw(st.lists(log.record, min_size=1, max_size=5))
    extra = data.draw(log.record)
    with tempfile.TemporaryDirectory() as directory:
        path = log.path(directory)
        views = _write(log, path, records)
        raw = _read(path)
        # Every record boundary, the parseable cut just before each
        # newline, and a few drawn offsets (reopening is the slow part).
        ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
        drawn = data.draw(st.lists(st.integers(0, len(raw)), max_size=6))
        cut = path + ".cut"
        for offset in sorted({0, *ends, *(end - 1 for end in ends), *drawn}):
            with open(cut, "wb") as handle:
                handle.write(raw[:offset])
            complete = max(0, raw[:offset].count(b"\n") - 1)  # less the header
            # Reopening compacts the prefix; the next record lands on a
            # line of its own, so the file replays as prefix + record.
            with log.open(cut) as reopened:
                assert log.mirror(reopened) == log.live(views[complete])
                log.put(reopened, extra)
                expected = log.mirror(reopened)
            assert log.replay(cut) == expected, offset


@pytest.mark.parametrize("fault", ["enospc", "torn"])
@pytest.mark.parametrize("log", APPEND_LOGS, ids=_ids)
@SETTINGS
@given(data=st.data())
def test_a_failed_append_loses_its_own_record_only(log, fault, data):
    records = data.draw(st.lists(log.record, min_size=1, max_size=5))
    with tempfile.TemporaryDirectory() as directory:
        every = _write(log, os.path.join(directory, "all.jsonl"), records)[-1]
        for index in range(len(records)):
            others = records[:index] + records[index + 1 :]
            without = _write(log, os.path.join(directory, f"w{index}.jsonl"), others)
            path = os.path.join(directory, f"f{index}.jsonl")
            metrics = MetricsRegistry()
            strike = _StrikeAt(f"{fault}-{log.name}", index)
            with mock.patch(
                "repro.faults.inject.get_injector", return_value=strike
            ), mock.patch("repro.obs.appendlog.DEGRADED_COOLDOWN", 0.0):
                views = _write(log, path, records, metrics=metrics)
            # The mirror advanced past the failure; the file lost only it.
            assert views[-1] == every
            assert log.replay(path) == without[-1]
            errors = metrics.snapshot()["counters"][f"{log.name}.write.errors"]
            assert errors == (1 if fault == "enospc" else 0)


class TestTornAppendDoesNotPoisonTheNext:
    """A record appended after a torn one replays: the torn fragment is cut
    before the next append instead of gluing the two into one bad line."""

    @pytest.fixture(autouse=True)
    def _clean_injector(self, monkeypatch):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reset_injector_cache()
        yield
        reset_injector_cache()

    def _arm(self, monkeypatch, kind, operation):
        plan = FaultPlan(faults=(FaultSpec(kind=kind, operation=operation),))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()

    def test_journal(self, tmp_path, monkeypatch):
        self._arm(monkeypatch, "torn-journal", "chunk-done")
        wal = journal_path(str(tmp_path))
        with JobJournal(wal) as journal:
            journal.job_submitted(KEYS[0], {"trajectories": 8})
            journal.plan_recorded(KEYS[0], [(0, 0, 4), (1, 4, 4)], [])
            journal.chunk_done(KEYS[0], 0, 0, 4, 0, {"n": 4})  # torn
            journal.chunk_done(KEYS[0], 1, 4, 4, 1, {"n": 4})
        metrics = MetricsRegistry()
        jobs = replay_journal(wal, metrics)
        assert set(jobs[KEYS[0]].completed) == {1}
        assert "journal.replay.bad_skipped" not in metrics.snapshot()["counters"]

    def test_ledger(self, tmp_path, monkeypatch):
        self._arm(monkeypatch, "torn-ledger", "run")
        runs = ledger_path(str(tmp_path))
        with RunLedger(runs) as ledger:
            for method in ("stochastic", "exact"):  # the first is torn
                ledger.record_run(
                    KEYS[0], FPS[0], method, qubits=3, depth=4, peak_nodes=9,
                    cpu_seconds=0.5, elapsed_seconds=1.0, trajectories=10,
                    effective_trajectories=10.0, trajectories_per_second=10.0,
                )
        family = replay_ledger(runs).aggregates[FPS[0]]
        assert (family.runs, family.exact_runs) == (1, 1)
