"""Crash-safe write-ahead job journal (``repro.journal/v1``).

The journal is the durable record of what the service *was doing*, and
the one record of a running job's progress: an append-only JSONL file
under the store directory where the scheduler logs every job
submission, chunk plan, committed chunk result, and job completion.
After a hard death (``kill -9``, power loss, OOM), resubmitting an
incomplete job folds its journaled progress — the base its current chunk
plan was laid over and the chunk results of that plan that already
committed (:meth:`JournalJob.checkpoint`) — into one checkpoint and
plans only the missing trajectory spans afresh.  Because per-trajectory
seeds derive from absolute trajectory indices and estimate sums are
exact, the resumed result is **bit-identical** to an uninterrupted run
no matter which chunks had completed when the process died, and under
whatever plan the rest runs.

Durability is the :class:`~repro.obs.appendlog.AppendLog` contract:
every record is flushed and ``fsync``'d before the append returns, so a
committed chunk result can never be lost to the page cache; replay
skips a torn trailing record (``journal.replay.torn_skipped``) and
undecodable interior lines (``journal.replay.bad_skipped``); a torn or
failed append never takes the next record with it; compaction is
atomic; and an ``ENOSPC`` sheds appends for a cooldown
(``journal.write.errors`` / ``journal.degraded.skipped``) rather than
killing the service — resume granularity is lost before results are
(see docs/ROBUSTNESS.md "Durability & restart semantics").  Compaction
keeps only the records of incomplete jobs.

Record taxonomy (one JSON object per line, ``"rec"`` discriminates):

==============  =========================================================
``header``      ``{"rec","schema"}`` — first line after creation/rotation
``submit``      ``{"rec","job","spec"}`` — full canonical JobSpec dict
``plan``        ``{"rec","job","chunks":[[i,first,count]..],"base":[..],
                "base_result"?}``
``lease``       ``{"rec","job","chunk","owner","token","deadline"}`` — no
                longer written; journals of older builds hold one per
                dispatched chunk, and replay ignores them
``chunk-done``  ``{"rec","job","chunk","first","count","token","result"}``
                — ``first``/``count`` are the planned span (the result's
                ``completed_trajectories`` says how much of it ran);
                ``token`` is the dispatch's fencing token, -1 once
                compacted
``job-done``    ``{"rec","job","status","error"?}``
==============  =========================================================

Fault-injection sites (see :mod:`repro.faults`): ``torn-journal`` and
``enospc-journal``, both matching on ``operation=<record type>``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.appendlog import AppendLog, fold, read_log, read_records
from ..obs.metrics import MetricsRegistry
from ..stochastic.results import StochasticResult
from .job import JobSpec

__all__ = [
    "JOURNAL_SCHEMA",
    "JobJournal",
    "JournalJob",
    "journal_path",
    "replay_journal",
]

#: Journal record schema; bump when the record layout changes.
JOURNAL_SCHEMA = "repro.journal/v1"

#: Default compaction threshold: rotate once the file outgrows this.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024

#: Seconds the journal sheds writes after a failed append (ENOSPC etc.).
DEFAULT_DEGRADED_COOLDOWN = 5.0

Span = Tuple[int, int]
ChunkPlanEntry = Tuple[int, int, int]  #: (chunk_index, first, count)


def journal_path(store_directory: str) -> str:
    """Canonical journal location inside a store directory."""
    return os.path.join(store_directory, "journal", "wal.jsonl")


@dataclass
class JournalJob:
    """Replayed state of one journaled job."""

    key: str
    spec_dict: Optional[Dict[str, object]] = None
    #: Latest chunk plan: (index, first_trajectory, num_trajectories).
    plan: List[ChunkPlanEntry] = field(default_factory=list)
    #: Checkpoint spans the plan was laid over (empty for fresh jobs —
    #: only a job that itself resumed from a checkpoint has a base).
    base_spans: List[Span] = field(default_factory=list)
    #: The checkpoint partial the plan was laid over (result payload
    #: dict): the trajectories of ``base_spans``, which the plan's chunks
    #: do not run again.
    base_result: Optional[Dict[str, object]] = None
    #: Committed chunk results of the latest plan, by chunk index
    #: (payload dicts).
    completed: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: Terminal status ("completed" / "failed" / "cancelled"), or None
    #: while the job is still incomplete — the resumable set.
    status: Optional[str] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.status is not None

    def checkpoint(self, spec: JobSpec) -> Tuple[List[Span], StochasticResult]:
        """The job's progress as one checkpoint of ``spec``: the base its
        plan was laid over and its committed chunks, folded into (spans,
        partial).  A committed chunk covers the trajectories it ran, from
        its first one: a timed-out chunk only its ``completed_trajectories``.
        A payload that does not parse adds neither, so its trajectories run
        again."""
        firsts = {index: first for index, first, _ in self.plan}
        parts = [(None, self.base_result)] + [
            (firsts[index], payload)
            for index, payload in sorted(self.completed.items())
            if index in firsts
        ]
        spans: List[Span] = []
        partial = StochasticResult(
            spec.circuit.name, spec.backend_kind, spec.trajectories
        )
        for first, payload in parts:
            try:
                result = StochasticResult.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                continue  # absent (a base-less plan) or unparsable
            partial.merge(result)
            if first is None:
                spans.extend(self.base_spans)
            else:
                spans.append((first, result.completed_trajectories))
        return spans, partial

    def planned_trajectories(self) -> int:
        return (
            sum(count for _, _, count in self.plan)
            + sum(count for _, count in self.base_spans)
        )


class _ReplayState:
    """Shared record-folding logic for replay and the live mirror."""

    def __init__(self) -> None:
        self.jobs: Dict[str, JournalJob] = {}
        self.order: List[str] = []

    def _job(self, key: str) -> JournalJob:
        job = self.jobs.get(key)
        if job is None:
            job = JournalJob(key=key)
            self.jobs[key] = job
            self.order.append(key)
        return job

    def apply(self, record: Dict[str, object]) -> None:
        kind = record.get("rec")
        if kind == "header" or not isinstance(record.get("job"), str):
            return
        key = str(record["job"])
        if kind == "submit":
            job = self._job(key)
            spec = record.get("spec")
            if isinstance(spec, dict):
                job.spec_dict = spec
            # A resubmission of a finished key starts a fresh lifecycle.
            job.status = None
            job.error = None
        elif kind == "plan":
            job = self._job(key)
            chunks = record.get("chunks")
            if isinstance(chunks, list):
                job.plan = [
                    (int(index), int(first), int(count))
                    for index, first, count in chunks
                ]
            base = record.get("base")
            if isinstance(base, list):
                job.base_spans = [(int(f), int(c)) for f, c in base]
            base_result = record.get("base_result")
            job.base_result = base_result if isinstance(base_result, dict) else None
            # A plan starts a fresh chunk set: an earlier plan's committed
            # chunks are in this plan's base or run again, and their indices
            # may name other spans now.
            job.completed = {}
        elif kind == "chunk-done":
            job = self._job(key)
            result = record.get("result")
            if isinstance(result, dict):
                job.completed[int(record["chunk"])] = result
        elif kind == "job-done":
            job = self._job(key)
            job.status = str(record.get("status", "completed"))
            error = record.get("error")
            job.error = None if error is None else str(error)

    def incomplete(self) -> List[JournalJob]:
        return [self.jobs[key] for key in self.order if not self.jobs[key].done]


def replay_journal(
    path: str, metrics: Optional[MetricsRegistry] = None
) -> Dict[str, JournalJob]:
    """Replay a journal file read-only; returns job state by key.

    Missing files replay to an empty state.  Replaying the same journal
    any number of times yields the same state (records are absorbing:
    ``chunk-done`` for an already-completed chunk and repeated
    ``job-done`` records are no-ops).
    """
    return fold(_ReplayState, read_records(read_log(path), metrics, "journal")).jobs


def _live_records(state: _ReplayState) -> List[Dict[str, object]]:
    """The records a rotation keeps: those of incomplete jobs."""
    records: List[Dict[str, object]] = []
    for job in state.incomplete():
        if job.spec_dict is not None:
            records.append({"rec": "submit", "job": job.key, "spec": job.spec_dict})
        if job.plan:
            plan_record: Dict[str, object] = {
                "rec": "plan",
                "job": job.key,
                "chunks": [[i, f, c] for i, f, c in job.plan],
                "base": [[f, c] for f, c in job.base_spans],
            }
            if job.base_result is not None:
                plan_record["base_result"] = job.base_result
            records.append(plan_record)
        for index in sorted(job.completed):
            first, count = 0, 0
            for i, f, c in job.plan:
                if i == index:
                    first, count = f, c
                    break
            records.append(
                {
                    "rec": "chunk-done",
                    "job": job.key,
                    "chunk": index,
                    "first": first,
                    "count": count,
                    "token": -1,
                    "result": job.completed[index],
                }
            )
    return records


class JobJournal:
    """Append-side of the journal: fsync'd writes, atomic compaction.

    Opening a journal replays whatever the previous process left behind,
    so :meth:`incomplete_jobs` immediately answers "what should
    ``--resume`` restart?".  The open also compacts: records belonging
    to finished jobs are dropped in one atomic rotation, bounding replay
    cost over the service's lifetime.  The mechanics — and the
    durability contract — are :class:`~repro.obs.appendlog.AppendLog`'s.
    """

    def __init__(
        self,
        path: str,
        fsync_interval: float = 0.0,
        max_bytes: int = DEFAULT_MAX_BYTES,
        degraded_cooldown: float = DEFAULT_DEGRADED_COOLDOWN,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log = AppendLog(
            path,
            "journal",
            JOURNAL_SCHEMA,
            _ReplayState,
            _live_records,
            fsync_interval,
            max_bytes,
            degraded_cooldown,
            self.metrics,
        )

    # -- record appends ----------------------------------------------------

    def job_submitted(self, key: str, spec_dict: Dict[str, object]) -> None:
        self._log.append({"rec": "submit", "job": key, "spec": spec_dict})

    def plan_recorded(
        self,
        key: str,
        chunks: List[ChunkPlanEntry],
        base_spans: List[Span],
        base_result: Optional[Dict[str, object]] = None,
    ) -> None:
        record: Dict[str, object] = {
            "rec": "plan",
            "job": key,
            "chunks": [[i, first, count] for i, first, count in chunks],
            "base": [[first, count] for first, count in base_spans],
        }
        if base_result is not None:
            record["base_result"] = base_result
        self._log.append(record)

    def lease_granted(
        self, key: str, chunk: int, owner: str, token: int, deadline: float
    ) -> None:
        """Append a ``lease`` record.  Nothing in the service calls this
        since chunk leases were retired (replay ignores the record); the
        e2e tracer (``benchmarks/e2e/trace.py``) still wraps it by name,
        so it goes when that wrapper does."""
        self._log.append(
            {
                "rec": "lease",
                "job": key,
                "chunk": chunk,
                "owner": owner,
                "token": token,
                "deadline": deadline,
            }
        )

    def chunk_done(
        self,
        key: str,
        chunk: int,
        first: int,
        count: int,
        token: int,
        result_dict: Dict[str, object],
    ) -> None:
        self._log.append(
            {
                "rec": "chunk-done",
                "job": key,
                "chunk": chunk,
                "first": first,
                "count": count,
                "token": token,
                "result": result_dict,
            }
        )

    def job_done(self, key: str, status: str, error: Optional[str] = None) -> None:
        record: Dict[str, object] = {"rec": "job-done", "job": key, "status": status}
        if error is not None:
            record["error"] = error
        # Job completion makes its records dead weight: compact once the
        # file outgrows a slice of the rotation budget.
        self._log.append(record, rotate_above=self._log.max_bytes // 8)

    # -- queries -----------------------------------------------------------

    def incomplete_jobs(self) -> List[JournalJob]:
        """Jobs with a ``submit`` but no ``job-done`` record, in order."""
        with self._log.lock:
            return list(self._log.state.incomplete())

    def job(self, key: str) -> Optional[JournalJob]:
        with self._log.lock:
            return self._log.state.jobs.get(key)

    @property
    def degraded(self) -> bool:
        """True while appends are being shed after a write failure."""
        return self._log.degraded

    def flush(self) -> None:
        """Force any buffered bytes to disk (drain path)."""
        self._log.flush()

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
