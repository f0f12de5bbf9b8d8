"""Sharded job scheduler over a persistent warm worker pool.

The scheduler accepts :class:`JobSpec` submissions, shards each job's ``M``
trajectories into chunks, and feeds the chunks to long-lived worker
processes (:mod:`repro.service.worker`).  Because per-trajectory seeds are
derived from the absolute trajectory index, any sharding — and any retry
or re-execution of a chunk — reproduces the same per-trajectory values, so
the merged job result is a pure function of the spec.

Key behaviours:

* **Streaming aggregation** — partial chunk results merge into a running
  aggregate the moment they arrive; :meth:`Scheduler.status` exposes the
  current mean / Hoeffding half-width / completed-trajectory count while
  the job is still running.
* **Ended jobs live in the store** — the scheduler holds only unfinished
  jobs.  A job that ends writes one store record (final result, or a
  partial saying how it ended), which answers for the key from then on,
  through the reader that also serves other processes.
* **Content-addressed caching** — submissions are checked against the
  :class:`ResultStore` first: a byte-identical resubmission completes
  instantly without dispatching a single chunk.  A job the journal shows
  incomplete (crash, drain, shutdown) resumes from its journaled chunks,
  one whose run ended short (cancel, failure, deadline) from the
  trajectories its end record holds, rather than from trajectory 0.
* **Fault tolerance** — a worker that dies (or errors) has its chunk
  requeued with bounded retries and the worker respawned after an
  exponential backoff; exceeding the retry budget fails the job without
  wedging the scheduler.  Two self-protection layers sit on top
  (docs/ROBUSTNESS.md):

  - *poison-chunk quarantine* — a chunk whose execution reliably **kills**
    its worker is quarantined once it has killed more than ``max_retries``
    of them, and the job fails fast with a structured
    :class:`~repro.errors.PoisonChunkError` diagnosis instead of
    respawn-retrying forever;
  - *respawn circuit breaker* — a respawn storm (``_BREAKER_THRESHOLD``
    worker deaths inside ``_BREAKER_WINDOW`` seconds) fails the pending
    jobs with :class:`~repro.errors.WorkerPoolBrokenError` and resets,
    so a wedged environment produces one clear error, not an unbounded
    fork storm.

* **Commit fencing** — every dispatch stamps the chunk with a fresh
  fencing token from one scheduler-wide counter, and only an outcome
  carrying the chunk's current token commits, so a report from an earlier
  run of the same key (one cancelled while the chunk was in flight) never
  commits into its resubmission.

* **Outcome validation** — chunk results are sanity-checked (trajectory
  counts and estimate counts must be internally consistent) before they
  merge; a corrupt outcome is rejected and the chunk re-executed.
* **Determinism** — each committed chunk folds into the running aggregate
  once, and the final result is a copy of it.  Estimate sums are exact,
  so the result is bit-identical under any chunk plan, no matter how many
  workers raced, which worker ran what, in which order chunks finished,
  or which faults forced re-execution.
* **Hybrid dispatch** — a spec may request ``method="exact"`` (one-pass
  density-matrix DD evaluation, no trajectories) or ``method="auto"``
  (the :mod:`repro.exact.cost` model picks the cheaper side).  Exact jobs
  run synchronously in the submitter thread — there is nothing to shard —
  and an exact run that outgrows its rho-DD node ceiling mid-flight
  *falls back* to the stochastic chunk path, and the fallback result is
  bit-identical to a job that was never dispatched exact at all
  (``dispatch.fallback`` counts these).
* **Engine choice** — the chunks of a ``method="auto"`` DD job leave the
  trajectory engine to each span's compile step
  (:data:`~repro.stochastic.runner.AUTO_ENGINE`): a pure function of the
  spec, so every chunk of a job — fresh, fallen back, or resumed from a
  store or journal checkpoint — runs on the same engine, which the
  merged result reports and outcome validation enforces.  A resume whose
  restored trajectories ran on an engine the spec would no longer pick
  (a partial left by an older build) ships its remaining chunks on that
  engine instead, so the job finishes rather than rejecting every chunk.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from dataclasses import asdict, replace
from queue import Empty
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..errors import (
    JobCancelledError,
    JobFailedError,
    PoisonChunkError,
    ResourceLimitError,
    SchedulerError,
    WorkerPoolBrokenError,
    format_reasons,
)
from ..exact import ExactSimulator
from ..exact.cost import DispatchDecision, resolve_method
from ..exact.simulator import default_node_ceiling
from ..faults.inject import get_injector
from ..obs.context import job_trace_context
from ..obs.ledger import RunLedger, circuit_fingerprint
from ..obs.metrics import TIME_BUCKETS, MetricsRegistry, merge_snapshots
from ..obs.tracing import Tracer
from ..stochastic.results import PropertyEstimate, StochasticResult
from .job import JobSpec, JobState, JobStatus, job_engine
from .journal import JobJournal, journal_path
from .store import ResultStore, Span, check_end
from .worker import ChunkOutcome, ChunkTask, worker_main

__all__ = [
    "Scheduler",
    "SchedulerError",
    "JobFailedError",
    "JobCancelledError",
    "PoisonChunkError",
    "WorkerPoolBrokenError",
]

#: Seconds a timed-out job waits for its in-flight chunks to report their
#: partial trajectories before finalizing without them.  Chunks observe the
#: same absolute deadline the scheduler does, so they normally drain within
#: one trajectory's latency — the grace only bounds a wedged straggler.
_TIMEOUT_DRAIN_GRACE = 1.0

#: Chunks per worker of a job whose work is unmeasured, and the most a
#: measured job gets.
_CHUNKS_PER_WORKER = 8

#: CPU seconds of work a measured job's chunk aims at: about 20x what the
#: dispatcher spends serving one chunk (chunk-done journal append and
#: hand-off; under 2.5 ms), so that service stays a small share of a
#: chunk's time.
_CHUNK_SECONDS = 0.05

#: ``multiprocessing`` start method of the worker pool.
_MP_CONTEXT = "fork"

#: Longest the dispatcher waits for worker output or a wake between passes
#: (the cadence of deadline checks, reaping and delayed-chunk release), and
#: what :meth:`Scheduler.drain` sleeps between checks for busy workers.
_POLL_INTERVAL = 0.02

#: Worker deaths within ``_BREAKER_WINDOW`` seconds that open the respawn
#: circuit breaker.
_BREAKER_THRESHOLD = 12
_BREAKER_WINDOW = 10.0

#: Base and cap (seconds) of the exponential delay before a dead worker's
#: slot is refilled; the exponent is the number of worker deaths inside
#: the breaker window.
_RESPAWN_BACKOFF = 0.05
_RESPAWN_BACKOFF_CAP = 2.0


def _remaining_spans(total: int, done: List[Span]) -> List[Span]:
    """Complement of the completed spans within ``range(total)``."""
    remaining: List[Span] = []
    cursor = 0
    for start, count in sorted(done):
        end = min(start + count, total)
        start = max(start, cursor)
        if start > cursor:
            remaining.append((cursor, start - cursor))
        cursor = max(cursor, end)
    if cursor < total:
        remaining.append((cursor, total - cursor))
    return remaining


def _cpu_per_trajectory(records: List[Dict[str, object]]) -> Optional[float]:
    """CPU seconds per trajectory over a family's recent stochastic run
    records (exact runs carry CPU but no trajectories), or ``None`` when
    none of them measured a trajectory."""
    cpu = 0.0
    trajectories = 0
    for record in records:
        if record.get("rec") != "run" or record.get("method") != "stochastic":
            continue
        try:
            seconds = float(record.get("cpu_seconds") or 0.0)
            count = int(record.get("trajectories") or 0)
        except (TypeError, ValueError):
            continue  # a hand-edited or foreign record: not evidence
        if count > 0 and 0.0 <= seconds < math.inf:
            cpu += seconds
            trajectories += count
    return cpu / trajectories if trajectories else None


def _outcome_anomaly(
    outcome: ChunkOutcome, aggregate: StochasticResult
) -> Optional[str]:
    """Internal-consistency check on a successful chunk result.

    Returns a human-readable reason when the result cannot be trusted
    (a worker bug, a torn queue write that still unpickled, an injected
    ``corrupt-outcome`` fault, or a chunk whose engine differs from the
    one the job's merged trajectories ran on), else ``None``.
    """
    result = outcome.result
    if result is None:
        return None  # error outcomes are handled by the requeue path
    if aggregate.completed_trajectories and result.backend_kind != aggregate.backend_kind:
        return (
            f"chunk ran on the {result.backend_kind} engine, the job's merged "
            f"trajectories on {aggregate.backend_kind}"
        )
    completed = result.completed_trajectories
    if completed < 0 or completed > outcome.num_trajectories:
        return (
            f"completed trajectories {completed} outside "
            f"[0, {outcome.num_trajectories}]"
        )
    if not result.timed_out and completed != outcome.num_trajectories:
        return (
            f"short chunk ({completed}/{outcome.num_trajectories}) "
            f"without a timeout flag"
        )
    for name, estimate in result.estimates.items():
        if estimate.count > completed:
            return f"estimate {name!r} counts {estimate.count} > {completed} trajectories"
    return None


class _WorkerHandle:
    """Book-keeping for one worker process and its private queues.

    Each worker owns BOTH its task queue and its result queue.  A shared
    result queue would be a liability: killing a worker mid-``put`` leaves
    the queue's write lock held by a dead process, wedging every other
    worker forever.  With per-worker queues a kill can only corrupt the
    victim's own channel, which is closed and discarded with the handle.
    """

    __slots__ = (
        "worker_id", "process", "task_queue", "result_queue", "busy",
        "dispatched_at", "dead", "respawn_due",
    )

    def __init__(self, worker_id: int, ctx) -> None:
        self.worker_id = worker_id
        self.task_queue = ctx.Queue()
        self.result_queue = ctx.Queue()
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, self.task_queue, self.result_queue),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        self.busy: Optional[ChunkTask] = None
        self.dispatched_at = 0.0
        #: Set when the death has been processed; the slot respawns only
        #: once ``respawn_due`` passes (exponential backoff).
        self.dead = False
        self.respawn_due = 0.0
        self.process.start()

    def close(self) -> None:
        """Release the queues and process record of a worker that has
        exited or been terminated; the handle is unusable afterwards.

        The task queue's feeder thread closes that pipe once it has written
        what was queued.  It is joined only when the worker exited cleanly,
        having read everything; a dead worker may have left it blocked on a
        full pipe.  This process never feeds the result queue, so no feeder
        closes that pipe: it is closed here.
        """
        clean = self.process.exitcode == 0
        if not clean:
            self.task_queue.cancel_join_thread()
        self.task_queue.close()
        if clean:
            self.task_queue.join_thread()
        self.result_queue.close()
        self.result_queue._reader.close()
        self.result_queue._writer.close()
        if self.process.exitcode is not None:
            self.process.close()


class _Job:
    """Internal mutable state of one submitted job."""

    def __init__(self, spec: JobSpec, key: str) -> None:
        self.spec = spec
        self.key = key
        self.state = JobState.QUEUED
        #: Resolved execution method ("stochastic" | "exact") — for
        #: ``method="auto"`` specs this records what the cost model chose,
        #: and an exact run that trips its node ceiling flips it back.
        self.method = "stochastic"
        self.chunks: Dict[int, ChunkTask] = {}
        self.pending: Deque[int] = deque()
        self.in_flight: Set[int] = set()
        #: Committed chunk index -> the span its trajectories cover (their
        #: results are in ``aggregate``); a timed-out chunk covers only the
        #: trajectories it completed.
        self.completed: Dict[int, Span] = {}
        self.retries: Dict[int, int] = {}
        #: Chunk index -> count of attempts that KILLED the worker (poison
        #: detection counts fatalities, not mere errors).
        self.worker_deaths: Dict[int, int] = {}
        #: Chunk index -> observed failure reasons, for diagnoses.
        self.failure_reasons: Dict[int, List[str]] = {}
        #: Chunk index -> monotonic instant a queue-delay fault holds it to.
        self.delayed: Dict[int, float] = {}
        self.base_spans: List[Span] = []  #: spans restored from a checkpoint
        #: Commit fencing (docs/ROBUSTNESS.md, "Commit fencing"): chunk index
        #: -> token of its latest dispatch, the only one whose outcome commits.
        self.fencing_tokens: Dict[int, int] = {}
        self.aggregate = StochasticResult(
            circuit_name=spec.circuit.name,
            backend_kind=spec.backend_kind,
            requested_trajectories=spec.trajectories,
        )
        for prop in spec.properties:
            self.aggregate.estimates[prop.name] = PropertyEstimate(prop.name)
        self.final: Optional[StochasticResult] = None
        self.error: Optional[str] = None
        #: Failure classification for typed errors from :meth:`result`:
        #: None | "retries" | "poison" | "breaker".
        self.error_kind: Optional[str] = None
        self.poison_diagnosis: Optional[Dict[str, object]] = None
        #: Cost-model verdict for ``method="auto"`` submissions (None for
        #: explicit methods and checkpoint resumes) — kept so serve logs
        #: and the store record can cite the dispatch evidence.
        self.decision: Optional[DispatchDecision] = None
        #: Circuit-family fingerprint for run-ledger records.
        self.fingerprint = circuit_fingerprint(
            spec.circuit, spec.noise_model, spec.backend_kind
        )
        self.started_at = time.perf_counter()
        #: Root trace context — deterministic (derived from the job key), so
        #: reruns of the same spec stitch into structurally identical trees.
        self.trace_root = job_trace_context(key)
        #: Monotonic birth instant for the root trace span (worker-side
        #: chunk spans are stamped on the same system-wide clock).
        self.started_monotonic = time.monotonic()
        #: Absolute monotonic instant the whole job must respect — shipped
        #: to every chunk so N workers share ONE wall-clock budget instead
        #: of each chunk getting the full relative timeout.
        self.deadline = (
            None if spec.timeout is None else time.monotonic() + spec.timeout
        )
        #: When the deadline was first observed tripped (drain-grace anchor).
        self.timeout_at: Optional[float] = None
        self.done = threading.Event()
        #: Basis of the chunk plan: "measured", "default" or "explicit"
        #: (see Scheduler._chunk_size), None while the job has planned no
        #: chunks.
        self.chunking: Optional[str] = None
        #: CPU seconds per trajectory of the job's circuit family in the
        #: ledger when its chunks were planned; None without such history.
        self.rate: Optional[float] = None
        #: Monotonic instant its chunks were planned, until its first chunk
        #: dispatch observes the queue wait.
        self.planned_at: Optional[float] = None

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def remaining_work(self) -> Tuple[bool, float]:
        """Dispatch rank, least first: a measured job by the CPU seconds its
        uncommitted trajectories (pending and in-flight chunks) will take,
        every unmeasured job after the measured ones, all alike."""
        if self.rate is None:
            return True, 0.0
        remaining = self.spec.trajectories - self.aggregate.completed_trajectories
        return False, remaining * self.rate

    def finished(self) -> bool:
        return self.done.is_set()

    def end(self) -> Dict[str, object]:
        """How the job ended, as its store record keeps it."""
        return {"state": self.state.value, "error": self.error,
                "kind": self.error_kind, "diagnosis": self.poison_diagnosis}

    def run_record(self) -> Dict[str, object]:
        """How the job ran, as its store record keeps it."""
        plan = None if self.chunking is None else [len(self.chunks), self.chunking]
        decision = None if self.decision is None else asdict(self.decision)
        return {"plan": plan, "decision": decision, "retries": self.total_retries}

    def chunk_backend(self) -> str:
        """``backend_kind`` the job's chunks ship with: the engine its
        restored trajectories ran on, if any (a checkpoint or journal left
        by a build that chose another engine takes no chunks of a second
        one), else the spec's :attr:`~repro.service.job.JobSpec.chunk_backend`."""
        if self.aggregate.completed_trajectories:
            return self.aggregate.backend_kind
        return self.spec.chunk_backend


class Scheduler:
    """Persistent-pool scheduler for stochastic simulation jobs.

    An idle worker gets the next pending chunk of the active job with the
    least remaining work: its uncommitted trajectories times its circuit
    family's CPU seconds per trajectory in the ``ledger``, as read when its
    chunks were planned.  Jobs without that history come after the
    measured ones, and ties keep submission order, so without a ledger
    chunks go out first come, first served.  The order moves no result
    bit: seeds derive from trajectory indices and estimate sums are exact.

    Parameters
    ----------
    workers:
        Number of long-lived worker processes.
    store:
        Result cache, checkpoint store, and the record of every ended job;
        defaults to a memory-only store, whose LRU capacity bounds how many
        ended keys stay readable.
    chunk_size:
        Trajectories per chunk.  By default a job whose circuit family has
        recent stochastic runs in the ``ledger`` is cut into chunks of
        about 0.05 s of measured CPU each (``_CHUNK_SECONDS``), between
        one and 8 per worker, so the per-chunk commit (journal append,
        hand-off) stays a small share of a short job; without
        that history every job gets 8 chunks per worker.  Either way the
        result is the same bits (index-derived seeds, exact estimate
        sums); only how often streaming estimates refresh and how much a
        lost chunk costs change.  An explicit size still ranks the job by
        its measured work.
    max_retries:
        Requeue budget per chunk before the whole job is failed.
        A chunk that has killed more than ``max_retries`` workers is
        quarantined instead, and the job failed with
        :class:`~repro.errors.PoisonChunkError`.
    chunk_timeout:
        Wall-clock seconds an in-flight chunk may take before its worker
        is presumed wedged, killed, and the chunk retried (None = never).
        A dead worker's chunk is requeued at the next dispatcher pass; this
        is the only thing that reclaims a chunk from a worker that is alive
        but wedged.
    exact_node_ceiling:
        Rho-DD node budget for exact-dispatched jobs; exceeding it
        mid-flight falls the job back to stochastic sampling.  ``None``
        defers to the ``REPRO_EXACT_NODE_CEILING`` environment variable
        (unset means "no ceiling": exact runs to completion).
    journal:
        Write-ahead :class:`~repro.service.journal.JobJournal`: every
        submission, chunk plan, committed chunk result, and job completion
        is journaled durably, so a resubmission resumes after a hard death.
        Defaults to ``journal_path(store.directory)``, opened here and
        closed by :meth:`shutdown`, for a store with a directory.
    ledger:
        Optional :class:`~repro.obs.ledger.RunLedger`.  When present, every
        finished job appends a run-profile record (method, peak DD nodes,
        cpu/wall seconds, throughput, ``p_clean``, half-widths) keyed by
        its circuit-family fingerprint, node-ceiling fallbacks are recorded
        as censored observations, and ``method="auto"`` dispatch consults
        the accumulated family history through the measured cost model
        (``dispatch.measured`` / ``dispatch.worst_case`` count which basis
        each decision used).  The same history sizes chunks and ranks jobs
        for dispatch.
    """

    def __init__(
        self,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 2,
        chunk_timeout: Optional[float] = None,
        exact_node_ceiling: Optional[int] = None,
        journal: Optional[JobJournal] = None,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.store = store if store is not None else ResultStore(directory=None)
        self.chunk_size = chunk_size
        self.max_retries = max_retries
        self.chunk_timeout = chunk_timeout
        self.exact_node_ceiling = (
            exact_node_ceiling
            if exact_node_ceiling is not None
            else default_node_ceiling()
        )
        self._own_journal = journal is None and self.store.directory is not None
        self.journal = (
            JobJournal(journal_path(self.store.directory))
            if self._own_journal
            else journal
        )
        self.ledger = ledger
        #: Set by :meth:`drain`: stop assigning new chunks and let in-flight
        #: ones land; the journal holds the rest.
        self._draining = False
        #: Trajectories actually executed by this scheduler instance —
        #: cache hits and resumed checkpoints contribute nothing here.
        self.trajectories_executed = 0
        #: Scheduler-side observability (see docs/OBSERVABILITY.md).  The
        #: counters are pre-registered so snapshots always carry them, even
        #: when zero — "no retries" is itself a useful report.
        self.metrics = MetricsRegistry()
        for name in (
            "scheduler.retries",
            "scheduler.worker_respawns",
            "scheduler.chunks_completed",
            "scheduler.checkpoint_writes",
            "scheduler.trajectories_executed",
            "scheduler.drain.errors",
            "scheduler.outcomes.rejected",
            "scheduler.poison_quarantined",
            "scheduler.breaker.trips",
            "faults.recovered.requeue",
            "faults.recovered.respawn",
            "faults.recovered.outcome_rejected",
            "store.hits",
            "store.misses",
            # Hybrid-dispatch routing: one of exact/stochastic per fresh
            # (uncached, unresumed) submission, plus fallback for exact
            # runs that tripped the node ceiling and re-ran stochastic.
            "dispatch.exact",
            "dispatch.stochastic",
            "dispatch.fallback",
            # Evidence basis of auto decisions: measured = run-ledger
            # family history entered the comparison; worst_case = dense
            # 4^n/2^n bounds (empty or thin history).
            "dispatch.measured",
            "dispatch.worst_case",
            # Basis of each chunk plan (see _chunk_size).
            "chunking.measured",
            "chunking.default",
            "chunking.explicit",
            # Durable-execution layer: commit fencing, resume and drain.
            "lease.fenced",
            "scheduler.jobs_resumed",
            "scheduler.drain.completed",
            "scheduler.drain.forced",
        ):
            self.metrics.counter(name)
        # Seconds from a job's chunk plan to its first chunk dispatch.
        self.metrics.histogram("scheduler.queue_wait_seconds", TIME_BUCKETS)
        self.tracer = Tracer(max_events=2048)
        #: Active fault injector (``REPRO_FAULT_PLAN``; None in production).
        #: Scheduler-side sites: queue-drop / queue-delay at dispatch time.
        self._injector = get_injector()
        #: Monotonic stamps of recent worker deaths (breaker/backoff input).
        self._death_stamps: Deque[float] = deque()

        self._ctx = multiprocessing.get_context(_MP_CONTEXT)
        self._lock = threading.RLock()
        #: The unfinished jobs, by key, in submission order, which breaks
        #: ties in the dispatcher's least-remaining-work rank.  A job leaves
        #: when it finishes (_settle), and its store record answers for it
        #: from then on; only the jobs shutdown cancels stay.
        self._active: Dict[str, _Job] = {}
        #: Fencing token of the next dispatch, of any job.
        self._next_token = 0
        self._closed = False
        self._workers: List[_WorkerHandle] = [
            _WorkerHandle(i, self._ctx) for i in range(workers)
        ]
        self._next_worker_id = workers
        #: Handles whose result read raised during the current pass.
        self._unreadable: Set[_WorkerHandle] = set()
        #: Self-pipe that cuts the dispatcher's wait short (see _wake).
        self._wake_reader, self._wake_writer = os.pipe()
        os.set_blocking(self._wake_reader, False)
        os.set_blocking(self._wake_writer, False)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="repro-scheduler"
        )
        self._dispatcher.start()
        atexit.register(self.shutdown)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Register a job; returns its content-addressed key immediately.

        Cache hit → nothing runs: the stored result answers for the key.
        Checkpoint → a fresh chunk plan covers only the missing trajectory
        spans, and the job samples whatever its ``method``.  The checkpoint
        is the journal's fold of an incomplete, planned entry for the key
        (:meth:`~repro.service.journal.JournalJob.checkpoint`; planned
        means sampling, even with nothing committed), or else the
        trajectories of the key's end-short record, when it holds any.
        Identical key already live → idempotent, the existing job is kept.
        Exact-dispatched jobs (``method="exact"``, or ``"auto"`` when the
        cost model favours exact) run *synchronously* in this thread —
        there are no chunks to shard — so for them ``submit`` returns
        only once the job has completed or fallen back to stochastic.
        """
        key = spec.job_key()
        run_exact = False
        with self._lock:
            if self._closed:
                raise SchedulerError("scheduler is shut down")
            if key in self._active:
                return key  # identical job already in flight — join it
            journaled = None if self.journal is None else self.journal.job(key)
            if journaled is not None and journaled.done:
                journaled = None  # only an incomplete entry holds progress
            if self.store.get(key) is not None:
                self.metrics.counter("store.hits").inc()
                self.tracer.event("job.cache_hit", job=key[:16])
                if journaled is not None:
                    # The result landed before a crash took the job-done
                    # record: settle the journal entry.
                    self._journal_job_done(key, "completed")
                return key
            self.metrics.counter("store.misses").inc()
            job = _Job(spec, key)
            if journaled is not None and journaled.plan:
                checkpoint = journaled.checkpoint(spec)
            else:
                checkpoint = self.store.get_partial(key)
            if checkpoint is not None:
                # A checkpoint only ever comes from a stochastic run;
                # resume it rather than re-deciding the method.
                spans, partial = checkpoint
                job.base_spans = list(spans)
                job.aggregate.merge(partial)
                # A timed-out partial's flag described the run that
                # left it; this run times out only on its own deadline.
                job.aggregate.timed_out = False
                self.metrics.counter("scheduler.jobs_resumed").inc()
                self.tracer.event(
                    "job.resume", job=key[:16],
                    restored=partial.completed_trajectories,
                )
                self._journal_submit(job)
                self._plan_chunks(job)
                if not job.chunks:
                    # The checkpoint already covers every trajectory.
                    self._finalize(job)
            else:
                job.method = self._resolve_method(spec, job)
                self._journal_submit(job)
                if job.method == "exact":
                    # No chunks, no deadline sharing: the exact run
                    # happens after the lock drops, in this thread.
                    job.state = JobState.RUNNING
                    job.deadline = None
                    run_exact = True
                else:
                    self.metrics.counter("dispatch.stochastic").inc()
                    self._plan_chunks(job)
            if not job.finished():
                self._active[key] = job
            if job.pending:
                self._wake()
        if run_exact:
            self._run_exact(job)
        return key

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful drain: stop assigning chunks, land what's in flight.

        Within ``timeout`` seconds the dispatcher keeps consuming worker
        outcomes (each one journaled and merged as usual) but assigns
        nothing new.  Whatever is still unfinished afterwards stays
        journal-incomplete, its committed chunks its checkpoint: exactly
        the state a resubmission (``serve``, with or without
        ``--resume``) restarts from.  Returns True when every in-flight
        chunk landed inside the deadline.
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            with self._lock:
                busy = any(
                    h.busy is not None and not h.dead for h in self._workers
                )
            if not busy:
                break
            time.sleep(_POLL_INTERVAL)
        with self._lock:
            clean = all(h.busy is None or h.dead for h in self._workers)
            if self.journal is not None:
                self.journal.flush()
            self.metrics.counter(
                "scheduler.drain.completed" if clean else "scheduler.drain.forced"
            ).inc()
            self.tracer.event("scheduler.drain", clean=clean)
        return clean

    def status(self, key: str) -> JobStatus:
        """Point-in-time progress snapshot (streaming estimates included);
        once the job has ended, :meth:`ResultStore.job_status`'s."""
        with self._lock:
            job = self._active.get(key)
            if job is None:
                journaled = None if self.journal is None else self.journal.job(key)
                return self.store.job_status(key, journaled)
            aggregate = job.aggregate
            # An aggregate without trajectories names the spec's backend,
            # not an engine that ran.
            ran_on = aggregate.backend_kind if aggregate.completed_trajectories else None
            return JobStatus.of(
                key, job.state, aggregate,
                elapsed_seconds=time.perf_counter() - job.started_at,
                retries=job.total_retries, method=job.method,
                engine=job_engine(job.spec, ran_on), error=job.error,
            )

    def result(self, key: str, timeout: Optional[float] = None) -> StochasticResult:
        """Block until the job finishes; returns an independent result copy.

        Failures raise out of the shared taxonomy (:mod:`repro.errors`), as
        :func:`~repro.service.store.check_end` maps how the job ended.  An
        ended key answers from its store record
        (:meth:`ResultStore.ended_result`).
        """
        with self._lock:
            job = self._active.get(key)
            if job is None:
                result = self.store.ended_result(key)
                if result is None:
                    raise KeyError(f"unknown job {key!r}")
                return result
        if not job.done.wait(timeout):
            raise TimeoutError(f"job {key[:16]}… still running after {timeout} s")
        check_end(key, job.end())
        return job.final.copy()

    def run(self, spec: JobSpec, timeout: Optional[float] = None) -> StochasticResult:
        """Submit and wait — the synchronous convenience path."""
        return self.result(self.submit(spec), timeout=timeout)

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time snapshot of scheduler-side metrics.

        Covers retries, respawns, chunk completions, checkpoint writes,
        store traffic *and* the store's own corruption/write-failure
        counters, plus any ``faults.injected.*`` counters from an active
        fault injector.  Callers attributing activity to one job should
        snapshot before and after and take
        :func:`repro.obs.delta_snapshots` (the pool is shared).
        """
        with self._lock:
            parts = [self.metrics.snapshot(), self.store.metrics.snapshot()]
            if self.journal is not None:
                parts.append(self.journal.metrics.snapshot())
            if self.ledger is not None:
                parts.append(self.ledger.metrics_snapshot())
            if self._injector is not None:
                parts.append(self._injector.snapshot())
            return merge_snapshots(*parts)

    def trace_events(self) -> List[Dict[str, object]]:
        """Buffered scheduler trace events as JSON-able dictionaries."""
        with self._lock:
            return self.tracer.export()

    def cancel(self, key: str) -> bool:
        """Cancel a job; its checkpoint (if any) survives for later resume.
        False when the job had already ended."""
        with self._lock:
            job, _ = self._lookup(key)
            if job is None or job.finished():
                return False
            job.pending.clear()
            job.delayed.clear()
            job.state = JobState.CANCELLED
            self._end_short(job)
            return True

    def shutdown(self) -> None:
        """Stop the dispatcher, terminate the worker pool and release its
        processes, queues, wake pipe and own journal (idempotent).
        Unfinished jobs end CANCELLED here, readable in this process but
        with no store record: they stay journal-incomplete, so a later
        scheduler on the store resumes them."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in self._active.values():
                job.state = JobState.CANCELLED
                job.done.set()
            self._wake()
        atexit.unregister(self.shutdown)
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=2.0)
        for handle in self._workers:
            try:
                handle.task_queue.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.time() + 1.0
        for handle in self._workers:
            handle.process.join(timeout=max(0.0, deadline - time.time()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        if self._dispatcher.is_alive():
            return  # a wedged pass may still read the queues and the pipe
        for handle in self._workers:
            handle.close()
        with self._lock:
            os.close(self._wake_reader)
            os.close(self._wake_writer)
            self._wake_writer = None
            if self._own_journal:
                self.journal.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Hybrid dispatch (see repro.exact.cost and docs/EXACT.md)
    # ------------------------------------------------------------------

    def _resolve_method(self, spec: JobSpec, job: Optional[_Job] = None) -> str:
        """Decide how a fresh (uncached, unresumed) job runs by
        :func:`~repro.exact.cost.resolve_method` on the ledger's history; a
        forced ``exact`` the exact backend cannot express fails the
        submission with :class:`SchedulerError` rather than sampling."""
        history = None
        if self.ledger is not None and spec.method == "auto":
            history = self.ledger.aggregates()
        try:
            method, decision = resolve_method(
                spec.method, spec.circuit, spec.noise_model, spec.properties,
                spec.trajectories, spec.backend_kind, history,
            )
        except ValueError as unsupported:
            raise SchedulerError(
                f"job requests method='exact' but exact simulation is "
                f"unsupported: {unsupported}"
            ) from None
        if decision is None:
            return method
        if decision.unsupported_reason is not None:
            self.tracer.event(
                "dispatch.auto", choice=method, reason=decision.unsupported_reason
            )
            return method
        if job is not None:
            job.decision = decision
        self.metrics.counter(f"dispatch.{decision.evidence}").inc()
        self.tracer.event(
            "dispatch.auto",
            choice=decision.method,
            exact_cost=decision.exact_cost,
            stochastic_cost=decision.stochastic_cost,
            evidence=decision.evidence,
            fingerprint=decision.fingerprint,
        )
        return method

    def _lookup(self, key: str) -> Tuple[Optional[_Job], Optional[Dict[str, object]]]:
        """``(job, None)`` while ``key`` is active, else ``(None, record)``;
        ``KeyError`` without either.  Called with the lock held."""
        job = self._active.get(key)
        if job is not None:
            return job, None
        record = self.store.record(key)
        if record is None:
            raise KeyError(f"unknown job {key!r}")
        return None, record

    def _run_of(self, key: str) -> Dict[str, object]:
        """How ``key`` ran (:meth:`_Job.run_record`), live or recorded."""
        with self._lock:
            job, record = self._lookup(key)
            return job.run_record() if job is not None else record.get("run") or {}

    def decision_for(self, key: str) -> Optional[DispatchDecision]:
        """The auto-dispatch verdict of ``key``'s run, if any."""
        decision = self._run_of(key).get("decision")
        return None if decision is None else DispatchDecision(**decision)

    def plan_for(self, key: str) -> Optional[Tuple[int, str]]:
        """``(chunks, basis)`` of the chunk plan ``key`` ran under, or
        ``None`` when it planned none (exact runs)."""
        plan = self._run_of(key).get("plan")
        return None if plan is None else (int(plan[0]), str(plan[1]))

    def _run_exact(self, job: _Job) -> None:
        """Run one exact-dispatched job to completion in the calling thread.

        A :class:`~repro.errors.ResourceLimitError` (rho DD outgrew the
        node ceiling) *falls back*: the job is re-planned onto the
        stochastic chunk path with its original spec, so the eventual
        result is bit-identical to a never-dispatched-exact run.  Any
        other failure fails the job.
        """
        spec = job.spec
        self.tracer.event("job.exact_start", job=job.key[:16])
        try:
            result = ExactSimulator(node_ceiling=self.exact_node_ceiling).run(
                spec.circuit,
                noise_model=spec.noise_model,
                properties=spec.properties,
            )
        except ResourceLimitError as limit:
            with self._lock:
                if job.finished():
                    return  # cancelled/shut down while the exact run ran
                self.metrics.counter("dispatch.fallback").inc()
                self.tracer.event(
                    "job.exact_fallback", job=job.key[:16],
                    nodes=limit.nodes, ceiling=limit.ceiling,
                )
                # Feed the misprediction back: the family's rho provably
                # grew past the ceiling, so the measured model's next
                # exact-size estimate rises (censored observation).
                self._ledger_record_fallback(job, limit.nodes, limit.ceiling)
                job.method = "stochastic"
                job.deadline = (
                    None
                    if spec.timeout is None
                    else time.monotonic() + spec.timeout
                )
                self._plan_chunks(job)
                self._wake()
            return
        except Exception as error:
            with self._lock:
                if job.finished():
                    return
                job.state = JobState.FAILED
                job.error = (
                    f"exact simulation failed: {type(error).__name__}: {error}"
                )
                self._end_short(job)
            return
        with self._lock:
            if job.finished():
                return
            self.metrics.counter("dispatch.exact").inc()
            result.elapsed_seconds = time.perf_counter() - job.started_at
            job.final = result
            job.state = JobState.COMPLETED
            self.tracer.event(
                "job.finalize", job=job.key[:16], method="exact",
                peak_nodes=result.peak_nodes,
            )
            self.store.put(
                job.key, result, spec_dict=spec.to_dict(), run=job.run_record()
            )
            self._ledger_record_run(job, result)
            self._journal_job_done(job.key, "completed")
            self._settle(job)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _chunk_size(self, job: _Job) -> Tuple[int, str]:
        """Trajectories per chunk of ``job`` and the basis of that size.

        ``explicit``: the ``chunk_size`` option.  ``measured``: the job's
        work ``W`` (``M`` times the CPU seconds per trajectory of its
        family's recent stochastic runs in the ledger) split into
        ``workers x min(8, max(1, ceil(W / (workers x _CHUNK_SECONDS))))``
        chunks.  ``default``: no ledger or no such history (``job.rate``
        is None), 8 chunks per worker.
        """
        if self.chunk_size is not None:
            return self.chunk_size, "explicit"
        trajectories = job.spec.trajectories
        per_worker, basis = _CHUNKS_PER_WORKER, "default"
        if job.rate is not None:
            work = trajectories * job.rate
            per_worker = min(
                per_worker,
                max(1, math.ceil(work / (self.workers * _CHUNK_SECONDS))),
            )
            basis = "measured"
        return max(1, -(-trajectories // (self.workers * per_worker))), basis

    def _plan_chunks(self, job: _Job) -> None:
        # Chunk indices partition the job's trajectory index space.  Under
        # stratified sampling (repro.stochastic.strata, default on the DD
        # backend) each index budgets one *erring-conditioned* trajectory —
        # the worker draws its first error from the absolute index's seed
        # alone, so any chunking reproduces the same samples, exactly as
        # with naive index-derived seeds, and the exact estimate sums make
        # the merged result independent of the chunking too.  Job keys are
        # unaffected either way.  A resume, from the store's checkpoint or
        # the journal's, cuts its remaining spans with the size a fresh job
        # of the spec would get.  The family's rate also ranks the job for
        # dispatch, whatever the plan's basis.
        job.rate = (
            None if self.ledger is None
            else _cpu_per_trajectory(self.ledger.recent(job.fingerprint))
        )
        size, basis = self._chunk_size(job)
        remaining = _remaining_spans(job.spec.trajectories, job.base_spans)
        backend_kind = job.chunk_backend()
        index = 0
        for first, count in remaining:
            offset = 0
            while offset < count:
                take = min(size, count - offset)
                job.chunks[index] = ChunkTask(
                    job_key=job.key,
                    chunk_index=index,
                    circuit=job.spec.circuit,
                    noise_model=job.spec.noise_model,
                    properties=job.spec.properties,
                    backend_kind=backend_kind,
                    first_trajectory=first + offset,
                    num_trajectories=take,
                    master_seed=job.spec.seed,
                    sample_shots=job.spec.sample_shots,
                    deadline=job.deadline,
                )
                job.pending.append(index)
                index += 1
                offset += take
        if job.chunks:
            job.state = JobState.RUNNING
            job.chunking = basis
            job.planned_at = time.monotonic()
            self.metrics.counter(f"chunking.{basis}").inc()
            self.tracer.event(
                "job.plan", job=job.key[:16], chunks=len(job.chunks),
                chunk_size=size, basis=basis,
            )
            self._journal_plan(job)

    # ------------------------------------------------------------------
    # Journal hooks (no-ops without a journal)
    # ------------------------------------------------------------------

    def _journal_submit(self, job: _Job) -> None:
        if self.journal is not None:
            self.journal.job_submitted(job.key, job.spec.to_dict())

    def _journal_plan(self, job: _Job) -> None:
        if self.journal is not None:
            self.journal.plan_recorded(
                job.key,
                [
                    (index, task.first_trajectory, task.num_trajectories)
                    for index, task in sorted(job.chunks.items())
                ],
                list(job.base_spans),
                # Planned before any chunk commits: the aggregate is the base.
                job.aggregate.to_dict() if job.base_spans else None,
            )

    def _journal_job_done(
        self, key: str, status: str, error: Optional[str] = None
    ) -> None:
        if self.journal is not None:
            self.journal.job_done(key, status, error)

    # ------------------------------------------------------------------
    # Run-ledger hooks (no-ops without a ledger; never fail the job)
    # ------------------------------------------------------------------

    def _ledger_record_run(self, job: _Job, result: StochasticResult) -> None:
        if self.ledger is None:
            return
        try:
            p_clean = result.strata.get("p_clean") if result.strata else None
            rate = result.trajectories_per_second()
            if rate == float("inf"):
                rate = 0.0
            halfwidths = {
                name: estimate.hoeffding_halfwidth()
                for name, estimate in result.estimates.items()
                if estimate.count > 0
            }
            self.ledger.record_run(
                key=job.key,
                fingerprint=job.fingerprint,
                method=result.method,
                qubits=job.spec.circuit.num_qubits,
                depth=job.spec.circuit.depth(),
                peak_nodes=result.peak_nodes,
                cpu_seconds=result.cpu_seconds,
                elapsed_seconds=result.elapsed_seconds,
                trajectories=result.completed_trajectories,
                effective_trajectories=result.effective_trajectories(),
                trajectories_per_second=rate,
                p_clean=p_clean,
                halfwidths=halfwidths,
                engine=None if result.method == "exact" else result.backend_kind,
            )
        except Exception:
            # Telemetry must never take a finished job down with it.
            self.metrics.counter("ledger.write.errors").inc()

    def _ledger_record_fallback(self, job: _Job, nodes: int, ceiling: int) -> None:
        if self.ledger is None:
            return
        try:
            self.ledger.record_fallback(job.key, job.fingerprint, nodes, ceiling)
        except Exception:
            self.metrics.counter("ledger.write.errors").inc()

    # ------------------------------------------------------------------
    # Dispatch loop (background thread)
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        # Event-driven, like the manager thread of ProcessPoolExecutor: after
        # a pass that drained nothing, block until a live worker's result
        # queue turns readable, another thread writes to the wake pipe, or
        # _POLL_INTERVAL passes (the housekeeping cadence).
        wake = self._wake_reader
        while True:
            with self._lock:
                if self._closed:
                    return  # shutdown has ended every job: no pass touches them
                self._reap_dead_workers()
                self._release_delayed_chunks()
                self._check_deadlines()
                self._assign_chunks()
                self._unreadable.clear()
                drained = sum(
                    self._drain_results(handle) for handle in list(self._workers)
                )
                # A channel whose read raised may stay readable: waiting on
                # it would spin, so it waits out the timeout instead.
                readers = [
                    handle.result_queue._reader
                    for handle in self._workers
                    if not handle.dead
                    and handle not in self._unreadable
                    and handle.process.is_alive()
                ]
            if not drained:
                ready = multiprocessing.connection.wait(
                    readers + [wake], timeout=_POLL_INTERVAL
                )
                if wake in ready:
                    self._clear_wake()

    def _wake(self) -> None:
        """Cut the dispatcher's wait short: another thread added work or is
        stopping the loop.  Called with the lock held; never blocks, since a
        full pipe already holds a pending wake."""
        if self._wake_writer is None:
            return  # shut down: the pipe is closed
        try:
            os.write(self._wake_writer, b"\0")
        except BlockingIOError:
            pass

    def _clear_wake(self) -> None:
        """Empty the wake pipe, so the next wait blocks until a new wake."""
        try:
            while os.read(self._wake_reader, 4096):
                pass
        except BlockingIOError:
            pass

    def _drain_results(self, handle: _WorkerHandle) -> int:
        """Consume every outcome currently readable from one worker."""
        count = 0
        while True:
            try:
                outcome = handle.result_queue.get_nowait()
            except Empty:
                return count
            except Exception as exc:
                # A write torn by a mid-put kill, or a queue whose feeder
                # died: visible in metrics/traces, never silently dropped.
                self._unreadable.add(handle)
                self.metrics.counter("scheduler.drain.errors").inc()
                self.tracer.event(
                    "drain.error",
                    worker=handle.worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return count
            if isinstance(outcome, ChunkOutcome):
                self._handle_outcome(outcome)
                count += 1

    def _settle(self, job: _Job) -> None:
        """Forget ``job`` (its store record answers from here) and mark it
        finished."""
        if self._active.get(job.key) is job:
            del self._active[job.key]
        job.done.set()

    def _idle_workers(self) -> List[_WorkerHandle]:
        return [
            h for h in self._workers
            if h.busy is None and not h.dead and h.process.is_alive()
        ]

    def _release_delayed_chunks(self) -> None:
        """Return chunks held by a queue-delay fault once their hold expires."""
        now = time.perf_counter()
        for job in self._active.values():
            for index, due in list(job.delayed.items()):
                if now >= due:
                    del job.delayed[index]
                    job.pending.append(index)

    def _assign_chunks(self) -> None:
        """Hand each idle worker the next pending chunk of the active job
        with the least remaining work (:meth:`_Job.remaining_work`).  A
        dispatch leaves that work as it was, in flight, so one ranking
        serves the whole pass: the least job's chunks go out until it has
        none pending, then the next job's."""
        depth = sum(len(job.pending) for job in self._active.values())
        self.metrics.gauge("scheduler.queue_depth").max(depth)
        if self._draining:
            return  # drain: land in-flight work, assign nothing new
        idle = self._idle_workers()
        if not idle:
            return
        # A sorted copy, also because a requeue below may fail, and so
        # settle, a job; the sort is stable, so ties keep submission order.
        for job in sorted(self._active.values(), key=_Job.remaining_work):
            while idle and job.pending:
                index = job.pending.popleft()
                task = job.chunks[index]
                if self._injector is not None:
                    if self._injector.fire(
                        "queue-drop", job_key=task.job_key, chunk_index=index
                    ):
                        self.tracer.event(
                            "chunk.queue_drop", job=job.key[:16], chunk=index
                        )
                        self._requeue(task, "fault: queue delivery dropped")
                        continue
                    delay = self._injector.fire(
                        "queue-delay", job_key=task.job_key, chunk_index=index
                    )
                    if delay is not None:
                        hold = delay.seconds or 0.1
                        job.delayed[index] = time.perf_counter() + hold
                        self.tracer.event(
                            "chunk.queue_delay", job=job.key[:16],
                            chunk=index, seconds=hold,
                        )
                        continue
                handle = idle.pop()
                if job.planned_at is not None:
                    self.metrics.histogram("scheduler.queue_wait_seconds").observe(
                        time.monotonic() - job.planned_at
                    )
                    job.planned_at = None
                job.in_flight.add(index)
                # A fresh fencing token per dispatch, stamped on the task and
                # echoed in the outcome: only this dispatch's report commits.
                token = self._next_token
                self._next_token += 1
                job.fencing_tokens[index] = token
                # Stamp the span context at dispatch time (not planning
                # time) so each retry gets a distinct, deterministic span —
                # the attempt number is the disambiguator.
                task = replace(
                    task,
                    trace=job.trace_root.child(
                        "chunk", index, job.retries.get(index, 0)
                    ),
                    fencing_token=token,
                )
                handle.busy = task
                handle.dispatched_at = time.perf_counter()
                handle.task_queue.put(task)
            if not idle:
                return

    # ------------------------------------------------------------------
    # Worker lifecycle: reaping, backoff, circuit breaker
    # ------------------------------------------------------------------

    def _reap_dead_workers(self) -> None:
        now = time.perf_counter()
        for position, handle in enumerate(self._workers):
            if handle.dead:
                if now >= handle.respawn_due:
                    self._respawn(position, handle)
                continue
            alive = handle.process.is_alive()
            stuck = (
                self.chunk_timeout is not None
                and handle.busy is not None
                and now - handle.dispatched_at > self.chunk_timeout
            )
            if alive and not stuck:
                continue
            if alive:
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            # Salvage outcomes that were fully written before the death so a
            # finished chunk is not needlessly re-executed.
            self._drain_results(handle)
            if handle.busy is not None:
                self._requeue(
                    handle.busy,
                    "chunk timed out" if stuck else "worker died",
                    worker_death=True,
                )
                handle.busy = None
            handle.dead = True
            delay = self._record_worker_death()
            handle.respawn_due = now + delay
            self.tracer.event(
                "worker.backoff", worker=handle.worker_id,
                delay_seconds=round(delay, 3),
            )

    def _respawn(self, position: int, handle: _WorkerHandle) -> None:
        handle.close()
        replacement = _WorkerHandle(self._next_worker_id, self._ctx)
        self._next_worker_id += 1
        self._workers[position] = replacement
        self.metrics.counter("scheduler.worker_respawns").inc()
        self.metrics.counter("faults.recovered.respawn").inc()
        self.tracer.event(
            "worker.respawn",
            died=handle.worker_id,
            spawned=replacement.worker_id,
        )

    def _record_worker_death(self) -> float:
        """Track a death for breaker/backoff; returns the respawn delay."""
        now = time.perf_counter()
        self._death_stamps.append(now)
        horizon = now - _BREAKER_WINDOW
        while self._death_stamps and self._death_stamps[0] < horizon:
            self._death_stamps.popleft()
        recent = len(self._death_stamps)
        if recent >= _BREAKER_THRESHOLD:
            self._trip_breaker(recent)
            self._death_stamps.clear()
        if recent <= 1:
            # An isolated death respawns immediately; backoff is storm
            # protection, not a tax on every crash.
            return 0.0
        return min(
            _RESPAWN_BACKOFF_CAP,
            _RESPAWN_BACKOFF * (2 ** min(recent - 2, 6)),
        )

    def _trip_breaker(self, recent: int) -> None:
        """Respawn storm: fail everything pending with one clear error."""
        message = (
            f"worker pool circuit breaker open: {recent} worker deaths "
            f"within {_BREAKER_WINDOW:.1f} s — failing pending jobs "
            f"(the pool keeps respawning with backoff; resubmit once the "
            f"environment is healthy)"
        )
        self.metrics.counter("scheduler.breaker.trips").inc()
        self.tracer.event("breaker.open", deaths=recent, window=_BREAKER_WINDOW)
        for job in list(self._active.values()):
            job.state = JobState.FAILED
            job.error = message
            job.error_kind = "breaker"
            job.pending.clear()
            job.delayed.clear()
            self._end_short(job)

    # ------------------------------------------------------------------
    # Outcome handling
    # ------------------------------------------------------------------

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for job in list(self._active.values()):  # _finalize settles jobs
            tripped = job.deadline is not None and now >= job.deadline
            if not tripped and job.timeout_at is None:
                continue
            job.pending.clear()
            job.aggregate.timed_out = True
            if job.timeout_at is None:
                job.timeout_at = now
                self.tracer.event("job.deadline", job=job.key[:16])
            # In-flight chunks observe the same deadline and return their
            # partial trajectories within moments — wait for that drain (up
            # to a bounded grace) so timed-out work is counted, not lost.
            if not job.in_flight or now >= job.timeout_at + _TIMEOUT_DRAIN_GRACE:
                self._finalize(job)

    def _requeue(self, task: ChunkTask, reason: str, worker_death: bool = False) -> None:
        job = self._active.get(task.job_key)
        if job is None or job.finished():
            return
        job.in_flight.discard(task.chunk_index)
        if task.chunk_index in job.completed:
            return  # result raced in before the death was noticed
        attempts = job.retries.get(task.chunk_index, 0) + 1
        job.retries[task.chunk_index] = attempts
        job.failure_reasons.setdefault(task.chunk_index, []).append(reason)
        self.metrics.counter("scheduler.retries").inc()
        self.tracer.event(
            "chunk.requeue", job=task.job_key[:16],
            chunk=task.chunk_index, attempt=attempts, reason=reason,
        )
        if worker_death:
            deaths = job.worker_deaths.get(task.chunk_index, 0) + 1
            job.worker_deaths[task.chunk_index] = deaths
            if deaths > self.max_retries:
                self._quarantine_chunk(job, task, attempts, deaths)
                return
        if attempts > self.max_retries:
            job.state = JobState.FAILED
            job.error_kind = "retries"
            job.error = (
                f"chunk {task.chunk_index} failed after {attempts} attempts ({reason})"
            )
            job.pending.clear()
            self._end_short(job)
        else:
            self.metrics.counter("faults.recovered.requeue").inc()
            job.pending.appendleft(task.chunk_index)

    def _quarantine_chunk(
        self, job: _Job, task: ChunkTask, attempts: int, deaths: int
    ) -> None:
        """A chunk that reliably kills its worker must never requeue again."""
        reasons = job.failure_reasons.get(task.chunk_index, [])
        job.state = JobState.FAILED
        job.error_kind = "poison"
        job.poison_diagnosis = {
            "job_key": job.key,
            "chunk_index": task.chunk_index,
            "first_trajectory": task.first_trajectory,
            "num_trajectories": task.num_trajectories,
            "attempts": attempts,
            "worker_deaths": deaths,
            "reasons": list(reasons),
        }
        job.error = (
            f"chunk {task.chunk_index} quarantined after {deaths} worker-fatal "
            f"attempts (trajectories {task.first_trajectory}.."
            f"{task.first_trajectory + task.num_trajectories - 1}): "
            f"{format_reasons(reasons)}"
        )
        job.pending.clear()
        job.delayed.clear()
        self.metrics.counter("scheduler.poison_quarantined").inc()
        self.tracer.event(
            "chunk.quarantine", job=job.key[:16],
            chunk=task.chunk_index, deaths=deaths,
        )
        self._end_short(job)

    def _handle_outcome(self, outcome: ChunkOutcome) -> None:
        for handle in self._workers:
            if handle.worker_id == outcome.worker_id:
                handle.busy = None
                break
        job = self._active.get(outcome.job_key)
        if job is None or job.finished():
            return  # late result for a cancelled/timed-out/failed job
        if outcome.chunk_index in job.completed:
            return  # duplicate after a spurious requeue
        expected_token = job.fencing_tokens.get(outcome.chunk_index)
        if expected_token is None or outcome.fencing_token != expected_token:
            # Not this chunk's latest dispatch, or a chunk this job never
            # dispatched: the report is from an earlier run of the same key,
            # cancelled while the chunk was in flight, whose plan covered
            # other spans.  Rejecting it (success or error) keeps that run's
            # work out of this one.
            self.metrics.counter("lease.fenced").inc()
            self.tracer.event(
                "lease.fenced", job=outcome.job_key[:16],
                chunk=outcome.chunk_index,
                token=outcome.fencing_token, current=expected_token,
            )
            return
        if outcome.error is not None:
            self._requeue(job.chunks[outcome.chunk_index], outcome.error)
            return
        anomaly = _outcome_anomaly(outcome, job.aggregate)
        if anomaly is not None:
            self.metrics.counter("scheduler.outcomes.rejected").inc()
            self.metrics.counter("faults.recovered.outcome_rejected").inc()
            self.tracer.event(
                "chunk.rejected", job=outcome.job_key[:16],
                chunk=outcome.chunk_index, reason=anomaly,
            )
            self._requeue(
                job.chunks[outcome.chunk_index], f"corrupt outcome: {anomaly}"
            )
            return

        assert outcome.result is not None
        job.in_flight.discard(outcome.chunk_index)
        try:  # a spurious requeue may have put the chunk back on pending
            job.pending.remove(outcome.chunk_index)
        except ValueError:
            pass
        job.completed[outcome.chunk_index] = (
            outcome.first_trajectory, outcome.result.completed_trajectories
        )
        job.aggregate.merge(outcome.result)
        self.trajectories_executed += outcome.result.completed_trajectories
        self.metrics.counter("scheduler.trajectories_executed").inc(
            outcome.result.completed_trajectories
        )
        self.metrics.counter("scheduler.chunks_completed").inc()
        if self.journal is not None:
            # The journal is the running job's progress record: from here
            # on, a crash replays this chunk as done.
            self.journal.chunk_done(
                job.key,
                outcome.chunk_index,
                outcome.first_trajectory,
                outcome.num_trajectories,
                outcome.fencing_token,
                outcome.result.to_dict(),
            )
        if self._injector is not None and self._injector.fire(
            "scheduler-crash", job_key=job.key, chunk_index=outcome.chunk_index
        ):
            # Die hard with a journaled chunk-done and nothing after it —
            # the deterministic stand-in for kill -9 mid-job.
            os._exit(1)
        if outcome.result.timed_out:
            # The shared deadline tripped inside this chunk; siblings are
            # about to report theirs too.  Finalize once the last in-flight
            # chunk has drained (the deadline check bounds the wait).
            job.pending.clear()
            job.aggregate.timed_out = True
            if job.timeout_at is None:
                job.timeout_at = time.monotonic()
            if not job.in_flight:
                self._finalize(job)
            return
        if len(job.completed) == len(job.chunks):
            self._finalize(job)

    # ------------------------------------------------------------------
    # Aggregation / persistence
    # ------------------------------------------------------------------

    def _end_short(self, job: _Job) -> None:
        """Settle a job that ends without its full result, recording how in
        its store partial (a deadline-cut job's holds its final result)."""
        result = job.final
        if result is None:
            result = job.aggregate
            result.elapsed_seconds = time.perf_counter() - job.started_at
            result.method = job.method
        spans = sorted(job.base_spans + list(job.completed.values()))
        self.store.put_partial(
            job.key, spans, result, end=job.end(), run=job.run_record()
        )
        self.metrics.counter("scheduler.checkpoint_writes").inc()
        self._journal_job_done(job.key, job.state.value, job.error)
        self._settle(job)

    def _finalize(self, job: _Job) -> None:
        """Stamp a copy of the running aggregate as the job's result."""
        final = job.aggregate.copy()
        final.elapsed_seconds = time.perf_counter() - job.started_at
        final.workers = self.workers
        # Close the job's root span: the chunk spans merged in from worker
        # results all parent to this id, completing the stitched tree.
        final.trace_events.append(
            {
                "name": "job",
                "start": job.started_monotonic,
                "duration": time.monotonic() - job.started_monotonic,
                "attrs": {
                    "job": job.key[:16],
                    "workers": self.workers,
                    "completed": final.completed_trajectories,
                },
                "trace_id": job.trace_root.trace_id,
                "span_id": job.trace_root.span_id,
                "parent_id": job.trace_root.parent_id,
            }
        )
        job.final = final
        job.state = JobState.COMPLETED
        self.tracer.event(
            "job.finalize", job=job.key[:16],
            completed=final.completed_trajectories, timed_out=final.timed_out,
        )
        complete = final.completed_trajectories >= job.spec.trajectories
        if not complete or final.timed_out:
            # Timed-out / partial outcomes are checkpointed, never cached
            # as final: a resubmission with more budget resumes from here.
            self._end_short(job)
            return
        self.store.put(
            job.key, final, spec_dict=job.spec.to_dict(), run=job.run_record()
        )
        # Only complete runs enter the ledger: a timed-out partial's
        # throughput and peak nodes would skew the family history.
        self._ledger_record_run(job, final)
        # job-done lands AFTER the store write: a crash in between replays
        # the job as incomplete and the resume finds the cached result —
        # the reverse order could journal "done" with no result on disk.
        self._journal_job_done(job.key, "completed")
        self._settle(job)
