"""Batch-runner mode: drain a spool directory of submitted jobs.

``repro submit`` serialises a :class:`JobSpec` into ``<store>/queue/<key>.json``;
:func:`serve` (the engine behind ``repro serve``) picks queued specs up in
submission order, runs them on a persistent :class:`Scheduler`, and leaves
final results in the same store and, while a job is still running, its
committed chunks in the store's write-ahead journal, where ``repro status``
and ``repro result`` (separate processes) find them.  This decouples
producers from the worker pool: many ``submit`` invocations feed one
long-lived ``serve`` process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Callable, List, Optional, Tuple

from ..exact.cost import estimate_costs
from ..obs.context import write_chrome_trace
from ..obs.export import EventLogWriter, MetricsExporter, to_openmetrics
from ..obs.ledger import RunLedger, ledger_path, replay_ledger
from ..obs.metrics import MetricsRegistry, derive_rates, merge_snapshots
from ..stochastic.results import StochasticResult
from .job import JobSpec, JobState, JobStatus, StreamingEstimate, job_engine
from .journal import journal_path, replay_journal
from .scheduler import Scheduler, SchedulerError
from .store import ResultStore

__all__ = ["enqueue_job", "list_queue", "list_jobs", "query_status", "serve"]


def enqueue_job(store: ResultStore, spec: JobSpec) -> Tuple[str, bool]:
    """Spool a job spec for a batch runner; returns (key, was_cached).

    A spec whose result is already stored is *not* enqueued — the
    submission is answered by the cache, no workers ever run.
    """
    if store.directory is None:
        raise ValueError("enqueue_job needs a store with an on-disk directory")
    key = spec.job_key()
    if store.get(key) is not None:
        return key, True
    store.put_queued(key, spec.to_dict())
    return key, False


def list_queue(store: ResultStore) -> List[str]:
    """Queued job keys in submission (mtime, then name) order."""
    if store.directory is None:
        return []
    folder = os.path.join(store.directory, "queue")
    if not os.path.isdir(folder):
        return []
    entries = []
    for name in os.listdir(folder):
        if not name.endswith(".json"):
            continue
        path = os.path.join(folder, name)
        try:
            entries.append((os.path.getmtime(path), name[: -len(".json")]))
        except OSError:
            continue
    return [key for _, key in sorted(entries)]


def _dispatch_preview(spec: Optional[JobSpec], history) -> Tuple[str, Optional[str]]:
    """(method, one-line dispatch evidence) a spec would resolve to.

    ``method="auto"`` specs are scored through the cost model against the
    store's run-ledger history — the same comparison the scheduler will
    make — and annotated ``auto:<choice>`` with the decision's rendered
    evidence line.  Explicit methods pass through without evidence.
    Best-effort: any scoring failure degrades to the raw method.
    """
    if spec is None:
        return "?", None
    if spec.method != "auto":
        return spec.method, None
    try:
        decision = estimate_costs(
            spec.circuit,
            spec.noise_model,
            spec.properties,
            spec.trajectories,
            backend_kind=spec.backend_kind,
            history=history,
        )
    except Exception:
        return spec.method, None
    return f"auto:{decision.method}", decision.render()


def list_jobs(store: ResultStore) -> List[dict]:
    """Resumable work visible in the store (``repro jobs``).

    One row per job, keyed by where the resumable state lives:
    ``journal`` (incomplete in the write-ahead journal — what
    ``serve --resume`` restarts, with the progress its committed chunks
    fold to, :meth:`~repro.service.journal.JournalJob.checkpoint`),
    ``queued`` (spooled spec not yet picked up), or ``checkpoint``
    (the partial of a run that ended short, resumable by plain
    resubmission).  Each row carries its resolved ``method`` and, for
    ``auto`` specs, the one-line ``dispatch`` evidence the cost model
    would cite — scored against the store's run-ledger history.  Rows
    bound for trajectories also name their ``engine`` (:func:`job_engine`:
    what committed chunks ran on, else ``auto`` for an undecided auto job).
    """
    rows: List[dict] = []
    seen = set()
    history = None
    if store.directory is not None:
        history = replay_ledger(ledger_path(store.directory)).aggregates
        for job in replay_journal(journal_path(store.directory)).values():
            if job.done:
                continue
            row: dict = {
                "key": job.key,
                "source": "journal",
                "planned_chunks": len(job.plan),
                "completed_chunks": len(job.completed),
                "completed_trajectories": 0,
                "trajectories": job.planned_trajectories(),
            }
            if job.spec_dict is not None:
                row["circuit"] = str(job.spec_dict.get("circuit_name", "?"))
                row["trajectories"] = int(job.spec_dict.get("trajectories", 0))
                journaled_spec = _spec_of(job.spec_dict)
                method, evidence = _dispatch_preview(journaled_spec, history)
                row["method"] = method
                if evidence is not None:
                    row["dispatch"] = evidence
                ran_on = None
                if journaled_spec is not None:
                    _, partial = job.checkpoint(journaled_spec)
                    row["completed_trajectories"] = partial.completed_trajectories
                    if partial.completed_trajectories:
                        ran_on = partial.backend_kind
                if ran_on is not None or not method.endswith("exact"):
                    row["engine"] = job_engine(journaled_spec, ran_on)
            rows.append(row)
            seen.add(job.key)
    for key in list_queue(store):
        if key in seen:
            continue
        spec = _dequeue(store, key)
        method, evidence = _dispatch_preview(spec, history)
        row = {
            "key": key,
            "source": "queued",
            "circuit": spec.circuit.name if spec else "?",
            "trajectories": spec.trajectories if spec else 0,
            "completed_trajectories": 0,
            "method": method,
        }
        if not method.endswith("exact"):
            row["engine"] = job_engine(spec)
        if evidence is not None:
            row["dispatch"] = evidence
        rows.append(row)
        seen.add(key)
    for key in store.partial_keys():
        if key in seen:
            continue
        checkpoint = store.get_partial(key)
        if checkpoint is None:
            continue
        _, partial = checkpoint
        rows.append(
            {
                "key": key,
                "source": "checkpoint",
                "circuit": partial.circuit_name,
                "trajectories": partial.requested_trajectories,
                "completed_trajectories": partial.completed_trajectories,
                # Checkpoints only ever come from stochastic execution.
                "method": "stochastic",
                "engine": job_engine(None, partial.backend_kind),
            }
        )
    return rows


def _spec_of(data: Optional[dict]) -> Optional[JobSpec]:
    """The spec a spooled or journaled spec dict holds, or None."""
    if data is None:
        return None
    try:
        return JobSpec.from_dict(data)
    except (KeyError, ValueError, TypeError):
        return None


def _dequeue(store: ResultStore, key: str) -> Optional[JobSpec]:
    # Checksum-verified; corruption quarantined.
    return _spec_of(store.get_queued(key))


def query_status(store: ResultStore, key: str) -> JobStatus:
    """Reconstruct a job's status from the store directory (cross-process).

    This is what lets ``repro status`` observe a job that a separate
    ``repro serve`` process is running.  Only a key the journal shows
    incomplete is RUNNING, with the progress its committed chunks fold to
    (:meth:`~repro.service.journal.JournalJob.checkpoint`).  A store
    partial is a run that ended short: it reads as the journal recorded
    its end while it holds the job, else COMPLETED when its deadline cut
    it short (as :meth:`Scheduler.status` reports in process), else FAILED.
    """

    def status_of(state: JobState, result: StochasticResult, **fields) -> JobStatus:
        fields.setdefault("engine", job_engine(None, result.backend_kind))
        return JobStatus(
            key=key,
            state=state,
            circuit_name=result.circuit_name,
            requested_trajectories=result.requested_trajectories,
            completed_trajectories=result.completed_trajectories,
            estimates={
                name: StreamingEstimate(
                    name=name,
                    mean=estimate.mean,
                    halfwidth=estimate.hoeffding_halfwidth(),
                    count=estimate.count,
                )
                for name, estimate in result.estimates.items()
                if estimate.count > 0
            },
            elapsed_seconds=result.elapsed_seconds,
            metrics=dict(result.metrics),
            **fields,
        )

    final = store.get(key)
    if final is not None:
        return status_of(JobState.COMPLETED, final, method=final.method)
    journaled = None
    if store.directory is not None:
        journaled = replay_journal(journal_path(store.directory)).get(key)
    spec = None if journaled is None else _spec_of(journaled.spec_dict)
    if spec is not None and not journaled.done:
        _, partial = journaled.checkpoint(spec)
        try:  # the journal keeps no clock: time the spooled submission
            queued = os.path.join(store.directory, "queue", f"{key}.json")
            partial.elapsed_seconds = time.time() - os.path.getmtime(queued)
        except OSError:
            pass
        ran_on = partial.backend_kind if partial.completed_trajectories else None
        return status_of(JobState.RUNNING, partial, engine=job_engine(spec, ran_on))
    checkpoint = store.get_partial(key)
    if checkpoint is not None:
        _, partial = checkpoint
        ended = (journaled and journaled.status) or (
            "completed" if partial.timed_out else "failed"
        )
        return status_of(JobState(ended), partial, error=journaled and journaled.error)
    if key in store.queued_keys():
        spec = _dequeue(store, key)
        return JobStatus(
            key=key,
            state=JobState.QUEUED,
            circuit_name=spec.circuit.name if spec else "?",
            requested_trajectories=spec.trajectories if spec else 0,
            engine=job_engine(spec),
        )
    raise KeyError(f"unknown job {key!r}")


class _Telemetry:
    """Live telemetry surface for one :func:`serve` process.

    Owns the OpenMetrics endpoint, the JSONL event stream, the heartbeat
    thread, and the per-job Chrome-trace writer.  Every piece is optional
    and best-effort — telemetry must never take the serve loop down — and
    the whole object is a no-op context manager when nothing is enabled.
    """

    def __init__(
        self,
        store: ResultStore,
        scheduler: Scheduler,
        metrics_port: Optional[int],
        events_log: Optional[str],
        trace_dir: Optional[str],
        heartbeat_interval: float,
        log: Callable[[str], None],
    ) -> None:
        self._store = store
        self._scheduler = scheduler
        self._trace_dir = trace_dir
        self._log = log
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._current_key: Optional[str] = None
        #: Last observed status — retained after a job completes so a
        #: scrape arriving just after the final chunk still sees the
        #: job's estimates and Hoeffding half-widths.
        self._last_status: Optional[JobStatus] = None
        self._stop = threading.Event()
        self._heartbeat: Optional[threading.Thread] = None
        self.exporter: Optional[MetricsExporter] = None
        self.events: Optional[EventLogWriter] = None
        if metrics_port is not None:
            self.exporter = MetricsExporter(
                self.render_openmetrics, port=metrics_port, registry=self.registry
            )
            log(f"[serve] metrics endpoint at {self.exporter.url}")
        if events_log is not None:
            self.events = EventLogWriter(events_log, registry=self.registry)
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(max(0.05, heartbeat_interval),),
                name="repro-serve-heartbeat",
                daemon=True,
            )
            self._heartbeat.start()

    # -- job lifecycle hooks (called from the serve loop) ---------------

    def job_started(self, key: str, spec: JobSpec) -> None:
        with self._lock:
            self._current_key = key
        self.emit(
            "job.start",
            job=key,
            circuit=spec.circuit.name,
            trajectories=spec.trajectories,
            backend=spec.backend_kind,
        )

    def job_finished(
        self, key: str, result=None, error: Optional[str] = None, decision=None,
        plan: Optional[Tuple[int, str]] = None,
    ) -> None:
        status = self._refresh_status()
        with self._lock:
            self._current_key = None
            if status is not None:
                self._last_status = status
        if error is not None:
            self.emit("job.failed", job=key, error=error)
        else:
            fields: dict = {
                "job": key,
                "completed": result.completed_trajectories,
                "elapsed_seconds": result.elapsed_seconds,
                "method": result.method,
            }
            if result.method != "exact":
                fields["engine"] = result.backend_kind
            if decision is not None:
                # Auto-dispatch evidence trail: what basis the cost model
                # routed on, citing ledger history when it was measured.
                fields["dispatch"] = decision.render()
                fields["dispatch_evidence"] = decision.evidence
                fields["fingerprint"] = decision.fingerprint
            if plan is not None:
                # How the trajectories were cut (Scheduler.plan_for).
                fields["chunks"], fields["chunking"] = plan
            self.emit("job.done", **fields)
            self._write_trace(key, result)

    def _write_trace(self, key: str, result) -> None:
        if self._trace_dir is None or not result.trace_events:
            return
        try:
            os.makedirs(self._trace_dir, exist_ok=True)
            path = os.path.join(self._trace_dir, f"{key[:16]}.trace.json")
            write_chrome_trace(path, result.trace_events)
            self.registry.counter("export.traces.written").inc()
            self._log(f"[serve] wrote Chrome trace {path}")
        except OSError as error:  # telemetry is best-effort
            self._log(f"[serve] trace write failed: {error}")

    # -- collection -----------------------------------------------------

    def _refresh_status(self) -> Optional[JobStatus]:
        with self._lock:
            key = self._current_key
            cached = self._last_status
        if key is None:
            return cached
        try:
            status = self._scheduler.status(key)
        except KeyError:
            return cached
        with self._lock:
            self._last_status = status
        return status

    def snapshot(self) -> dict:
        """Merged scheduler + store + export metrics with live gauges."""
        snapshot = merge_snapshots(
            self._scheduler.metrics_snapshot(), self.registry.snapshot()
        )
        snapshot.setdefault("gauges", {})["service.queue.depth"] = float(
            len(list_queue(self._store))
        )
        return snapshot

    def render_openmetrics(self) -> str:
        """Collect callback for :class:`MetricsExporter` (scrape thread)."""
        labeled = []
        status = self._refresh_status()
        if status is not None:
            job = status.key[:16]
            for name, estimate in sorted(status.estimates.items()):
                labels = {"property": name, "job": job}
                labeled.append(("job.estimate.mean", labels, estimate.mean))
                labeled.append(
                    ("job.estimate.halfwidth", labels, estimate.halfwidth)
                )
                labeled.append(
                    ("job.estimate.count", labels, float(estimate.count))
                )
            labeled.append(
                (
                    "job.progress.trajectories",
                    {"job": job, "state": status.state.value},
                    float(status.completed_trajectories),
                )
            )
        return to_openmetrics(self.snapshot(), labeled)

    # -- event stream ---------------------------------------------------

    def emit(self, event: str, **fields: object) -> None:
        if self.events is None:
            return
        record = {"event": event, "ts": time.time()}
        record.update(fields)
        try:
            self.events.write(record)
        except OSError as error:
            self._log(f"[serve] event write failed: {error}")

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                snapshot = self.snapshot()
                fields = {
                    "queue_depth": snapshot["gauges"]["service.queue.depth"],
                    "counters": snapshot.get("counters", {}),
                    "rates": derive_rates(snapshot),
                }
                status = self._refresh_status()
                if status is not None:
                    fields["job"] = status.key[:16]
                    fields["state"] = status.state.value
                    fields["completed"] = status.completed_trajectories
                    fields["estimates"] = {
                        name: {"mean": est.mean, "halfwidth": est.halfwidth}
                        for name, est in sorted(status.estimates.items())
                    }
                self.emit("heartbeat", **fields)
            except Exception as error:  # never kill telemetry
                self._log(f"[serve] heartbeat failed: {error}")

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=5.0)
        if self.exporter is not None:
            self.exporter.close()
        if self.events is not None:
            self.events.close()

    def __enter__(self) -> "_Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _run_one(
    store: ResultStore,
    scheduler: Scheduler,
    telemetry: _Telemetry,
    log: Callable[[str], None],
    draining: threading.Event,
    key: str,
    spec: JobSpec,
) -> bool:
    """Submit one job and poll it to completion (or until a drain).

    Returns True when the job reached a terminal state (success or
    failure: counted as processed, dequeued).  Returns False when a drain
    interrupted the wait — the job stays journal-incomplete and spooled,
    exactly the state the next ``serve`` restarts from.
    """
    journaled = None if scheduler.journal is None else scheduler.journal.job(key)
    if journaled is not None and not journaled.done:
        # The submission resumes it from the progress the journal holds.
        completed, planned = len(journaled.completed), len(journaled.plan)
        log(f"[serve] resuming job {key[:16]}… ({completed}/{planned} "
            f"chunks already committed)")
        telemetry.emit("job.resume", job=key, completed_chunks=completed,
                       planned_chunks=planned)
    telemetry.job_started(key, spec)
    try:
        scheduler.submit(spec)
    except SchedulerError as error:
        log(f"[serve] job {key[:16]}… FAILED: {error}")
        telemetry.job_finished(key, error=str(error))
        store.delete_queued(key)
        return True
    while True:
        # Short poll instead of a blocking wait so SIGTERM/SIGINT (whose
        # handlers only set the drain event) interrupt promptly.
        try:
            result = scheduler.result(key, timeout=0.2)
        except TimeoutError:
            if draining.is_set():
                return False
            continue
        except SchedulerError as error:
            log(f"[serve] job {key[:16]}… FAILED: {error}")
            telemetry.job_finished(key, error=str(error))
            store.delete_queued(key)
            return True
        break
    if result.method == "exact":
        log(
            f"[serve] job {key[:16]}… done: exact density-matrix pass "
            f"in {result.elapsed_seconds:.3f} s"
        )
    else:
        log(
            f"[serve] job {key[:16]}… done: "
            f"{result.completed_trajectories}/{spec.trajectories} "
            f"trajectories on the {result.backend_kind} engine "
            f"in {result.elapsed_seconds:.3f} s"
        )
    decision = scheduler.decision_for(key)
    if decision is not None:
        log(f"[serve] job {key[:16]}… {decision.render()}")
    telemetry.job_finished(
        key, result=result, decision=decision, plan=scheduler.plan_for(key)
    )
    store.delete_queued(key)
    return True


def _resume_incomplete(
    store: ResultStore,
    scheduler: Scheduler,
    telemetry: _Telemetry,
    log: Callable[[str], None],
    draining: threading.Event,
) -> int:
    """Run every journal-incomplete job, spooled or not, before the queue;
    returns the count run."""
    processed = 0
    for journaled in scheduler.journal.incomplete_jobs():
        if draining.is_set():
            break
        spec = _spec_of(journaled.spec_dict)
        if spec is None:  # torn before the submit record, or unusable
            log(f"[serve] journal entry {journaled.key[:16]}… has no usable "
                f"spec; skipping")
        elif _run_one(store, scheduler, telemetry, log, draining, journaled.key, spec):
            processed += 1
    return processed


def serve(
    store: ResultStore,
    workers: int = 2,
    once: bool = False,
    poll_interval: float = 0.5,
    chunk_size: Optional[int] = None,
    max_retries: int = 2,
    max_jobs: Optional[int] = None,
    log: Callable[[str], None] = print,
    metrics_port: Optional[int] = None,
    events_log: Optional[str] = None,
    trace_dir: Optional[str] = None,
    heartbeat_interval: float = 1.0,
    resume: bool = False,
    drain_timeout: float = 10.0,
    install_signal_handlers: bool = True,
) -> int:
    """Process queued jobs until the queue stays empty (``once``) or forever.

    Returns the number of jobs executed.  Jobs that fail (retry budget
    exhausted) are logged and dequeued so one poisoned spec cannot wedge
    the queue; their partial checkpoints remain for post-mortem or resume.

    Durability (docs/ROBUSTNESS.md, "Durability & restart semantics"):
    the scheduler opens the store's write-ahead job journal — every
    submission, chunk plan, committed chunk result, and completion is
    journaled with fsync, so a hard death (``kill -9``) loses at most
    uncommitted chunk work.  Every submission of a job the journal shows
    incomplete resumes from the progress it journaled, planning only its
    missing trajectories, with results bit-identical to an uninterrupted
    run: a spooled job resumes on a plain ``serve``.  ``resume=True``
    first runs every journal-incomplete job, spooled or not.
    SIGTERM/SIGINT trigger a graceful drain: stop admitting work, let
    in-flight chunks land (bounded by ``drain_timeout`` seconds), leave
    the rest journal-incomplete, flush journal/metrics/events, and return
    normally (exit 0); a second signal exits immediately.

    Telemetry (all optional, see docs/OBSERVABILITY.md):

    * ``metrics_port`` — serve OpenMetrics text on ``GET /metrics`` at
      that port (0 binds an ephemeral one; the ``serve.start`` event and
      the startup log line carry the actual bound port), including live
      per-property estimate means and Hoeffding half-widths.
    * ``events_log`` — append JSONL telemetry events (job transitions
      plus a periodic heartbeat every ``heartbeat_interval`` seconds),
      fsync'd per record so the log survives a crash torn at worst.
    * ``trace_dir`` — write a Chrome ``trace_event`` JSON file per
      completed job, stitched from the job's cross-process spans.
    """
    processed = 0
    ledger: Optional[RunLedger] = None
    if store.directory is not None:
        # The run ledger lives beside the journal the scheduler opens: the
        # journal makes work resumable, the ledger makes its cost
        # observable — and feeds the measured dispatch model for every
        # later job of the same family.
        ledger = RunLedger(ledger_path(store.directory))
    draining = threading.Event()

    def _on_signal(signum: int, _frame) -> None:
        if draining.is_set():
            os._exit(128 + signum)  # second signal: immediate exit
        draining.set()

    restore: List[Tuple[int, object]] = []
    if install_signal_handlers:
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                restore.append((signum, signal.signal(signum, _on_signal)))
        except ValueError:
            restore = []  # not the main thread (embedded/test use)
    try:
        with Scheduler(
            workers=workers,
            store=store,
            chunk_size=chunk_size,
            max_retries=max_retries,
            ledger=ledger,
        ) as scheduler, _Telemetry(
            store, scheduler, metrics_port, events_log, trace_dir,
            heartbeat_interval, log,
        ) as telemetry:
            journal = scheduler.journal
            telemetry.emit(
                "serve.start",
                pid=os.getpid(),
                resume=resume,
                journal=None if journal is None else journal.path,
                metrics_port=(
                    None if telemetry.exporter is None else telemetry.exporter.port
                ),
            )
            if resume and journal is not None:
                processed += _resume_incomplete(
                    store, scheduler, telemetry, log, draining
                )
                if max_jobs is not None and processed >= max_jobs:
                    telemetry.emit(
                        "serve.stop",
                        processed=processed,
                        counters=telemetry.snapshot().get("counters", {}),
                    )
                    return processed
            while not draining.is_set():
                keys = list_queue(store)
                if not keys:
                    if once:
                        break
                    draining.wait(poll_interval)
                    continue
                for key in keys:
                    if draining.is_set():
                        break
                    spec = _dequeue(store, key)
                    if spec is None:
                        log(f"[serve] dropping unreadable queue entry {key[:16]}…")
                        store.delete_queued(key)
                        continue
                    log(
                        f"[serve] job {key[:16]}… ({spec.circuit.name}, "
                        f"M={spec.trajectories}, backend={spec.backend_kind}, "
                        f"method={spec.method})"
                    )
                    if _run_one(store, scheduler, telemetry, log, draining, key, spec):
                        processed += 1
                    if max_jobs is not None and processed >= max_jobs:
                        telemetry.emit(
                            "serve.stop",
                            processed=processed,
                            counters=telemetry.snapshot().get("counters", {}),
                        )
                        return processed
            if draining.is_set():
                clean = scheduler.drain(drain_timeout)
                telemetry.emit("serve.drain", clean=clean, processed=processed)
                log(
                    f"[serve] drained ({'clean' if clean else 'forced'}) "
                    f"after signal; exiting"
                )
            telemetry.emit(
                "serve.stop",
                processed=processed,
                counters=telemetry.snapshot().get("counters", {}),
            )
    finally:
        for signum, previous in restore:
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):
                pass
        if ledger is not None:
            ledger.close()
    return processed
