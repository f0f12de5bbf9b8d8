"""Content-addressed result store: in-memory LRU over on-disk JSON.

Results are keyed by the job's SHA-256 content hash (:meth:`JobSpec.job_key`).
An ended job lives here only, as one record that
:meth:`ResultStore.job_status` reads.  Three kinds of entries live under
the store directory:

* ``results/<key>.json`` — final :class:`StochasticResult` (plus the spec
  that produced it, for provenance and CLI display);
* ``partials/<key>.json`` — end record of a job that ended without its
  full result (cancelled, failed, cut short by its deadline), written
  once by the scheduler as the job ends, even with no trajectory run: how
  it ended (``end``), the trajectory spans it completed and their merged
  partial result, which a resubmission resumes from instead of restarting
  at trajectory 0 (a job still running keeps its progress in the
  write-ahead journal, :mod:`repro.service.journal`);
* ``queue/<key>.json`` — specs spooled by ``repro submit`` awaiting a
  ``repro serve`` batch runner (managed by :mod:`repro.service.serve`).

Both records also keep how the job ran (``run``).  A partial of an older
build has no ``end``: it ended completed if its deadline cut it short,
else failed.

Integrity
---------
Every on-disk entry is an envelope ``{"schema": "repro.store/v2",
"sha256": <hex>, "payload": {...}}`` where the digest covers the
payload's canonical JSON.  Reads verify the digest; an entry that fails —
torn write, flipped bit, unknown schema, unparsable JSON — is
**quarantined** to a ``*.corrupt`` sibling, counted in the store's
``store.corruption.*`` metrics, and reported as a cache miss.  Corruption
is never a silent ``None``: the quarantined file survives for post-mortem
and the counters surface through ``repro stats`` / ``repro cache show``.
Pre-checksum (v1) entries — a bare payload object — are still readable.

Both records enter the in-memory LRU before the disk, so a write the disk
refuses still answers reads in process.  A store constructed with
``directory=None`` is memory-only (its LRU alone) — used by the
:class:`~repro.stochastic.runner.StochasticSimulator` client, which must
not write to disk behind the caller's back.  All reads return independent
copies so callers can never mutate cached state in place.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import (
    JobCancelledError,
    JobFailedError,
    PoisonChunkError,
    StoreCorruptionError,
    WorkerPoolBrokenError,
)
from ..faults.inject import get_injector
from ..obs.metrics import MetricsRegistry
from ..stochastic.results import StochasticResult
from .job import JobState, JobStatus, job_engine, spec_of

__all__ = [
    "ResultStore",
    "StoreCorruptionError",
    "check_end",
    "default_store_directory",
]

#: Environment variable overriding the default on-disk store location.
STORE_ENV = "REPRO_STORE_DIR"

#: Envelope schema for checksummed entries; bump when the layout changes.
STORE_SCHEMA = "repro.store/v2"

Span = Tuple[int, int]  #: (first_trajectory, num_trajectories)


def check_end(key: str, end: Dict[str, object]) -> None:
    """Raise the typed error of a job that ended failed or cancelled, as its
    ``end`` (a store record's, or a live job's) has it:
    :class:`PoisonChunkError` for a quarantined chunk, with its
    ``diagnosis``; :class:`WorkerPoolBrokenError` when the respawn circuit
    breaker opened; :class:`JobFailedError` for any other failure;
    :class:`JobCancelledError` on cancellation."""
    if end["state"] == JobState.FAILED:
        message = end.get("error") or "job failed"
        if end.get("kind") == "poison":
            raise PoisonChunkError(message, diagnosis=end.get("diagnosis"))
        if end.get("kind") == "breaker":
            raise WorkerPoolBrokenError(message)
        raise JobFailedError(message)
    if end["state"] == JobState.CANCELLED:
        raise JobCancelledError(f"job {key[:16]}… was cancelled")


def default_store_directory() -> str:
    """Resolve the CLI's store directory (env override, then XDG cache)."""
    override = os.environ.get(STORE_ENV)
    if override:
        return override
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(cache_home, "repro-sim")


def _canonical_payload_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical_payload_json(payload).encode("utf-8")).hexdigest()


class ResultStore:
    """LRU-fronted, content-addressed store of simulation results."""

    def __init__(self, directory: Optional[str] = None, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.directory = directory
        self.capacity = capacity
        #: key -> (kind, payload) of recent records.
        self._memory: "OrderedDict[str, Tuple[str, Dict[str, object]]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Human-readable detail of the most recent corruption / write
        #: failure (diagnostics for logs and tests; counters are canonical).
        self.last_corruption: Optional[str] = None
        self.last_write_error: Optional[str] = None
        #: Store-side observability: corruption quarantines and write
        #: failures by kind (see docs/ROBUSTNESS.md for the catalogue).
        self.metrics = MetricsRegistry()
        for name in (
            "store.corruption.quarantined",
            "store.write.errors",
            "faults.recovered.store_quarantine",
            "faults.recovered.write_skipped",
        ):
            self.metrics.counter(name)
        if directory is not None:
            for sub in ("results", "partials", "queue"):
                os.makedirs(os.path.join(directory, sub), exist_ok=True)

    # -- path helpers -----------------------------------------------------

    def _path(self, kind: str, key: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, kind, f"{key}.json")

    # -- verified read / checksummed write --------------------------------

    def _quarantine(self, path: str, kind: str, error: Exception) -> None:
        """Move a corrupt entry aside so it can never answer a read again."""
        corrupt = f"{path}.corrupt"
        try:
            os.replace(path, corrupt)
        except OSError:
            try:  # cannot even rename — remove so the poison stops here
                os.remove(path)
            except OSError:
                pass
        self.metrics.counter("store.corruption.quarantined").inc()
        self.metrics.counter(f"store.corruption.{kind}").inc()
        self.metrics.counter("faults.recovered.store_quarantine").inc()
        self.last_corruption = f"{os.path.basename(path)}: {error}"

    def _read_verified(self, path: str) -> Optional[Dict[str, object]]:
        """Parse and integrity-check one entry; raises on corruption."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None  # transiently unreadable is a miss, not corruption
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            # Flipped bits routinely produce invalid UTF-8 — that is
            # corruption to quarantine, not an exception to propagate.
            raise StoreCorruptionError(f"undecodable bytes ({error})") from error
        try:
            data = json.loads(text)
        except ValueError as error:
            raise StoreCorruptionError(f"unparsable JSON ({error})") from error
        if not isinstance(data, dict):
            raise StoreCorruptionError("entry is not a JSON object")
        schema = data.get("schema")
        if schema == STORE_SCHEMA:
            payload = data.get("payload")
            if not isinstance(payload, dict):
                raise StoreCorruptionError("envelope has no payload object")
            digest = data.get("sha256")
            actual = _payload_digest(payload)
            if digest != actual:
                raise StoreCorruptionError(
                    f"checksum mismatch (stored {str(digest)[:12]}…, "
                    f"computed {actual[:12]}…)"
                )
            return payload
        if schema is not None:
            raise StoreCorruptionError(f"unknown store schema {schema!r}")
        return data  # legacy v1 entry: bare payload, no checksum

    def _read_entry(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        """Payload for one entry, quarantining corruption (reported as miss)."""
        path = self._path(kind, key)
        if path is None or not os.path.exists(path):
            return None
        try:
            return self._read_verified(path)
        except StoreCorruptionError as error:
            self._quarantine(path, kind, error)
            return None

    def _write_json(
        self, kind: str, key: str, payload: Dict[str, object], operation: str
    ) -> None:
        """Atomically write a checksummed envelope (with fault injection).

        Raises ``OSError`` on write failure — callers decide whether a
        lost write is fatal (queue spooling) or degradable (caching).
        """
        path = self._path(kind, key)
        assert path is not None
        injector = get_injector()
        if injector is not None and injector.fire(
            "enospc", operation=operation, job_key=key
        ):
            raise OSError(errno.ENOSPC, "No space left on device [injected]")
        envelope = {
            "schema": STORE_SCHEMA,
            "sha256": _payload_digest(payload),
            "payload": payload,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        os.replace(tmp, path)  # atomic: readers see old or new, never torn
        if injector is not None:
            if injector.fire("torn-write", operation=operation, job_key=key):
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, size // 2))
            if injector.fire("bit-flip", operation=operation, job_key=key):
                with open(path, "r+b") as handle:
                    raw = handle.read()
                    position = len(raw) // 2
                    handle.seek(position)
                    handle.write(bytes([raw[position] ^ 0xFF]))

    def _write_cached(
        self, kind: str, key: str, payload: Dict[str, object], operation: str
    ) -> None:
        """Best-effort cache write: failures are counted, never raised."""
        if self.directory is None:
            return
        try:
            self._write_json(kind, key, payload, operation)
        except OSError as error:
            self.metrics.counter("store.write.errors").inc()
            self.metrics.counter("faults.recovered.write_skipped").inc()
            self.last_write_error = f"{operation} {key[:16]}…: {error}"

    # -- records: memory first, then disk ---------------------------------

    def _lookup(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        """The ``kind`` payload for ``key``, remembered once read from disk."""
        held = self._memory.get(key)
        if held is not None and held[0] == kind:
            self._memory.move_to_end(key)
            return held[1]
        entry = self._read_entry(kind, key)
        if entry is not None:
            self._remember(key, kind, entry)
        return entry

    def _remember(self, key: str, kind: str, entry: Dict[str, object]) -> None:
        self._memory[key] = (kind, entry)
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def record(self, key: str) -> Optional[Dict[str, object]]:
        """The record of ended job ``key`` (a final result's payload, else a
        partial's, with ``spans``) with ``end`` set, or None.  Counts no
        cache hit or miss."""
        entry = self._lookup("results", key)
        if entry is not None:
            return dict(entry, end={"state": "completed"})
        entry = self._lookup("partials", key)
        if entry is None or not isinstance(entry.get("result"), dict):
            return None
        end = entry.get("end")
        if end is None:  # a partial of an older build: a deadline, or a failure
            end = {"state": "completed" if entry["result"].get("timed_out") else "failed"}
        return dict(entry, end=end)

    def job_status(self, key: str, journaled=None) -> JobStatus:
        """Status of ``key``, given the caller's journal entry for it: the
        final result; else an incomplete journal entry, RUNNING with its
        committed chunks' progress; else the end record; else the spool,
        QUEUED.  Raises ``KeyError`` when none knows the key."""
        record = self.record(key)
        spec = None if journaled is None else spec_of(journaled.spec_dict)
        final = record is not None and "spans" not in record
        if spec is not None and not journaled.done and not final:
            _, partial = journaled.checkpoint(spec)
            try:  # the journal keeps no clock: time the spooled submission
                partial.elapsed_seconds = time.time() - os.path.getmtime(
                    self._path("queue", key)
                )
            except (OSError, TypeError):  # not spooled, or no directory
                pass
            ran_on = partial.backend_kind if partial.completed_trajectories else None
            return JobStatus.of(
                key, JobState.RUNNING, partial, engine=job_engine(spec, ran_on)
            )
        if record is not None:
            result = StochasticResult.from_dict(record["result"])
            end = record["end"]
            return JobStatus.of(
                key, JobState(end["state"]), result, method=result.method,
                retries=(record.get("run") or {}).get("retries", 0),
                engine=job_engine(None, result.backend_kind), error=end.get("error"),
            )
        if key in self.queued_keys():
            spec = spec_of(self.get_queued(key))
            return JobStatus(
                key=key,
                state=JobState.QUEUED,
                circuit_name=spec.circuit.name if spec else "?",
                requested_trajectories=spec.trajectories if spec else 0,
                engine=job_engine(spec),
            )
        raise KeyError(f"unknown job {key!r}")

    def ended_result(self, key: str) -> Optional[StochasticResult]:
        """The result of ended job ``key`` (an independent copy): its final
        result, or the partial of a job its deadline cut short; None when
        no record holds the key.  A job that failed or was cancelled raises
        its typed error (:func:`check_end`).  Counts no cache hit or miss."""
        record = self.record(key)
        if record is None:
            return None
        check_end(key, record["end"])
        return StochasticResult.from_dict(record["result"])

    # -- final results ----------------------------------------------------

    def get(self, key: str) -> Optional[StochasticResult]:
        """Stored final result for ``key`` (an independent copy), or None."""
        entry = self._lookup("results", key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return StochasticResult.from_dict(entry["result"])

    def put(
        self,
        key: str,
        result: StochasticResult,
        spec_dict: Optional[Dict[str, object]] = None,
        run: Optional[Dict[str, object]] = None,
    ) -> None:
        """Store a final result (with its spec and ``run``) and drop any
        partial it supersedes.

        The disk write is best-effort: a full disk degrades the store to
        memory-only for this entry (counted in ``store.write.errors``)
        instead of failing the job that produced the result.
        """
        entry: Dict[str, object] = {"result": result.to_dict()}
        if spec_dict is not None:
            entry["spec"] = spec_dict
        if run is not None:
            entry["run"] = run
        self._remember(key, "results", entry)
        self._write_cached("results", key, entry, "put")
        self.delete_partial(key)

    # -- end-short partials -----------------------------------------------

    def get_partial(self, key: str) -> Optional[Tuple[List[Span], StochasticResult]]:
        """Checkpoint for ``key``: completed spans + merged partial result.
        None unless the spans cover a trajectory: the end record of a job
        that never ran one is not a checkpoint."""
        entry = self._lookup("partials", key)
        if entry is None:
            return None
        try:
            spans = [(int(first), int(count)) for first, count in entry["spans"]]
            result = StochasticResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError) as error:
            # Structurally broken despite a valid checksum (schema skew):
            # quarantine like any other corruption rather than crash resume.
            self._memory.pop(key, None)
            path = self._path("partials", key)
            if path is not None:
                self._quarantine(path, "partials", StoreCorruptionError(str(error)))
            return None
        if not any(count for _, count in spans):
            return None
        return spans, result

    def put_partial(self, key: str, spans: List[Span], result: StochasticResult,
                    end: Optional[Dict[str, object]] = None,
                    run: Optional[Dict[str, object]] = None) -> None:
        """Record a job that ended short, with or without trajectories.
        Best-effort like :meth:`put`: a failed disk write costs other
        processes the resume and the end state, not the job."""
        entry = {"spans": [[first, count] for first, count in spans],
                 "result": result.to_dict(), "end": end, "run": run}
        self._remember(key, "partials", entry)
        self._write_cached("partials", key, entry, "put_partial")

    def delete_partial(self, key: str) -> None:
        held = self._memory.get(key)
        if held is not None and held[0] == "partials":
            del self._memory[key]
        path = self._path("partials", key)
        if path is not None and os.path.exists(path):
            try:
                os.remove(path)
            except OSError:
                pass

    # -- queued specs ------------------------------------------------------

    def put_queued(self, key: str, spec_dict: Dict[str, object]) -> None:
        """Spool a job spec for a batch runner.  Raises ``OSError`` on
        write failure — a submission that was never durably queued must
        not be reported as queued."""
        if self.directory is None:
            raise ValueError("queueing requires a store with an on-disk directory")
        self._write_json("queue", key, spec_dict, "put_queued")

    def get_queued(self, key: str) -> Optional[Dict[str, object]]:
        """A spooled spec's payload dict (corruption quarantined → None)."""
        return self._read_entry("queue", key)

    def delete_queued(self, key: str) -> None:
        path = self._path("queue", key)
        if path is not None and os.path.exists(path):
            try:
                os.remove(path)
            except OSError:
                pass

    # -- enumeration / maintenance ----------------------------------------

    def _list_keys(self, kind: str) -> List[str]:
        keys = {key for key, (held, _) in self._memory.items() if held == kind}
        if self.directory is not None:
            folder = os.path.join(self.directory, kind)
            if os.path.isdir(folder):
                keys.update(
                    name[: -len(".json")]
                    for name in os.listdir(folder)
                    if name.endswith(".json")
                )
        return sorted(keys)

    def result_keys(self) -> List[str]:
        return self._list_keys("results")

    def partial_keys(self) -> List[str]:
        return self._list_keys("partials")

    def queued_keys(self) -> List[str]:
        return self._list_keys("queue")

    def corrupt_entries(self) -> List[str]:
        """Quarantined files (relative to the store directory), sorted."""
        if self.directory is None:
            return []
        found: List[str] = []
        for kind in ("results", "partials", "queue"):
            folder = os.path.join(self.directory, kind)
            if not os.path.isdir(folder):
                continue
            found.extend(
                os.path.join(kind, name)
                for name in os.listdir(folder)
                if name.endswith(".corrupt")
            )
        return sorted(found)

    def resolve_key(self, prefix: str) -> str:
        """Expand a key prefix to the unique full key it identifies.

        An ambiguous prefix lists the (truncated) matching keys so the
        caller can immediately retype a longer prefix.
        """
        keys = self.result_keys() + self.partial_keys() + self.queued_keys()
        if self.directory is not None:
            # A running job that was not spooled is only in the journal.
            from .journal import journal_path, replay_journal

            journaled = replay_journal(journal_path(self.directory))
            keys += [key for key, job in journaled.items() if not job.done]
        candidates = {key for key in keys if key.startswith(prefix)}
        if not candidates:
            raise KeyError(f"no job matching {prefix!r} in the store")
        if len(candidates) > 1:
            ordered = sorted(candidates)
            shown = ", ".join(f"{key[:12]}…" for key in ordered[:8])
            extra = len(ordered) - 8
            more = f" (+{extra} more)" if extra > 0 else ""
            raise KeyError(
                f"ambiguous key prefix {prefix!r}: matches {shown}{more} — "
                f"use a longer prefix"
            )
        return candidates.pop()

    def clear(self) -> int:
        """Drop every entry (results, partials, queued specs); return count."""
        removed = len(self._memory)
        self._memory.clear()
        if self.directory is not None:
            for kind in ("results", "partials", "queue"):
                folder = os.path.join(self.directory, kind)
                if not os.path.isdir(folder):
                    continue
                for name in os.listdir(folder):
                    if name.endswith(".json") or name.endswith(".corrupt"):
                        try:
                            os.remove(os.path.join(folder, name))
                            removed += 1
                        except OSError:
                            pass
        return removed

    def stats(self) -> Dict[str, object]:
        """Occupancy and hit-rate counters (``repro cache show``)."""
        disk_bytes = 0
        ledger_bytes = 0
        ledger_families = 0
        ledger_runs = 0
        if self.directory is not None:
            for kind in ("results", "partials", "queue"):
                folder = os.path.join(self.directory, kind)
                if not os.path.isdir(folder):
                    continue
                for name in os.listdir(folder):
                    try:
                        disk_bytes += os.path.getsize(os.path.join(folder, name))
                    except OSError:
                        pass
            # Run-ledger occupancy (repro.obs.ledger): family history that
            # feeds the measured dispatch cost model and `repro history`.
            from ..obs.ledger import ledger_path, replay_ledger

            runs_file = ledger_path(self.directory)
            try:
                ledger_bytes = os.path.getsize(runs_file)
            except OSError:
                ledger_bytes = 0
            if ledger_bytes:
                state = replay_ledger(runs_file)
                ledger_families = len(state.aggregates)
                ledger_runs = state.total_runs()
        counters = self.metrics.snapshot()["counters"]
        return {
            "directory": self.directory,
            "results": len(self.result_keys()),
            "partials": len(self.partial_keys()),
            "queued": len(self.queued_keys()),
            "corrupt": len(self.corrupt_entries()),
            "memory_entries": len(self._memory),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "disk_bytes": disk_bytes,
            "ledger_bytes": ledger_bytes,
            "ledger_families": ledger_families,
            "ledger_runs": ledger_runs,
            "quarantined": counters["store.corruption.quarantined"],
            "write_errors": counters["store.write.errors"],
        }
