"""Content-addressed result store: in-memory LRU over on-disk JSON.

Results are keyed by the job's SHA-256 content hash (:meth:`JobSpec.job_key`).
Three kinds of entries live under the store directory:

* ``results/<key>.json`` — final :class:`StochasticResult` (plus the spec
  that produced it, for provenance and CLI display);
* ``partials/<key>.json`` — checkpoint of a job that ended without its
  full result (cancelled, failed, cut short by its deadline): the
  trajectory spans it completed and their merged partial result, written
  once by the scheduler as the job ends, so a resubmission resumes
  instead of restarting at trajectory 0 (a job still running keeps its
  progress in the write-ahead journal, :mod:`repro.service.journal`);
* ``queue/<key>.json`` — specs spooled by ``repro submit`` awaiting a
  ``repro serve`` batch runner (managed by :mod:`repro.service.serve`).

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

A store constructed with ``directory=None`` is memory-only — used by the
:class:`~repro.stochastic.runner.StochasticSimulator` client, which must
not write to disk behind the caller's back.  All reads return independent
copies so callers can never mutate cached state in place.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import StoreCorruptionError
from ..faults.inject import get_injector
from ..obs.metrics import MetricsRegistry
from ..stochastic.results import StochasticResult

__all__ = ["ResultStore", "default_store_directory", "StoreCorruptionError"]

#: Environment variable overriding the default on-disk store location.
STORE_ENV = "REPRO_STORE_DIR"

#: Envelope schema for checksummed entries; bump when the layout changes.
STORE_SCHEMA = "repro.store/v2"

Span = Tuple[int, int]  #: (first_trajectory, num_trajectories)


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
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
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

    # -- final results ----------------------------------------------------

    def get(self, key: str) -> Optional[StochasticResult]:
        """Stored final result for ``key`` (an independent copy), or None."""
        entry = self._memory.get(key)
        if entry is None:
            entry = self._read_entry("results", key)
            if entry is not None:
                self._remember(key, entry)
        else:
            self._memory.move_to_end(key)
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
    ) -> None:
        """Store a final result and drop any checkpoint it supersedes.

        The disk write is best-effort: a full disk degrades the store to
        memory-only for this entry (counted in ``store.write.errors``)
        instead of failing the job that produced the result.
        """
        entry: Dict[str, object] = {"result": result.to_dict()}
        if spec_dict is not None:
            entry["spec"] = spec_dict
        self._remember(key, entry)
        self._write_cached("results", key, entry, "put")
        self.delete_partial(key)

    def get_spec_dict(self, key: str) -> Optional[Dict[str, object]]:
        """The job spec stored alongside a final result, if any."""
        entry = self._memory.get(key) or self._read_entry("results", key)
        if entry is None:
            return None
        return entry.get("spec")

    def _remember(self, key: str, entry: Dict[str, object]) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    # -- partial checkpoints ----------------------------------------------

    def get_partial(self, key: str) -> Optional[Tuple[List[Span], StochasticResult]]:
        """Checkpoint for ``key``: completed spans + merged partial result."""
        entry = self._read_entry("partials", key)
        if entry is None:
            return None
        try:
            spans = [(int(first), int(count)) for first, count in entry["spans"]]
            result = StochasticResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError) as error:
            # Structurally broken despite a valid checksum (schema skew):
            # quarantine like any other corruption rather than crash resume.
            path = self._path("partials", key)
            if path is not None:
                self._quarantine(path, "partials", StoreCorruptionError(str(error)))
            return None
        return spans, result

    def put_partial(self, key: str, spans: List[Span], result: StochasticResult) -> None:
        """Checkpoint a job that ended short (no-op for memory-only stores).

        Best-effort like :meth:`put`: a failed checkpoint write costs the
        resume, not the job.
        """
        if self.directory is None:
            return  # nothing would read the payload: do not build it
        self._write_cached(
            "partials",
            key,
            {"spans": [[first, count] for first, count in spans],
             "result": result.to_dict()},
            "put_partial",
        )

    def delete_partial(self, key: str) -> None:
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
        if self.directory is None:
            return sorted(self._memory) if kind == "results" else []
        folder = os.path.join(self.directory, kind)
        if not os.path.isdir(folder):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(folder)
            if name.endswith(".json")
        )

    def result_keys(self) -> List[str]:
        keys = set(self._memory) | set(self._list_keys("results"))
        return sorted(keys)

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
