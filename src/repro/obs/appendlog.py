"""Crash-safe JSONL append log: the durability primitive under the job
journal (:mod:`repro.service.journal`) and the run ledger
(:mod:`repro.obs.ledger`).

A log is one JSON object per line, a ``header`` record first.  Its owner
supplies a schema name, an empty-state factory whose ``apply(record)``
folds one record, and a ``live_records(state)`` compaction; the log keeps
an in-memory mirror of the folded state and enforces one contract:

* every append is written, flushed and ``fsync``'d before it returns;
* replay (:func:`read_records`) distrusts a **torn tail** — the final
  line is skipped whenever the file does not end in a newline, even if
  it happens to parse — and skips undecodable interior lines; both are
  counted (``<name>.replay.torn_skipped`` / ``.bad_skipped``), never
  fatal;
* a failed or torn append never takes a later record with it: the log
  remembers where its last complete record ends, drops the file handle
  after a failure, and truncates back to that offset before the next
  append, so the next record starts on a line of its own;
* writes degrade, they do not kill the service: an ``OSError`` (ENOSPC)
  sheds appends for :data:`DEGRADED_COOLDOWN` seconds
  (``<name>.write.errors`` / ``<name>.degraded.skipped``), while the
  mirror advances *before* the disk write, so the running process stays
  correct and only crash durability for a shed record is lost;
* rotation — at open and once the file outgrows its threshold — writes
  the header plus ``live_records(state)`` to a temporary file, fsyncs
  it, and ``os.replace``'s it over the log, so readers (and a crash
  mid-rotation) see the old file or the new one, never a mix.  The
  mirror is then refolded from those records, so it always equals a
  replay of the file.

Fault-injection sites (see :mod:`repro.faults`): ``torn-<name>`` cuts
the appended record short, as a crash mid-``write`` would, and
``enospc-<name>`` fails the append with ``ENOSPC``.  Both match on
``operation=<record type>`` and ``job_key=<record's job>``.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from typing import Callable, Dict, IO, Iterable, List, Optional

from .metrics import MetricsRegistry

__all__ = ["AppendLog", "complete_length", "fold", "read_log", "read_records"]

Record = Dict[str, object]

#: Seconds a log sheds appends after a failed write (ENOSPC etc.).
DEGRADED_COOLDOWN = 5.0


def read_log(path: str) -> bytes:
    """A log file's bytes; a missing or unreadable file reads as empty."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def complete_length(raw: bytes) -> int:
    """Bytes up to the end of the last complete (newline-terminated) line.

    Whatever follows is a torn tail: replay skips it, and a writer cuts
    the file back to this length before it appends.
    """
    return raw.rfind(b"\n") + 1


def read_records(
    raw: bytes, metrics: Optional[MetricsRegistry] = None, name: str = ""
) -> List[Record]:
    """Decode a log's complete records, skipping torn and undecodable lines.

    The final line, when not newline-terminated, is a torn trailing
    record (the crash signature) and is skipped even when it parses — a
    truncation can happen to parse, e.g. a trailing digit lost from a
    token.  Interior lines that are not JSON objects are skipped too.
    With ``metrics``, counts ``<name>.replay.records`` /
    ``.torn_skipped`` / ``.bad_skipped``.
    """
    end = complete_length(raw)
    torn = 1 if raw[end:].strip() else 0
    bad = 0
    records: List[Record] = []
    for line in raw[:end].split(b"\n")[:-1]:
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            bad += 1
    if metrics is not None:
        counts = {"records": len(records), "torn_skipped": torn, "bad_skipped": bad}
        for suffix, count in counts.items():
            if count:
                metrics.counter(f"{name}.replay.{suffix}").inc(count)
    return records


def fold(new_state: Callable[[], object], records: Iterable[Record]):
    """A fresh state from ``new_state()`` with every record applied."""
    state = new_state()
    for record in records:
        state.apply(record)
    return state


def _encode(record: Record) -> bytes:
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return (line + "\n").encode("utf-8")


class AppendLog:
    """One crash-safe JSONL log and the in-memory mirror of its state.

    Opening replays whatever a previous process left behind into
    :attr:`state`, then rotates.  Hold :attr:`lock` while reading
    :attr:`state`.
    """

    def __init__(
        self,
        path: str,
        name: str,
        schema: str,
        new_state: Callable[[], object],
        live_records: Callable[[object], List[Record]],
        max_bytes: int,
        metrics: MetricsRegistry,
    ) -> None:
        self.path = path
        self.name = name
        self.schema = schema
        self.max_bytes = max_bytes
        self.metrics = metrics
        for suffix in (
            "records.written",
            "write.errors",
            "degraded.skipped",
            "rotations",
            "replay.records",
            "replay.torn_skipped",
            "replay.bad_skipped",
        ):
            metrics.counter(f"{name}.{suffix}")
        self.lock = threading.RLock()
        self._new_state = new_state
        self._live_records = live_records
        self._handle: Optional[IO[bytes]] = None
        self._degraded_until = 0.0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        raw = read_log(path)
        #: File size at the end of the last complete record: an append
        #: that (re)opens the file truncates back to it first.
        self._size = complete_length(raw)
        self.state = fold(new_state, read_records(raw, metrics, name))
        self._rotate()

    @property
    def degraded(self) -> bool:
        """True while appends are being shed after a write failure."""
        return time.monotonic() < self._degraded_until

    def append(self, record: Record, rotate_above: Optional[int] = None) -> None:
        """Fold ``record`` into the mirror, then durably append it.

        Rotates once the file outgrows ``rotate_above`` bytes (default
        ``max_bytes``).
        """
        line = _encode(record)
        with self.lock:
            self.state.apply(record)
            now = time.monotonic()
            if now < self._degraded_until:
                self.metrics.counter(f"{self.name}.degraded.skipped").inc()
                return
            # Imported here: repro.faults imports repro.obs.
            from ..faults.inject import get_injector

            injector = get_injector()
            site = {"operation": str(record.get("rec")), "job_key": record.get("job")}
            try:
                if injector is not None and injector.fire(
                    f"enospc-{self.name}", **site
                ):
                    raise OSError(errno.ENOSPC, "No space left on device [injected]")
                handle = self._open()
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                self._fail(now)
                return
            self.metrics.counter(f"{self.name}.records.written").inc()
            if injector is not None and injector.fire(f"torn-{self.name}", **site):
                # Cut the record short, as a crash mid-write would.
                self._drop_handle()
                try:
                    os.truncate(self.path, self._size + len(line) - len(line) // 2)
                except OSError:
                    pass
                return
            self._size += len(line)
            if self._size > (self.max_bytes if rotate_above is None else rotate_above):
                self._rotate()

    def flush(self) -> None:
        """Force any buffered bytes to disk (drain path)."""
        with self.lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError:
                    self.metrics.counter(f"{self.name}.write.errors").inc()

    def close(self) -> None:
        with self.lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass
                self._drop_handle()

    def _open(self) -> IO[bytes]:
        if self._handle is None:
            self._handle = open(self.path, "ab")
            # Cut whatever a failed or torn append left past the last
            # complete record, so the next record starts its own line.
            self._handle.truncate(self._size)
        return self._handle

    def _drop_handle(self) -> None:
        """Close the handle without letting a half-flushed buffer reach a
        later append (the next append reopens and truncates)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _fail(self, now: float) -> None:
        self.metrics.counter(f"{self.name}.write.errors").inc()
        self._degraded_until = now + DEGRADED_COOLDOWN
        self._drop_handle()

    def _rotate(self) -> None:
        """Atomically rewrite the log as its header plus the live records."""
        records = [{"rec": "header", "schema": self.schema}]
        records.extend(self._live_records(self.state))
        data = b"".join(_encode(record) for record in records)
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            self._drop_handle()
            os.replace(tmp, self.path)
        except OSError:
            self._fail(time.monotonic())
            try:
                os.remove(tmp)
            except OSError:
                pass
            return
        self._size = len(data)
        self.metrics.counter(f"{self.name}.rotations").inc()
        self.state = fold(self._new_state, records)
