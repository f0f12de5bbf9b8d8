"""Span-style trace events over a bounded in-memory buffer.

Where metrics answer "how much / how often", traces answer "what happened,
when, in what order".  A :class:`Tracer` records :class:`TraceEvent`
entries — either instantaneous events or timed spans — into a bounded
ring buffer, so long-lived processes (the job scheduler, a serve loop)
can keep tracing without unbounded growth.

Example::

    tracer = Tracer()
    with tracer.span("chunk.execute", chunk=3, worker=1):
        run_chunk()
    tracer.event("job.finalize", job=key[:16])
    for entry in tracer.export():
        print(entry["name"], entry["duration"], entry["attrs"])

The exported form is a list of plain dictionaries (JSON-able), ordered by
start time, with ``start`` measured on the monotonic clock.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List

__all__ = ["TraceEvent", "Tracer"]


@dataclass
class TraceEvent:
    """One recorded span or instantaneous event."""

    name: str
    start: float  #: monotonic-clock start time (seconds)
    duration: float = 0.0  #: zero for instantaneous events
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Bounded recorder of trace events (oldest entries evicted first)."""

    def __init__(self, max_events: int = 4096) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.dropped = 0

    def event(self, name: str, **attrs: object) -> TraceEvent:
        """Record an instantaneous event."""
        entry = TraceEvent(name=name, start=time.monotonic(), attrs=attrs)
        self._append(entry)
        return entry

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[TraceEvent]:
        """Record a timed span around a block (duration stamped on exit)."""
        entry = TraceEvent(name=name, start=time.monotonic(), attrs=attrs)
        try:
            yield entry
        finally:
            entry.duration = time.monotonic() - entry.start
            self._append(entry)

    def _append(self, entry: TraceEvent) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(entry)

    def export(self) -> List[Dict[str, object]]:
        """All buffered events as JSON-able dictionaries (start order)."""
        return [event.to_dict() for event in sorted(self._events, key=lambda e: e.start)]

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)
