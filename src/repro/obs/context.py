"""Cross-process trace correlation: deterministic span contexts.

A job's execution spans three kinds of processes — the submitting client,
the scheduler's dispatch thread, and the forked workers — and each records
its own trace events.  This module makes those events *stitchable*: a
:class:`TraceContext` (``trace_id`` / ``span_id`` / ``parent_id``)
travels with each chunk task and comes back inside the chunk's
:class:`~repro.stochastic.results.StochasticResult`, so
the scheduler (or anyone holding the merged result) can rebuild one
per-job span tree and export it as Chrome ``trace_event`` JSON
(``chrome://tracing`` / Perfetto).

Determinism is a design requirement, not an accident: span ids are SHA-256
digests of ``trace_id / span name / disambiguators`` rather than random
ids, so two executions of the same job produce *identical* tree shapes —
which is what lets the fault-injection suite assert that a worker crash
and its retry leave the same stitched structure on every rerun.  Retries
stay distinguishable because the dispatch attempt number is one of the
disambiguators.

Timestamps are ``time.monotonic()`` instants.  On Linux the monotonic
clock is system-wide, so spans recorded in forked workers align with the
scheduler's own spans on a single timeline — the same property the shared
job deadline already relies on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = [
    "TraceContext",
    "derive_span_id",
    "job_trace_context",
    "stitch_trace",
    "to_chrome_trace",
]

#: Hex digits kept from the SHA-256 digest for ids (64 bits — collision
#: risk is negligible at per-job span counts, and short ids keep the
#: serialised results small).
_ID_HEX_CHARS = 16


def derive_span_id(trace_id: str, name: str, *disambiguators: object) -> str:
    """Deterministic span id for ``name`` within a trace.

    Identical inputs always produce the identical id — the property the
    cross-rerun stitching tests pin down.  Pass enough ``disambiguators``
    (chunk index, dispatch attempt, ...) to keep sibling spans distinct.
    """
    material = "/".join([trace_id, name, *(str(part) for part in disambiguators)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:_ID_HEX_CHARS]


@dataclass(frozen=True)
class TraceContext:
    """Picklable span context propagated across process boundaries."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self, name: str, *disambiguators: object) -> "TraceContext":
        """Context for a child span of this one (deterministic id)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(self.trace_id, name, self.span_id, *disambiguators),
            parent_id=self.span_id,
        )

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


def job_trace_context(job_key: str) -> TraceContext:
    """Root context of one job's trace: the trace id *is* the job key prefix.

    Content-addressed job keys make the trace id content-addressed too —
    resubmitting the same spec correlates with the same trace, which is
    exactly the semantics the result cache already gives the job itself.
    """
    trace_id = job_key[:_ID_HEX_CHARS]
    return TraceContext(
        trace_id=trace_id, span_id=derive_span_id(trace_id, "job"), parent_id=None
    )


def stitch_trace(events: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Assemble correlated trace events into per-trace span trees.

    ``events`` are trace-event dictionaries (the
    :meth:`~repro.obs.tracing.Tracer.export` shape); entries without a
    ``span_id`` are ignored (they are uncorrelated scheduler housekeeping,
    not part of any tree).  Returns::

        {"roots": [<span>, ...],       # nodes with no parent, by start time
         "orphans": [<span>, ...],     # parent_id set but parent not found
         "spans": <total span count>}

    where each span node is the original event dict plus a ``children``
    list (sorted by start time).  An empty ``orphans`` list is the
    propagation invariant the service tests assert: every worker-side span
    must reach back to the job root.
    """
    spans: List[Dict[str, object]] = []
    by_id: Dict[str, Dict[str, object]] = {}
    for event in events:
        span_id = event.get("span_id")
        if not span_id:
            continue
        node = dict(event)
        node["children"] = []
        spans.append(node)
        # Duplicate span ids (a chunk span arriving via both the result and
        # a checkpoint) keep the first occurrence as the canonical node.
        by_id.setdefault(str(span_id), node)
    roots: List[Dict[str, object]] = []
    orphans: List[Dict[str, object]] = []
    for node in spans:
        if by_id.get(str(node["span_id"])) is not node:
            continue  # duplicate — already represented
        parent_id = node.get("parent_id")
        if parent_id is None:
            roots.append(node)
        else:
            parent = by_id.get(str(parent_id))
            if parent is None:
                orphans.append(node)
            else:
                parent["children"].append(node)
    by_start = lambda n: (n.get("start", 0.0), n.get("name", ""))  # noqa: E731
    for node in spans:
        node["children"].sort(key=by_start)
    roots.sort(key=by_start)
    orphans.sort(key=by_start)
    return {"roots": roots, "orphans": orphans, "spans": len(by_id)}


def to_chrome_trace(events: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Convert exported trace events to Chrome ``trace_event`` JSON.

    Every event becomes a complete ("X"-phase) slice with microsecond
    ``ts``/``dur``; instantaneous events become "i" instants.  The worker
    (or pid) attribute selects the row (``tid``), so chunk spans from
    different workers render as parallel tracks under one process.  Load
    the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    trace_events: List[Dict[str, object]] = []
    for event in events:
        attrs = dict(event.get("attrs", {}))
        tid = attrs.get("worker", attrs.get("pid", 0))
        try:
            tid = int(tid)
        except (TypeError, ValueError):
            tid = 0
        args = attrs
        for field in ("trace_id", "span_id", "parent_id"):
            if event.get(field) is not None:
                args[field] = event[field]
        duration_us = float(event.get("duration", 0.0)) * 1e6
        entry: Dict[str, object] = {
            "name": str(event.get("name", "?")),
            "ph": "X" if duration_us > 0.0 else "i",
            "ts": float(event.get("start", 0.0)) * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        }
        if entry["ph"] == "X":
            entry["dur"] = duration_us
        else:
            entry["s"] = "t"  # instant scope: thread
        trace_events.append(entry)
    trace_events.sort(key=lambda e: (e["ts"], e["name"]))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Iterable[Dict[str, object]]) -> None:
    """Serialise :func:`to_chrome_trace` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(events), handle, indent=2, sort_keys=True)
        handle.write("\n")
