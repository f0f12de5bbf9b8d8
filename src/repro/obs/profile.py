"""Instrumenting profiler for the decision-diagram hot loop.

``repro stats`` explains a finished run; this module explains *where the
time went inside it*: which gate of the circuit, and which DD primitive
under that gate (multiply / add / kron / normalise / GC), consumed the
wall clock — plus how the diagram's node count grew while it ran.  That
attribution is what makes regressions in the prefix/gateplan engine
visible as "gate 7's multiply got 4x slower" instead of "GHZ-15 is slower".

Design constraints, in priority order:

1. **Zero cost when off.**  Profiling is gated by the ``REPRO_PROFILE``
   environment variable (default ``off``).  Call sites hold the module
   attribute :data:`ACTIVE`; when it is ``None`` the per-gate and per-op
   hooks are a single ``is None`` test.  The env var is the only switch
   because it is the only channel that reaches forked workers without
   entering the content-addressed job key (same precedent as
   ``REPRO_NORM_GUARD`` / ``REPRO_TRAJECTORY_MODE``).
2. **Deterministic output shape.**  Aggregation is keyed by frame path —
   ``span;trajectory;g3:cx;dd.multiply`` — not by sampling, so two runs of
   the same circuit produce the same set of keys (timings vary, structure
   does not).
3. **No double counting.**  Every aggregated value is *self* (exclusive)
   time: a frame's total minus its children's totals, with DD ops counted
   as leaf frames.  Folded-stack lines therefore sum to the profiled wall
   time, which is the property the acceptance test pins (within 10% of the
   measured span wall).

DD ops are recorded non-reentrantly: :meth:`HotLoopProfiler.op_begin`
returns ``None`` while another op is active, so a ``multiply`` that calls
``add`` internally attributes the whole interval to ``multiply`` — the
recursive bodies themselves stay uninstrumented (see
:class:`~repro.dd.package.DDPackage`'s private ``_multiply``/``_add``).

Profiles ride in :class:`~repro.stochastic.results.StochasticResult`
(plain JSON dictionaries, additively mergeable across chunks and
processes) and render as ``frame;frame;op <microseconds>`` folded-stack
lines for `flamegraph.pl`/speedscope via :func:`folded_lines`.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PROFILE_ENV",
    "ACTIVE",
    "HotLoopProfiler",
    "profiling_enabled",
    "merge_profiles",
    "folded_lines",
    "attributed_seconds",
]

#: Environment switch: anything other than off/0/false/no/empty enables it.
PROFILE_ENV = "REPRO_PROFILE"

#: Profile payload schema version (bump on shape changes).
PROFILE_VERSION = 1

#: The currently installed profiler, or None (the common, fast case).
#: Hot paths read this module attribute directly; only
#: ``run_trajectory_span`` assigns it.
ACTIVE: Optional["HotLoopProfiler"] = None


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for instrumentation (default: no)."""
    value = os.environ.get(PROFILE_ENV, "off").strip().lower()
    return value not in ("", "off", "0", "false", "no")


class HotLoopProfiler:
    """Frame-stack profiler with exclusive-time aggregation.

    Frames (:meth:`push`/:meth:`pop`) model the logical call structure —
    span, trajectory, per-gate step, pseudo-phases like ``<properties>`` —
    and DD ops (:meth:`op_begin`/:meth:`op_end`) are non-reentrant leaf
    timings under the current frame.  :meth:`record_nodes` attributes
    decision-diagram node growth to the current frame.
    """

    __slots__ = ("_started", "_stack", "_frames", "_nodes", "_last_nodes", "_op_active")

    def __init__(self) -> None:
        self._started = time.perf_counter()
        # Stack entries are [label, start, child_seconds] lists (mutable).
        self._stack: List[List[object]] = []
        # (frame, frame, ...) path -> [call_count, self_seconds]
        self._frames: Dict[Tuple[str, ...], List[float]] = {}
        # (frame, ...) path -> [growth, peak]
        self._nodes: Dict[Tuple[str, ...], List[int]] = {}
        self._last_nodes = 0
        self._op_active = False

    # -- frames ---------------------------------------------------------

    def push(self, label: str) -> None:
        """Enter a frame; every timing until :meth:`pop` lands under it."""
        self._stack.append([label, time.perf_counter(), 0.0])

    def pop(self) -> None:
        """Leave the current frame, crediting it with its exclusive time."""
        label, start, child_seconds = self._stack.pop()
        total = time.perf_counter() - start  # type: ignore[operator]
        path = tuple(entry[0] for entry in self._stack) + (label,)  # type: ignore[misc]
        self._credit(self._frames, path, max(0.0, total - child_seconds))  # type: ignore[arg-type]
        if self._stack:
            self._stack[-1][2] += total  # type: ignore[operator]

    # -- DD operations --------------------------------------------------

    def op_begin(self, op: str) -> Optional[float]:
        """Start timing a DD op; returns ``None`` when one is already active.

        The non-reentrancy keeps the recursive DD kernels uninstrumented:
        a top-level ``multiply`` owns its whole interval even though it
        calls ``add`` internally, and the caller's matching
        :meth:`op_end` with a ``None`` token is a no-op.
        """
        if self._op_active:
            return None
        self._op_active = True
        return time.perf_counter()

    def op_end(self, token: Optional[float], op: str) -> None:
        if token is None:
            return
        self._op_active = False
        elapsed = time.perf_counter() - token
        path = tuple(entry[0] for entry in self._stack) + ("dd." + op,)  # type: ignore[misc]
        self._credit(self._frames, path, elapsed)
        if self._stack:
            self._stack[-1][2] += elapsed  # type: ignore[operator]

    # -- node growth ----------------------------------------------------

    def record_nodes(self, nodes: int) -> None:
        """Attribute the state's node count after a gate to the current frame."""
        delta = nodes - self._last_nodes
        self._last_nodes = nodes
        path = tuple(entry[0] for entry in self._stack)  # type: ignore[misc]
        record = self._nodes.get(path)
        if record is None:
            record = self._nodes[path] = [0, 0]
        if delta > 0:
            record[0] += delta
        if nodes > record[1]:
            record[1] = nodes

    # -- aggregation ----------------------------------------------------

    @staticmethod
    def _credit(
        table: Dict[Tuple[str, ...], List[float]],
        path: Tuple[str, ...],
        seconds: float,
    ) -> None:
        entry = table.get(path)
        if entry is None:
            table[path] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def snapshot(self) -> Dict[str, object]:
        """JSON-able profile payload (paths joined with ``;``)."""
        return {
            "version": PROFILE_VERSION,
            "wall_seconds": time.perf_counter() - self._started,
            "frames": {
                ";".join(path): {"count": int(entry[0]), "seconds": entry[1]}
                for path, entry in sorted(self._frames.items())
            },
            "nodes": {
                ";".join(path): {"growth": entry[0], "peak": entry[1]}
                for path, entry in sorted(self._nodes.items())
            },
        }


def merge_profiles(*profiles: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Additively merge profile payloads (chunk profiles → one job profile).

    Frame counts/seconds and node growth add; node peaks take the maximum;
    ``wall_seconds`` adds (it is attributed CPU-span time, and chunks run
    on distinct workers).  Empty/None inputs are skipped, mirroring
    :func:`repro.obs.metrics.merge_snapshots`.
    """
    frames: Dict[str, Dict[str, float]] = {}
    nodes: Dict[str, Dict[str, int]] = {}
    wall = 0.0
    for profile in profiles:
        if not profile:
            continue
        wall += float(profile.get("wall_seconds", 0.0))
        for path, entry in profile.get("frames", {}).items():
            merged = frames.get(path)
            if merged is None:
                frames[path] = {
                    "count": int(entry["count"]),
                    "seconds": float(entry["seconds"]),
                }
            else:
                merged["count"] += int(entry["count"])
                merged["seconds"] += float(entry["seconds"])
        for path, entry in profile.get("nodes", {}).items():
            merged_nodes = nodes.get(path)
            if merged_nodes is None:
                nodes[path] = {
                    "growth": int(entry["growth"]),
                    "peak": int(entry["peak"]),
                }
            else:
                merged_nodes["growth"] += int(entry["growth"])
                merged_nodes["peak"] = max(merged_nodes["peak"], int(entry["peak"]))
    return {
        "version": PROFILE_VERSION,
        "wall_seconds": wall,
        "frames": {path: frames[path] for path in sorted(frames)},
        "nodes": {path: nodes[path] for path in sorted(nodes)},
    }


def folded_lines(profile: Optional[Dict[str, object]]) -> List[str]:
    """Folded-stack lines (``frame;frame;op <microseconds>``) for flamegraphs.

    Values are integer microseconds of *exclusive* time, so the lines sum
    to the attributed wall time; feed them to ``flamegraph.pl`` or paste
    into https://www.speedscope.app.  Zero-microsecond frames are kept —
    they document structure (e.g. a gate that never dominated).
    """
    if not profile:
        return []
    lines = []
    for path, entry in sorted(profile.get("frames", {}).items()):
        lines.append(f"{path} {int(round(float(entry['seconds']) * 1e6))}")
    return lines


def attributed_seconds(profile: Optional[Dict[str, object]]) -> float:
    """Total exclusive time across all frames (= sum of the folded values)."""
    if not profile:
        return 0.0
    return sum(float(entry["seconds"]) for entry in profile.get("frames", {}).values())
