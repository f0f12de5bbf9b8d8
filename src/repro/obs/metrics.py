"""Dependency-free metrics primitives: counters, gauges, histograms.

The paper's headline result is a *performance* claim — decision-diagram
trajectories beat dense arrays because the unique and compute tables keep
diagrams compact (Section IV-B) — so the repo needs first-class numbers
explaining *why* a run was fast or slow.  This module provides the
primitives every layer (``repro.dd``, ``repro.stochastic``,
``repro.service``) records into:

* :class:`Counter` — monotonically increasing event counts (cache hits,
  trajectories completed, retries);
* :class:`Gauge` — last-observed level (table occupancy, queue depth);
* :class:`Histogram` — fixed-bucket distributions (per-trajectory latency,
  decision-diagram node counts after each multiply);
* :class:`MetricsRegistry` — a named collection of the above with a
  monotonic :meth:`~MetricsRegistry.timer` helper.

Snapshots are plain JSON-able dictionaries so they can ride inside
:class:`~repro.stochastic.results.StochasticResult` across process
boundaries.  :func:`merge_snapshots` is **associative and commutative**
(counters/histograms sum, gauges take the maximum), which is what lets
chunk metrics merge in any order — exactly like the property estimates —
and still produce one deterministic aggregate.  :func:`delta_snapshots`
subtracts an earlier snapshot from a later one, so a warm worker whose
tables persist across chunks can report only what *this* chunk consumed.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "NODE_BUCKETS",
    "merge_snapshots",
    "delta_snapshots",
    "derive_rates",
    "format_histogram",
]

#: Latency bucket upper bounds in seconds (an implicit +inf bucket follows).
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Node-count bucket upper bounds (powers of two; implicit +inf follows).
NODE_BUCKETS: Tuple[float, ...] = tuple(float(2**k) for k in range(0, 21))


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge for levels")
        self.value += amount


class Gauge:
    """A last-observed level (occupancy, queue depth, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Record ``value`` only if it exceeds the current level."""
        if value > self.value:
            self.value = value


class Histogram:
    """A fixed-bucket distribution with sum and count.

    ``bounds`` are ascending bucket upper limits; observations above the
    last bound land in an implicit overflow bucket, so ``counts`` has
    ``len(bounds) + 1`` entries.  Fixed bounds keep merges associative:
    two histograms with identical bounds merge by element-wise addition.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instruments get-or-create semantics, so call sites never need to
    declare metrics up front; ``registry.counter("x").inc()`` just works.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = TIME_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        # The first test passes the common call, the same tuple of floats,
        # without converting every bound.
        elif instrument.bounds != bounds and instrument.bounds != tuple(
            float(b) for b in bounds
        ):
            raise ValueError(f"histogram {name!r} re-registered with different bounds")
        return instrument

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """A registry whose instruments hold ``snapshot``'s values, so that
        recording continues from them; its :meth:`snapshot` equals
        ``snapshot``."""
        registry = cls()
        for name, value in snapshot.get("counters", {}).items():
            registry.counter(name).value = value
        for name, value in snapshot.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = registry.histogram(name, data["bounds"])
            histogram.counts = list(data["counts"])
            histogram.total = float(data["sum"])
            histogram.count = int(data["count"])
        return registry

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block with the monotonic clock into histogram ``name``."""
        histogram = self.histogram(name, TIME_BUCKETS)
        started = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - started)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time JSON-able view of every registered instrument."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def _histogram_copy(data: Dict[str, object]) -> Dict[str, object]:
    return {
        "bounds": [float(b) for b in data["bounds"]],
        "counts": list(data["counts"]),
        "sum": float(data["sum"]),
        "count": int(data["count"]),
    }


def _remap_counts(
    bounds: Sequence[float], counts: Sequence[int], union: Sequence[float]
) -> List[int]:
    """Remap bucket counts onto a superset bounds list.

    Each original bucket keeps its upper bound, so its count lands in the
    union bucket sharing that bound; the overflow bucket stays overflow.
    The placement depends only on the original bound — never on which other
    snapshots participated — which keeps the padded merge associative.
    """
    index = {bound: i for i, bound in enumerate(union)}
    remapped = [0] * (len(union) + 1)
    for bound, bucket in zip(bounds, counts):
        remapped[index[float(bound)]] += bucket
    remapped[-1] += counts[len(bounds)]
    return remapped


def merge_snapshots(*snapshots: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Associatively merge snapshots into a new one (inputs untouched).

    Counters and histograms add; gauges keep the maximum (so merged gauges
    read as "peak level seen by any contributor").  With a single argument
    this is a deep copy; with none, an empty snapshot.

    Histograms whose bucket sets differ — an old checkpoint written before
    a bucket-layout change, mixed software versions in one pool — are
    *padded* onto the union of their bounds rather than dropped or
    rejected: every observation is preserved (a bucket's count follows its
    upper bound into the union layout), and the padding is associative, so
    merge order still cannot change the aggregate.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, data in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = _histogram_copy(data)
                continue
            data_bounds = [float(b) for b in data["bounds"]]
            if merged["bounds"] != data_bounds:
                union = sorted(set(merged["bounds"]) | set(data_bounds))
                merged["counts"] = [
                    a + b
                    for a, b in zip(
                        _remap_counts(merged["bounds"], merged["counts"], union),
                        _remap_counts(data_bounds, data["counts"], union),
                    )
                ]
                merged["bounds"] = union
            else:
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], data["counts"])
                ]
            merged["sum"] = float(merged["sum"]) + float(data["sum"])
            merged["count"] = int(merged["count"]) + int(data["count"])
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def delta_snapshots(after: Dict[str, object], before: Optional[Dict[str, object]]) -> Dict[str, object]:
    """What happened between two snapshots of the *same* registry.

    Counters and histograms subtract (clamped at zero, so a cleared table
    can never produce negative deltas); gauges report the later level.
    Used by warm workers whose DD package persists across chunks: each
    chunk reports only its own consumption.
    """
    result = merge_snapshots(after)
    if not before:
        return result
    counters = result["counters"]
    for name, value in before.get("counters", {}).items():
        counters[name] = max(0, counters.get(name, 0) - value)
    histograms = result["histograms"]
    for name, data in before.get("histograms", {}).items():
        current = histograms.get(name)
        if current is None or list(current["bounds"]) != list(data["bounds"]):
            continue
        current["counts"] = [
            max(0, a - b) for a, b in zip(current["counts"], data["counts"])
        ]
        current["sum"] = max(0.0, float(current["sum"]) - float(data["sum"]))
        current["count"] = max(0, int(current["count"]) - int(data["count"]))
    return result


def derive_rates(
    snapshot: Optional[Dict[str, object]], duration: Optional[float] = None
) -> Dict[str, float]:
    """Hit rates in [0, 1] for every ``<base>.hits``/``<base>.misses`` pair.

    Produces ``<base>.hit_rate`` entries — the numbers that explain whether
    the unique/compute/complex tables are doing their job (a healthy DD run
    shows compute-table hit rates well above 0.5; a rate near 0 on a slow
    run means the diagrams are not re-visiting structure and memoisation
    is buying nothing).

    With ``duration`` (seconds) every counter additionally yields a
    ``<counter>.per_second`` throughput entry.  A zero or negative duration
    — the zero-duration delta a live exporter can take between two
    back-to-back snapshots — yields 0.0 for every per-second rate, never a
    division error or an infinity.
    """
    if not snapshot:
        return {}
    counters = snapshot.get("counters", {})
    rates: Dict[str, float] = {}
    for name, hits in counters.items():
        if not name.endswith(".hits"):
            continue
        base = name[: -len(".hits")]
        misses = counters.get(base + ".misses")
        if misses is None:
            continue
        total = hits + misses
        rates[base + ".hit_rate"] = (hits / total) if total else 0.0
    if duration is not None:
        seconds = float(duration)
        safe = seconds > 0.0
        for name, value in counters.items():
            rates[name + ".per_second"] = (value / seconds) if safe else 0.0
    return rates


def format_histogram(data: Dict[str, object], indent: str = "  ") -> List[str]:
    """Human-readable lines for one snapshot histogram (empty buckets skipped)."""
    bounds = list(data["bounds"]) + [float("inf")]
    counts = list(data["counts"])
    count = int(data["count"])
    lines = [f"{indent}count={count} sum={float(data['sum']):.6g} "
             f"mean={(float(data['sum']) / count if count else 0.0):.6g}"]
    peak = max(counts) if counts else 0
    for bound, bucket in zip(bounds, counts):
        if bucket == 0:
            continue
        bar = "#" * max(1, round(20 * bucket / peak)) if peak else ""
        label = "+inf" if bound == float("inf") else f"{bound:g}"
        lines.append(f"{indent}<= {label:>8}: {bucket:>8} {bar}")
    return lines
