"""Persistent per-circuit-family run ledger (``repro.ledger/v1``).

The journal (:mod:`repro.service.journal`) records what the service *was
doing*; the ledger records what running it *cost*.  It is an append-only
JSONL file under the store work directory where the scheduler writes one
``run`` record per finished job — method, observed peak decision-diagram
node counts, cpu/wall seconds, (effective) trajectories per second,
``p_clean``, achieved half-widths — plus a ``fallback`` record whenever an
exact run trips its node ceiling mid-flight.  Records are keyed by a
**structural circuit-family fingerprint** (:func:`circuit_fingerprint`):
qubit count, depth, gate histogram, and noise-model family, deliberately
*invariant* across seeds, trajectory budgets, and epsilon/delta targets —
the axis along which history generalises, unlike the content-addressed job
key which changes whenever any of those change.

The payoff is the **measured dispatch cost model**
(:class:`repro.exact.cost.MeasuredCostModel`): the worst-case ``4**n`` /
``2**n`` representation sizes the hybrid dispatcher scores with are
replaced, for families with recorded history, by the peak node counts
actually observed — the ROADMAP item "feed back observed ``peak_rho_nodes``
per circuit family from the store so dispatch learns that GHZ-class rho
stays small and exact keeps winning far past the dense boundary".

Durability is the :class:`~repro.obs.appendlog.AppendLog` contract the job
journal follows too (fsync'd appends, torn-tail distrust on replay, ENOSPC
degraded mode, atomic rotation; counters under ``ledger.*``).  Rotation
*compacts history instead of discarding it*: raw ``run`` records are folded
into one mergeable per-fingerprint ``aggregate`` record (counts plus
fixed-bucket histograms, associative exactly like
:func:`repro.obs.metrics.merge_snapshots`), keeping a bounded window of
recent raw records per family for trend display.

Record taxonomy (one JSON object per line, ``"rec"`` discriminates):

=============  ==========================================================
``header``     ``{"rec","schema"}`` — first line after creation/rotation
``run``        one finished job: ``{"rec","job","fp","method","engine",
               "qubits","depth","peak_nodes","cpu_seconds",
               "elapsed_seconds","trajectories","effective_trajectories",
               "trajectories_per_second","p_clean","halfwidths"}`` —
               ``engine`` names the trajectory engine a stochastic run
               used (absent on exact runs and on older records); a
               ``statevector`` run's ``peak_nodes`` is the censored DD
               peak at which its engine choice stopped
``fallback``   node-ceiling misprediction: ``{"rec","job","fp","nodes",
               "ceiling"}`` — fed back so dispatch learns
``aggregate``  rotation product: ``{"rec","fp","agg":{...}}``
=============  ==========================================================

Fault-injection sites (see :mod:`repro.faults`): ``torn-ledger`` and
``enospc-ledger``, both matching on ``operation=<record type>``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .appendlog import AppendLog, fold, read_log, read_records
from .metrics import MetricsRegistry, NODE_BUCKETS, _remap_counts

__all__ = [
    "FamilyAggregate",
    "LEDGER_SCHEMA",
    "LedgerState",
    "RATE_BUCKETS",
    "RunLedger",
    "circuit_fingerprint",
    "ledger_path",
    "replay_ledger",
]

#: Ledger record schema; bump when the record layout changes.
LEDGER_SCHEMA = "repro.ledger/v1"

#: Default rotation threshold: compact once the file outgrows this.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

#: Seconds the ledger sheds writes after a failed append (ENOSPC etc.).
DEFAULT_DEGRADED_COOLDOWN = 5.0

#: Raw run/fallback records kept per family through a rotation (older ones
#: survive only inside the family's aggregate record).
DEFAULT_RECENT_RECORDS = 8

#: Throughput bucket upper bounds in trajectories/second (powers of two
#: spanning sub-1/s exact passes to ~10^7/s effective stratified rates; an
#: implicit +inf bucket follows).  Fixed bounds keep merges associative.
RATE_BUCKETS: Tuple[float, ...] = tuple(float(2.0**k) for k in range(-6, 24))


def ledger_path(store_directory: str) -> str:
    """Canonical ledger location inside a store directory."""
    return os.path.join(store_directory, "ledger", "runs.jsonl")


# ---------------------------------------------------------------------------
# Circuit-family fingerprint
# ---------------------------------------------------------------------------


def _noise_family(model) -> Optional[Dict[str, object]]:
    """Structural description of a noise model: which mechanisms can fire.

    Only the *set* of active mechanisms (any non-zero rate across the
    default and every gate/qubit override) plus the semantic switches enter
    the fingerprint — not the rates themselves.  Families are about diagram
    *structure*: which Kraus branches exist determines how rho can grow,
    while scaling a rate changes only how often trajectories branch.
    """
    if model is None:
        return None
    sources = [model.default]
    sources.extend(rates for _, rates in model.gate_overrides)
    sources.extend(rates for _, rates in model.qubit_overrides)
    fields = type(model.default)._FIELDS
    mechanisms = sorted(
        name
        for name in fields
        if any(getattr(rates, name) > 0.0 for rates in sources)
    )
    return {
        "damping_mode": model.damping_mode,
        "mechanisms": mechanisms,
        "noisy_measure": bool(model.noisy_measure),
    }


def circuit_fingerprint(circuit, model=None, backend_kind: str = "dd") -> str:
    """Stable structural identity of a (circuit, noise, backend) family.

    Built from qubit count, circuit depth, the gate histogram
    (:meth:`~repro.circuits.circuit.QuantumCircuit.count_ops`), the noise
    family, and the backend kind — and from nothing else.  Two jobs that
    differ only in seed, trajectory budget, epsilon/delta, or method share
    a fingerprint, which is exactly what lets one job's observed node
    counts inform the next job's dispatch decision.
    """
    payload = {
        "backend": backend_kind,
        "depth": circuit.depth(),
        "gates": dict(sorted(circuit.count_ops().items())),
        "noise": _noise_family(model),
        "qubits": circuit.num_qubits,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Mergeable per-family aggregates
# ---------------------------------------------------------------------------


def _empty_hist(bounds: Sequence[float]) -> Dict[str, object]:
    return {
        "bounds": [float(b) for b in bounds],
        "counts": [0] * (len(bounds) + 1),
        "sum": 0.0,
        "count": 0,
    }


def _hist_copy(hist: Mapping[str, object]) -> Dict[str, object]:
    return {
        "bounds": list(hist["bounds"]),
        "counts": list(hist["counts"]),
        "sum": hist["sum"],
        "count": hist["count"],
    }


def _hist_from(raw: object, default_bounds: Sequence[float]) -> Dict[str, object]:
    """A histogram read back from a serialised aggregate (empty if absent)."""
    if isinstance(raw, Mapping) and raw.get("bounds"):
        return {
            "bounds": [float(b) for b in raw["bounds"]],
            "counts": [int(c) for c in raw["counts"]],
            "sum": float(raw.get("sum", 0.0)),
            "count": int(raw.get("count", 0)),
        }
    return _empty_hist(default_bounds)


def _hist_observe(hist: Dict[str, object], value: float) -> None:
    import bisect

    bounds = hist["bounds"]
    hist["counts"][bisect.bisect_left(bounds, value)] += 1
    hist["sum"] = float(hist["sum"]) + value
    hist["count"] = int(hist["count"]) + 1


def _hist_merge(into: Dict[str, object], other: Dict[str, object]) -> None:
    """Element-wise histogram sum, padding onto the bounds union when the
    layouts differ (associative — mirrors :func:`metrics.merge_snapshots`)."""
    other_bounds = [float(b) for b in other["bounds"]]
    if into["bounds"] != other_bounds:
        union = sorted(set(into["bounds"]) | set(other_bounds))
        into["counts"] = [
            a + b
            for a, b in zip(
                _remap_counts(into["bounds"], into["counts"], union),
                _remap_counts(other_bounds, other["counts"], union),
            )
        ]
        into["bounds"] = union
    else:
        into["counts"] = [a + b for a, b in zip(into["counts"], other["counts"])]
    into["sum"] = float(into["sum"]) + float(other["sum"])
    into["count"] = int(into["count"]) + int(other["count"])


def _hist_quantile(hist: Dict[str, object], q: float) -> float:
    """Bucket-resolution quantile (upper bound of the bucket holding ``q``)."""
    total = int(hist["count"])
    if total <= 0:
        return 0.0
    target = max(1, int(-(-q * total // 1)))
    bounds = list(hist["bounds"]) + [float("inf")]
    seen = 0
    for bound, count in zip(bounds, hist["counts"]):
        seen += count
        if seen >= target:
            return bound
    return bounds[-1]


class FamilyAggregate:
    """Mergeable telemetry summary of every recorded run of one family.

    All state is sums, maxima, and fixed-bucket histograms, so
    :meth:`merge` is associative and commutative — aggregates from any
    partition of the record stream (including rotation-written
    ``aggregate`` records re-merged with later raw runs) fold to the same
    result in any order.
    """

    __slots__ = (
        "fingerprint", "qubits", "depth", "runs",
        "exact_runs", "stochastic_runs", "fallbacks",
        "exact_peak_nodes", "state_peak_nodes", "fallback_peak_nodes",
        "dense_peak_nodes", "exact_nodes_hist", "state_nodes_hist", "rate_hist",
        "engine_rate_hists", "cpu_seconds", "elapsed_seconds",
        "trajectories", "effective_trajectories",
        "p_clean_sum", "p_clean_count",
    )

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.qubits = 0
        self.depth = 0
        self.runs = 0
        self.exact_runs = 0
        self.stochastic_runs = 0
        self.fallbacks = 0
        #: Peak rho-DD nodes over exact runs / state-DD nodes over
        #: stochastic DD runs / rho nodes at the moment a ceiling tripped /
        #: state-DD nodes at which dense runs' engine choice stopped.  The
        #: last two are censored lower bounds on how large the DD grows.
        self.exact_peak_nodes = 0
        self.state_peak_nodes = 0
        self.fallback_peak_nodes = 0
        self.dense_peak_nodes = 0
        self.exact_nodes_hist = _empty_hist(NODE_BUCKETS)
        self.state_nodes_hist = _empty_hist(NODE_BUCKETS)
        #: Effective trajectories/second per stochastic run (quantile-able).
        self.rate_hist = _empty_hist(RATE_BUCKETS)
        #: The same rates split by trajectory engine (``""`` for records
        #: that predate engine recording), so a trend compares like with like.
        self.engine_rate_hists: Dict[str, Dict[str, object]] = {}
        self.cpu_seconds = 0.0
        self.elapsed_seconds = 0.0
        self.trajectories = 0
        self.effective_trajectories = 0.0
        self.p_clean_sum = 0.0
        self.p_clean_count = 0

    # -- folding raw records ------------------------------------------------

    def observe_run(self, record: Mapping[str, object]) -> None:
        self.runs += 1
        self.qubits = max(self.qubits, int(record.get("qubits", 0)))
        self.depth = max(self.depth, int(record.get("depth", 0)))
        peak = int(record.get("peak_nodes", 0))
        method = str(record.get("method", "stochastic"))
        if method == "exact":
            self.exact_runs += 1
            if peak > 0:
                self.exact_peak_nodes = max(self.exact_peak_nodes, peak)
                _hist_observe(self.exact_nodes_hist, float(peak))
        else:
            self.stochastic_runs += 1
            engine = str(record.get("engine", ""))
            if peak > 0 and engine == "statevector":
                self.dense_peak_nodes = max(self.dense_peak_nodes, peak)
            elif peak > 0:
                self.state_peak_nodes = max(self.state_peak_nodes, peak)
                _hist_observe(self.state_nodes_hist, float(peak))
            rate = record.get("trajectories_per_second")
            if isinstance(rate, (int, float)) and rate > 0.0:
                _hist_observe(self.rate_hist, float(rate))
                if engine not in self.engine_rate_hists:
                    self.engine_rate_hists[engine] = _empty_hist(RATE_BUCKETS)
                _hist_observe(self.engine_rate_hists[engine], float(rate))
        self.cpu_seconds += float(record.get("cpu_seconds", 0.0) or 0.0)
        self.elapsed_seconds += float(record.get("elapsed_seconds", 0.0) or 0.0)
        self.trajectories += int(record.get("trajectories", 0) or 0)
        self.effective_trajectories += float(
            record.get("effective_trajectories", 0.0) or 0.0
        )
        p_clean = record.get("p_clean")
        if isinstance(p_clean, (int, float)):
            self.p_clean_sum += float(p_clean)
            self.p_clean_count += 1

    def observe_fallback(self, record: Mapping[str, object]) -> None:
        self.fallbacks += 1
        nodes = int(record.get("nodes", 0) or 0)
        if nodes > 0:
            self.fallback_peak_nodes = max(self.fallback_peak_nodes, nodes)

    # -- associative merge --------------------------------------------------

    def merge(self, other: "FamilyAggregate") -> None:
        self.qubits = max(self.qubits, other.qubits)
        self.depth = max(self.depth, other.depth)
        self.runs += other.runs
        self.exact_runs += other.exact_runs
        self.stochastic_runs += other.stochastic_runs
        self.fallbacks += other.fallbacks
        self.exact_peak_nodes = max(self.exact_peak_nodes, other.exact_peak_nodes)
        self.state_peak_nodes = max(self.state_peak_nodes, other.state_peak_nodes)
        self.fallback_peak_nodes = max(
            self.fallback_peak_nodes, other.fallback_peak_nodes
        )
        self.dense_peak_nodes = max(self.dense_peak_nodes, other.dense_peak_nodes)
        _hist_merge(self.exact_nodes_hist, other.exact_nodes_hist)
        _hist_merge(self.state_nodes_hist, other.state_nodes_hist)
        _hist_merge(self.rate_hist, other.rate_hist)
        for engine, hist in other.engine_rate_hists.items():
            if engine in self.engine_rate_hists:
                _hist_merge(self.engine_rate_hists[engine], hist)
            else:
                self.engine_rate_hists[engine] = _hist_copy(hist)
        self.cpu_seconds += other.cpu_seconds
        self.elapsed_seconds += other.elapsed_seconds
        self.trajectories += other.trajectories
        self.effective_trajectories += other.effective_trajectories
        self.p_clean_sum += other.p_clean_sum
        self.p_clean_count += other.p_clean_count

    # -- derived views ------------------------------------------------------

    def mean_p_clean(self) -> Optional[float]:
        if self.p_clean_count == 0:
            return None
        return self.p_clean_sum / self.p_clean_count

    def median_rate(self) -> float:
        """Bucket-resolution median effective throughput."""
        return _hist_quantile(self.rate_hist, 0.5)

    def mean_rate(self, engine: str) -> Optional[float]:
        """Mean effective throughput of the family's runs on ``engine``
        (the ``--trend`` baseline), or None before any such run."""
        hist = self.engine_rate_hists.get(engine)
        if hist is None or hist["count"] == 0:
            return None
        return float(hist["sum"]) / hist["count"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "qubits": self.qubits,
            "depth": self.depth,
            "runs": self.runs,
            "exact_runs": self.exact_runs,
            "stochastic_runs": self.stochastic_runs,
            "fallbacks": self.fallbacks,
            "exact_peak_nodes": self.exact_peak_nodes,
            "state_peak_nodes": self.state_peak_nodes,
            "fallback_peak_nodes": self.fallback_peak_nodes,
            "dense_peak_nodes": self.dense_peak_nodes,
            "exact_nodes_hist": _hist_copy(self.exact_nodes_hist),
            "state_nodes_hist": _hist_copy(self.state_nodes_hist),
            "rate_hist": _hist_copy(self.rate_hist),
            "engine_rate_hists": {
                engine: _hist_copy(hist)
                for engine, hist in sorted(self.engine_rate_hists.items())
            },
            "cpu_seconds": self.cpu_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "trajectories": self.trajectories,
            "effective_trajectories": self.effective_trajectories,
            "p_clean_sum": self.p_clean_sum,
            "p_clean_count": self.p_clean_count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FamilyAggregate":
        aggregate = cls(str(data.get("fingerprint", "")))
        aggregate.qubits = int(data.get("qubits", 0))
        aggregate.depth = int(data.get("depth", 0))
        aggregate.runs = int(data.get("runs", 0))
        aggregate.exact_runs = int(data.get("exact_runs", 0))
        aggregate.stochastic_runs = int(data.get("stochastic_runs", 0))
        aggregate.fallbacks = int(data.get("fallbacks", 0))
        aggregate.exact_peak_nodes = int(data.get("exact_peak_nodes", 0))
        aggregate.state_peak_nodes = int(data.get("state_peak_nodes", 0))
        aggregate.fallback_peak_nodes = int(data.get("fallback_peak_nodes", 0))
        aggregate.dense_peak_nodes = int(data.get("dense_peak_nodes", 0))
        for attr, default_bounds in (
            ("exact_nodes_hist", NODE_BUCKETS),
            ("state_nodes_hist", NODE_BUCKETS),
            ("rate_hist", RATE_BUCKETS),
        ):
            setattr(aggregate, attr, _hist_from(data.get(attr), default_bounds))
        engine_hists = data.get("engine_rate_hists")
        if isinstance(engine_hists, Mapping):
            aggregate.engine_rate_hists = {
                str(engine): _hist_from(raw, RATE_BUCKETS)
                for engine, raw in engine_hists.items()
            }
        elif aggregate.rate_hist["count"]:
            # An aggregate folded before engines were recorded.
            aggregate.engine_rate_hists = {"": _hist_copy(aggregate.rate_hist)}
        aggregate.cpu_seconds = float(data.get("cpu_seconds", 0.0))
        aggregate.elapsed_seconds = float(data.get("elapsed_seconds", 0.0))
        aggregate.trajectories = int(data.get("trajectories", 0))
        aggregate.effective_trajectories = float(
            data.get("effective_trajectories", 0.0)
        )
        aggregate.p_clean_sum = float(data.get("p_clean_sum", 0.0))
        aggregate.p_clean_count = int(data.get("p_clean_count", 0))
        return aggregate


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class LedgerState:
    """Replayed ledger state: per-family aggregates + recent raw records.

    ``run``/``fallback`` records written by a live process fold into their
    family's aggregate *unless* flagged ``"folded": true`` — the marker
    rotation stamps on the raw records it carries over, whose telemetry
    already lives inside the family's ``aggregate`` record (re-folding them
    would double count).
    """

    def __init__(self, recent_limit: int = DEFAULT_RECENT_RECORDS) -> None:
        self.recent_limit = recent_limit
        self.aggregates: Dict[str, FamilyAggregate] = {}
        self.recent: Dict[str, List[Dict[str, object]]] = {}
        self.order: List[str] = []

    def _family(self, fingerprint: str) -> FamilyAggregate:
        aggregate = self.aggregates.get(fingerprint)
        if aggregate is None:
            aggregate = FamilyAggregate(fingerprint)
            self.aggregates[fingerprint] = aggregate
            self.order.append(fingerprint)
        return aggregate

    def apply(self, record: Dict[str, object]) -> None:
        kind = record.get("rec")
        if kind == "header":
            return
        fingerprint = record.get("fp")
        if not isinstance(fingerprint, str) or not fingerprint:
            return
        if kind == "aggregate":
            payload = record.get("agg")
            if isinstance(payload, Mapping):
                incoming = FamilyAggregate.from_dict(payload)
                incoming.fingerprint = fingerprint
                self._family(fingerprint).merge(incoming)
            return
        if kind not in ("run", "fallback"):
            return
        family = self._family(fingerprint)
        if not record.get("folded"):
            if kind == "run":
                family.observe_run(record)
            else:
                family.observe_fallback(record)
        window = self.recent.setdefault(fingerprint, [])
        window.append(dict(record))
        if len(window) > self.recent_limit:
            del window[: len(window) - self.recent_limit]

    def total_runs(self) -> int:
        return sum(a.runs for a in self.aggregates.values())


def replay_ledger(
    path: str,
    metrics: Optional[MetricsRegistry] = None,
    recent_limit: int = DEFAULT_RECENT_RECORDS,
) -> LedgerState:
    """Replay a ledger file read-only; missing files replay to empty state."""
    return fold(
        lambda: LedgerState(recent_limit=recent_limit),
        read_records(read_log(path), metrics, "ledger"),
    )


def _live_records(state: LedgerState) -> List[Dict[str, object]]:
    """Compacted view: one aggregate per family + its recent raw window.

    Carried-over raw records are stamped ``"folded": true`` — their
    telemetry already lives in the aggregate, so replay keeps them for
    trend display without double counting.
    """
    records: List[Dict[str, object]] = []
    for fingerprint in state.order:
        aggregate = state.aggregates[fingerprint]
        records.append(
            {"rec": "aggregate", "fp": fingerprint, "agg": aggregate.to_dict()}
        )
        for raw in state.recent.get(fingerprint, []):
            carried = dict(raw)
            carried["folded"] = True
            records.append(carried)
    return records


# ---------------------------------------------------------------------------
# Append side
# ---------------------------------------------------------------------------


class RunLedger:
    """Append-side of the run ledger: fsync'd writes, atomic compaction.

    Opening a ledger replays whatever previous processes left behind, so
    :meth:`aggregates` immediately answers "what does history say about
    this circuit family?".  The open also rotates, folding old raw records
    into per-family ``aggregate`` records so replay cost stays bounded
    while no observation is ever lost.  The mechanics — and the
    durability contract — are :class:`~repro.obs.appendlog.AppendLog`'s.
    """

    def __init__(
        self,
        path: str,
        fsync_interval: float = 0.0,
        max_bytes: int = DEFAULT_MAX_BYTES,
        degraded_cooldown: float = DEFAULT_DEGRADED_COOLDOWN,
        metrics: Optional[MetricsRegistry] = None,
        recent_records: int = DEFAULT_RECENT_RECORDS,
    ) -> None:
        self.path = path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log = AppendLog(
            path,
            "ledger",
            LEDGER_SCHEMA,
            lambda: LedgerState(recent_limit=recent_records),
            _live_records,
            fsync_interval,
            max_bytes,
            degraded_cooldown,
            self.metrics,
        )

    # -- record appends ----------------------------------------------------

    def record_run(
        self,
        key: str,
        fingerprint: str,
        method: str,
        qubits: int,
        depth: int,
        peak_nodes: int,
        cpu_seconds: float,
        elapsed_seconds: float,
        trajectories: int,
        effective_trajectories: float,
        trajectories_per_second: float,
        p_clean: Optional[float] = None,
        halfwidths: Optional[Dict[str, float]] = None,
        engine: Optional[str] = None,
    ) -> None:
        """Append one finished job's run profile (``engine``: the trajectory
        engine a stochastic run used)."""
        record: Dict[str, object] = {
            "rec": "run",
            "job": key,
            "fp": fingerprint,
            "method": method,
            "qubits": qubits,
            "depth": depth,
            "peak_nodes": peak_nodes,
            "cpu_seconds": cpu_seconds,
            "elapsed_seconds": elapsed_seconds,
            "trajectories": trajectories,
            "effective_trajectories": effective_trajectories,
            "trajectories_per_second": trajectories_per_second,
        }
        if engine is not None:
            record["engine"] = engine
        if p_clean is not None:
            record["p_clean"] = p_clean
        if halfwidths:
            record["halfwidths"] = dict(sorted(halfwidths.items()))
        self._log.append(record)

    def record_fallback(
        self, key: str, fingerprint: str, nodes: int, ceiling: int
    ) -> None:
        """Append a node-ceiling misprediction so dispatch learns from it."""
        self._log.append(
            {
                "rec": "fallback",
                "job": key,
                "fp": fingerprint,
                "nodes": nodes,
                "ceiling": ceiling,
            }
        )

    # -- queries -----------------------------------------------------------

    def aggregates(self) -> Dict[str, FamilyAggregate]:
        """Live per-family aggregates (treat as read-only)."""
        with self._log.lock:
            return dict(self._log.state.aggregates)

    def family(self, fingerprint: str) -> Optional[FamilyAggregate]:
        with self._log.lock:
            return self._log.state.aggregates.get(fingerprint)

    def recent(self, fingerprint: str) -> List[Dict[str, object]]:
        """The family's recent raw records (newest last)."""
        with self._log.lock:
            return [dict(r) for r in self._log.state.recent.get(fingerprint, [])]

    @property
    def degraded(self) -> bool:
        """True while appends are being shed after a write failure."""
        return self._log.degraded

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Metrics snapshot with live occupancy gauges refreshed."""
        with self._log.lock:
            state = self._log.state
            self.metrics.gauge("ledger.families").set(float(len(state.aggregates)))
            self.metrics.gauge("ledger.runs.total").set(float(state.total_runs()))
            return self.metrics.snapshot()

    def flush(self) -> None:
        """Force any buffered bytes to disk (drain path)."""
        self._log.flush()

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
