"""Persistent per-circuit-family run ledger (``repro.ledger/v2``).

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
degraded mode, atomic rotation; counters under ``ledger.*``).

A family's history is one :mod:`repro.obs.metrics` snapshot.  Replay
folds each ``run`` or ``fallback`` record, in record order, into the
family's running :class:`~repro.obs.metrics.MetricsRegistry`, which the
family's ``aggregate`` record seeds.  Snapshots merge by
:func:`~repro.obs.metrics.merge_snapshots` — associative, so any partition
of the record stream merges to the same history:

* counters (summed): ``runs``, ``exact_runs``, ``stochastic_runs``,
  ``fallbacks``, ``trajectories``, ``cpu_seconds``,
  ``effective_trajectories``, ``p_clean_sum``, ``p_clean_count``;
* gauges (maxima): ``qubits``, ``depth``, ``exact_peak_nodes``,
  ``state_peak_nodes``, ``dense_peak_nodes``, ``fallback_peak_nodes``;
* histograms: ``rate.<engine>``, a stochastic run's trajectories per
  second by trajectory engine (``rate.`` for records without one).

A new per-family statistic is one registry call in
:func:`_fold_record`.  Rotation *compacts history instead of
discarding it*: each family's snapshot becomes its ``aggregate`` record,
and a bounded window of recent raw records per family is carried over for
trend display.

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
``aggregate``  rotation product: ``{"rec","fp","agg":{"counters",
               "gauges","histograms"}}`` — the family's history snapshot.
               An ``agg`` in the v1 layout (one field per statistic, with
               ``rate_hist``/``engine_rate_hists``) is converted on replay
=============  ==========================================================

Fault-injection sites (see :mod:`repro.faults`): ``torn-ledger`` and
``enospc-ledger``, both matching on ``operation=<record type>``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping, Optional, Tuple

from .appendlog import AppendLog, fold, read_log, read_records
from .metrics import MetricsRegistry, merge_snapshots

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerState",
    "RATE_BUCKETS",
    "RunLedger",
    "circuit_fingerprint",
    "family_totals",
    "ledger_path",
    "median_rate",
    "replay_ledger",
]

#: Ledger record schema; bump when the record layout changes.
LEDGER_SCHEMA = "repro.ledger/v2"

#: A :meth:`MetricsRegistry.snapshot`-shaped dict.
Snapshot = Dict[str, Dict[str, object]]

#: Rotation threshold: compact once the file outgrows this.
MAX_BYTES = 4 * 1024 * 1024

#: Raw run/fallback records kept per family through a rotation (older ones
#: survive only inside the family's aggregate record).
RECENT_RECORDS = 8

#: Throughput bucket upper bounds in trajectories/second (powers of two
#: spanning sub-1/s exact passes to ~10^7/s effective stratified rates; an
#: implicit +inf bucket follows).  Fixed bounds keep merges associative, and
#: replay folds raw records into an aggregate's rate histograms, so other
#: bounds are a new record layout (a schema bump).
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
# Family history: one metrics snapshot per family
# ---------------------------------------------------------------------------

#: Family-history counters (summed on merge), with the type each reads as.
COUNTERS: Dict[str, type] = {
    "runs": int,
    "exact_runs": int,
    "stochastic_runs": int,
    "fallbacks": int,
    "trajectories": int,
    "cpu_seconds": float,
    "effective_trajectories": float,
    "p_clean_sum": float,
    "p_clean_count": int,
}

#: Family-history gauges (maxima on merge).  The peaks are in DD nodes:
#: rho over exact runs, the state over stochastic DD runs, the state at
#: which dense runs' engine choice stopped, and rho when a ceiling tripped.
#: The last two are censored lower bounds on how large the DD grows.
GAUGES: Tuple[str, ...] = (
    "qubits",
    "depth",
    "exact_peak_nodes",
    "state_peak_nodes",
    "dense_peak_nodes",
    "fallback_peak_nodes",
)

#: Name prefix of the per-engine throughput histograms (``rate.dd``,
#: ``rate.statevector``; ``rate.`` for records that predate engines).
RATE = "rate."


def _fold_record(history: MetricsRegistry, record: Mapping[str, object]) -> None:
    """Fold one ``run`` or ``fallback`` record into a family's history."""
    counter, gauge = history.counter, history.gauge
    if record["rec"] == "fallback":
        counter("fallbacks").inc()
        nodes = int(record.get("nodes", 0) or 0)
        if nodes > 0:
            gauge("fallback_peak_nodes").max(nodes)
        return
    counter("runs").inc()
    gauge("qubits").max(int(record.get("qubits", 0)))
    gauge("depth").max(int(record.get("depth", 0)))
    engine = str(record.get("engine", ""))
    if record.get("method", "stochastic") == "exact":
        counter("exact_runs").inc()
        peak = "exact_peak_nodes"
    else:
        counter("stochastic_runs").inc()
        peak = "dense_peak_nodes" if engine == "statevector" else "state_peak_nodes"
        rate = record.get("trajectories_per_second")
        if isinstance(rate, (int, float)) and rate > 0.0:
            history.histogram(RATE + engine, RATE_BUCKETS).observe(float(rate))
    nodes = int(record.get("peak_nodes", 0))
    if nodes > 0:
        gauge(peak).max(nodes)
    counter("cpu_seconds").inc(float(record.get("cpu_seconds", 0.0) or 0.0))
    counter("trajectories").inc(int(record.get("trajectories", 0) or 0))
    counter("effective_trajectories").inc(
        float(record.get("effective_trajectories", 0.0) or 0.0)
    )
    p_clean = record.get("p_clean")
    if isinstance(p_clean, (int, float)):
        counter("p_clean_sum").inc(float(p_clean))
        counter("p_clean_count").inc()


def _from_v1_layout(agg: Mapping[str, object]) -> Snapshot:
    """The family snapshot of an ``aggregate`` payload in the v1 layout: one
    field per statistic, and per-engine ``engine_rate_hists`` (absent from
    aggregates folded before engines were recorded, whose ``rate_hist``
    then reads as the engine-less records' histogram)."""
    rates = agg.get("engine_rate_hists")
    if not isinstance(rates, Mapping):
        rates = {"": agg.get("rate_hist")}
    return merge_snapshots({
        "counters": {name: kind(agg.get(name, 0)) for name, kind in COUNTERS.items()},
        "gauges": {name: int(agg.get(name, 0)) for name in GAUGES},
        "histograms": {
            RATE + str(engine): hist
            for engine, hist in rates.items()
            if isinstance(hist, Mapping) and hist.get("bounds")
        },
    })


def family_totals(history: Snapshot) -> Dict[str, object]:
    """A family snapshot's counters and gauges by name, each as its type
    (0 where the family never recorded it, all 0 for ``{}``)."""
    counters, gauges = history.get("counters", {}), history.get("gauges", {})
    totals = {name: kind(counters.get(name, 0)) for name, kind in COUNTERS.items()}
    totals.update((name, int(gauges.get(name, 0))) for name in GAUGES)
    return totals


def median_rate(history: Snapshot) -> float:
    """Bucket-resolution median throughput over every engine's runs (the
    upper bound of the bucket holding the median; 0.0 before any run)."""
    merged = merge_snapshots(*(
        {"histograms": {"rate": hist}}
        for name, hist in history["histograms"].items()
        if name.startswith(RATE)
    ))["histograms"].get("rate")
    if merged is None or merged["count"] <= 0:
        return 0.0
    target = max(1, int(-(-0.5 * merged["count"] // 1)))
    seen = 0
    for bound, count in zip(merged["bounds"] + [float("inf")], merged["counts"]):
        seen += count
        if seen >= target:
            return bound
    return float("inf")


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class LedgerState:
    """Replayed ledger state: per-family history + recent raw records.

    ``run``/``fallback`` records written by a live process fold into their
    family's history *unless* flagged ``"folded": true`` — the marker
    rotation stamps on the raw records it carries over, whose telemetry
    already lives inside the family's ``aggregate`` record (re-folding them
    would double count).
    """

    def __init__(self) -> None:
        #: Each family's running history, in first-seen order: every record
        #: adds to it in record order, so sums add one record at a time.
        self._families: Dict[str, MetricsRegistry] = {}
        #: Snapshots of ``_families`` as last read, until the family changes.
        self._snapshots: Dict[str, Snapshot] = {}
        self.recent: Dict[str, List[Dict[str, object]]] = {}

    def apply(self, record: Dict[str, object]) -> None:
        kind = record.get("rec")
        fingerprint = record.get("fp")
        if not isinstance(fingerprint, str) or not fingerprint:
            return
        if kind == "aggregate":
            payload = record.get("agg")
            if isinstance(payload, Mapping):
                family = self._families.get(fingerprint)
                self._families[fingerprint] = MetricsRegistry.from_snapshot(
                    merge_snapshots(
                        None if family is None else family.snapshot(),
                        payload if "counters" in payload else _from_v1_layout(payload),
                    )
                )
                self._snapshots.pop(fingerprint, None)
            return
        if kind not in ("run", "fallback"):
            return
        family = self._families.get(fingerprint)
        if family is None:
            family = self._families[fingerprint] = MetricsRegistry()
        if not record.get("folded"):
            _fold_record(family, record)
            self._snapshots.pop(fingerprint, None)
        window = self.recent.setdefault(fingerprint, [])
        window.append(dict(record))
        if len(window) > RECENT_RECORDS:
            del window[0]

    def aggregates(self) -> Dict[str, Snapshot]:
        """Each family's history as one metrics snapshot, keyed by
        fingerprint in first-seen order (treat as read-only)."""
        snapshots = self._snapshots
        for fingerprint, family in self._families.items():
            if fingerprint not in snapshots:
                snapshots[fingerprint] = family.snapshot()
        return {fingerprint: snapshots[fingerprint] for fingerprint in self._families}

    def total_runs(self) -> int:
        return sum(
            history["counters"].get("runs", 0) for history in self.aggregates().values()
        )


def replay_ledger(path: str, metrics: Optional[MetricsRegistry] = None) -> LedgerState:
    """Replay a ledger file read-only; missing files replay to empty state."""
    return fold(LedgerState, read_records(read_log(path), metrics, "ledger"))


def _live_records(state: LedgerState) -> List[Dict[str, object]]:
    """Compacted view: one aggregate per family + its recent raw window.

    Carried-over raw records are stamped ``"folded": true`` — their
    telemetry already lives in the aggregate, so replay keeps them for
    trend display without double counting.
    """
    records: List[Dict[str, object]] = []
    for fingerprint, history in state.aggregates().items():
        records.append({"rec": "aggregate", "fp": fingerprint, "agg": history})
        records.extend(
            dict(raw, folded=True) for raw in state.recent.get(fingerprint, [])
        )
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

    def __init__(self, path: str, metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log = AppendLog(
            path, "ledger", LEDGER_SCHEMA, LedgerState, _live_records, MAX_BYTES,
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

    def aggregates(self) -> Dict[str, Snapshot]:
        """Live per-family history snapshots (treat as read-only)."""
        with self._log.lock:
            return self._log.state.aggregates()

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
            self.metrics.gauge("ledger.families").set(float(len(state.aggregates())))
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
