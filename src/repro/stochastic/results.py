"""Aggregated results of stochastic simulation runs.

A :class:`StochasticResult` collects, over ``M`` trajectories: per-property
running sums (mean / variance / Hoeffding and CLT confidence intervals),
the histogram of sampled measurement outcomes, error-firing statistics, and
engine diagnostics (runtime, peak DD nodes).  Partial results from worker
processes are merged with :meth:`StochasticResult.merge`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import merge_snapshots
from ..obs.profile import merge_profiles

__all__ = ["PropertyEstimate", "StochasticResult"]


def tally(totals: Dict[str, int], counts: Dict[str, int]) -> None:
    """Add ``counts`` into ``totals`` key by key (outcome histograms and
    fired-error tallies, per trajectory or per merged chunk)."""
    for key, count in counts.items():
        totals[key] = totals.get(key, 0) + count


def _grow(partials: List[float], value: float) -> None:
    """Add ``value`` to the exact sum held in ``partials`` (Shewchuk's
    error-free transformation, the one :func:`math.fsum` runs): no bit of
    either is rounded away."""
    count = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[count] = low
            count += 1
        value = high
    partials[count:] = [value] if value else []


def _exact_sum(partials: List[float], values) -> List[float]:
    """``partials`` plus ``values``, exactly, in the one form that depends
    only on the sum: its correctly rounded value last, preceded by the
    rounded value of what is left, and so on (ascending magnitude).  Any
    grouping or order of the same values therefore gives equal lists."""
    rest = list(partials)
    for value in values:
        _grow(rest, value)
    canonical: List[float] = []
    while rest:
        high = math.fsum(rest)
        canonical.append(high)
        if high == rest[-1]:
            rest.pop()  # what is left is exactly the lower partials
        else:
            _grow(rest, -high)
    canonical.reverse()
    return canonical


@dataclass
class PropertyEstimate:
    """Streaming estimate of one quadratic property.

    In the default (unstratified) mode the accumulated moments are over
    plain Monte-Carlo trajectories.  Under stratified sampling
    (:mod:`repro.stochastic.strata`) they are the moments of the
    *erring-conditioned* samples only, and ``p_clean`` / ``clean_value``
    carry the analytically-weighted clean stratum; :attr:`mean` is then
    the unbiased post-stratified estimator ``p_clean * clean_value +
    (1 - p_clean) * erring_mean``.

    The sums are exact: each is held as non-overlapping float partials
    that :meth:`add` and :meth:`merge` extend without rounding, and
    ``total`` / ``total_squared`` are their correctly rounded values (what
    :func:`math.fsum` returns over the same per-trajectory values).  So an
    estimate does not depend on how the scheduler chunked its trajectories,
    nor on the order its chunks merge in.
    """

    name: str
    count: int = 0
    total: float = 0.0
    total_squared: float = 0.0
    #: True when the value came from an exact (density-matrix) evaluation:
    #: there is no sampling error, so the variance, standard error, and
    #: Hoeffding half-width all collapse to zero.
    exact: bool = False
    #: Closed-form probability of the zero-error stratum (``None`` when the
    #: estimate is not stratified).  Set once per job from the noise model;
    #: every merged partial must agree exactly (same closed form, same
    #: deterministic float product).
    p_clean: Optional[float] = None
    #: The property's value on the shared ideal (clean-stratum) state,
    #: evaluated once from the prefix plan's cached fold — zero variance.
    clean_value: Optional[float] = None
    #: The exact sums behind ``total`` and ``total_squared`` as
    #: non-overlapping partials (empty for a zero sum).
    total_partials: List[float] = field(default_factory=list, repr=False)
    total_squared_partials: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        # Built from rounded totals alone (payloads written before exact
        # sums, or by hand): each total is its own one partial.
        if not self.total_partials and self.total:
            self.total_partials = [self.total]
        if not self.total_squared_partials and self.total_squared:
            self.total_squared_partials = [self.total_squared]

    @property
    def stratified(self) -> bool:
        """Whether this estimate carries a closed-form clean stratum."""
        return self.p_clean is not None

    @property
    def _weight(self) -> float:
        """Sampling-error scale: the erring stratum's probability mass."""
        return 1.0 - self.p_clean if self.p_clean is not None else 1.0

    def add(self, value: float) -> None:
        """Fold one trajectory's property value into the estimate."""
        self.add_all([value])

    def add_all(self, values: List[float]) -> None:
        """Fold many trajectories' property values in at once: the same
        sums as one :meth:`add` per value, canonicalised once."""
        self.count += len(values)
        self._extend(values, [value * value for value in values])

    def _extend(self, values, squares) -> None:
        """Add to both exact sums and re-round ``total``/``total_squared``."""
        self.total_partials = _exact_sum(self.total_partials, values)
        self.total_squared_partials = _exact_sum(self.total_squared_partials, squares)
        self.total = self.total_partials[-1] if self.total_partials else 0.0
        self.total_squared = (
            self.total_squared_partials[-1] if self.total_squared_partials else 0.0
        )

    def merge(self, other: "PropertyEstimate") -> None:
        """Fold another partial estimate (from a worker) into this one."""
        if other.name != self.name:
            raise ValueError(f"merging estimates of different properties: "
                             f"{self.name!r} vs {other.name!r}")
        if other.p_clean is not None:
            if self.p_clean is None:
                if self.count:
                    raise ValueError(
                        f"cannot merge stratified estimate {self.name!r} into "
                        f"unstratified samples"
                    )
                # Empty shell (scheduler aggregation seed) adopts the stratum.
                self.p_clean = other.p_clean
                self.clean_value = other.clean_value
            elif (other.p_clean != self.p_clean
                  or other.clean_value != self.clean_value):
                raise ValueError(
                    f"stratum mismatch merging {self.name!r}: "
                    f"p_clean {self.p_clean!r} vs {other.p_clean!r}, "
                    f"clean_value {self.clean_value!r} vs {other.clean_value!r}"
                )
        elif self.p_clean is not None and other.count:
            raise ValueError(
                f"cannot merge unstratified samples into stratified "
                f"estimate {self.name!r}"
            )
        self.count += other.count
        self._extend(other.total_partials, other.total_squared_partials)
        # Mixing in any sampled contribution reintroduces sampling error.
        self.exact = self.exact and other.exact

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (used by the service result store)."""
        payload = {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "total_squared": self.total_squared,
        }
        # Only a sum that one float cannot hold carries its partials, so
        # most payloads look exactly as they did before exact sums.
        for key, partials in (("total_partials", self.total_partials),
                              ("total_squared_partials", self.total_squared_partials)):
            if len(partials) > 1:
                payload[key] = list(partials)
        if self.exact:
            payload["exact"] = True
        # Omitted when absent so unstratified payloads stay byte-identical
        # to what every release before stratified sampling produced.
        if self.p_clean is not None:
            payload["p_clean"] = self.p_clean
            payload["clean_value"] = self.clean_value
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PropertyEstimate":
        """Inverse of :meth:`to_dict`."""
        p_clean = data.get("p_clean")
        clean_value = data.get("clean_value")
        return cls(
            name=str(data["name"]),
            count=int(data["count"]),
            total=float(data["total"]),
            total_squared=float(data["total_squared"]),
            exact=bool(data.get("exact", False)),
            p_clean=None if p_clean is None else float(p_clean),
            clean_value=None if clean_value is None else float(clean_value),
            total_partials=[float(x) for x in data.get("total_partials", ())],
            total_squared_partials=[
                float(x) for x in data.get("total_squared_partials", ())
            ],
        )

    @property
    def erring_mean(self) -> float:
        """Mean of the accumulated samples (the erring stratum when
        stratified, all trajectories otherwise)."""
        if self.count == 0:
            raise ValueError("no samples accumulated")
        return self.total / self.count

    @property
    def mean(self) -> float:
        """The Monte-Carlo estimate ``o_hat`` (paper Section III).

        Stratified: the unbiased post-stratified combination
        ``p_clean * clean_value + (1 - p_clean) * erring_mean``.
        """
        sample_mean = self.erring_mean
        if self.p_clean is None:
            return sample_mean
        return self.p_clean * self.clean_value + self._weight * sample_mean

    @property
    def sample_variance(self) -> float:
        """Unbiased sample variance of the accumulated per-sample values."""
        if self.exact or self.count < 2:
            return 0.0
        mean = self.erring_mean
        return max(
            0.0, (self.total_squared - self.count * mean * mean) / (self.count - 1)
        )

    @property
    def variance(self) -> float:
        """Unbiased sample variance of the per-trajectory values.

        Stratified: the clean stratum is analytic (zero variance), so this
        is the variance of the estimator's *virtual* per-sample value,
        ``(1 - p_clean)^2`` times the erring-sample variance — the scale at
        which ``sqrt(variance / count)`` remains the standard error of
        :attr:`mean`.
        """
        return self._weight * self._weight * self.sample_variance

    @property
    def std_error(self) -> float:
        """Standard error of the mean (zero for exact evaluations)."""
        if self.exact:
            return 0.0 if self.count else float("inf")
        if self.count == 0:
            return float("inf")
        return math.sqrt(self.variance / self.count)

    def hoeffding_halfwidth(self, delta: float = 0.05, value_range: float = 1.0) -> float:
        """Hoeffding confidence half-width at level ``1 - delta``.

        ``value_range`` is the width of the property's value interval
        (1 for probabilities/fidelities, 2 for Pauli expectations).
        Exact evaluations carry no sampling error: the half-width is zero.
        Stratified estimates shrink by the erring mass ``(1 - p_clean)``:
        only the erring term carries sampling error, and its weight scales
        the deviation bound linearly.
        """
        if self.count == 0:
            return float("inf")
        if self.exact:
            return 0.0
        return self._weight * value_range * math.sqrt(
            math.log(2.0 / delta) / (2.0 * self.count)
        )

    def bernstein_halfwidth(self, delta: float = 0.05, value_range: float = 1.0) -> float:
        """Empirical-Bernstein half-width (Maurer & Pontil) at ``1 - delta``.

        ``sqrt(2 V ln(4/delta) / n) + 7 R ln(4/delta) / (3 (n - 1))`` with
        ``V`` the sample variance — two applications of the one-sided bound
        at ``delta / 2`` each.  Variance-adaptive: much tighter than
        Hoeffding when the per-sample variance is far below ``(R/2)^2``,
        looser for tiny ``n`` (the ``1/(n-1)`` term dominates).  Stratified
        estimates scale by the erring mass, exactly as for Hoeffding.
        """
        if self.count == 0:
            return float("inf")
        if self.exact:
            return 0.0
        if self.count < 2:
            # No empirical variance yet; Hoeffding is the only valid bound.
            return float("inf")
        log_term = math.log(4.0 / delta)
        raw = math.sqrt(2.0 * self.sample_variance * log_term / self.count) + (
            7.0 * value_range * log_term / (3.0 * (self.count - 1))
        )
        return self._weight * raw

    def halfwidth(
        self,
        delta: float = 0.05,
        value_range: float = 1.0,
        bound: str = "hoeffding",
    ) -> float:
        """Confidence half-width under the chosen concentration ``bound``.

        ``"hoeffding"`` and ``"bernstein"`` use their full ``delta``;
        ``"best"`` takes the minimum of both at ``delta / 2`` each (a union
        bound keeps the combined level valid).
        """
        if bound == "hoeffding":
            return self.hoeffding_halfwidth(delta, value_range)
        if bound == "bernstein":
            return self.bernstein_halfwidth(delta, value_range)
        if bound == "best":
            return min(
                self.hoeffding_halfwidth(delta / 2.0, value_range),
                self.bernstein_halfwidth(delta / 2.0, value_range),
            )
        raise ValueError(f"unknown concentration bound: {bound!r}")

    def confidence_interval(self, delta: float = 0.05, value_range: float = 1.0) -> Tuple[float, float]:
        """Hoeffding interval containing the true value w.p. >= 1 - delta."""
        halfwidth = self.hoeffding_halfwidth(delta, value_range)
        return self.mean - halfwidth, self.mean + halfwidth


@dataclass
class StochasticResult:
    """Complete outcome of a stochastic (Monte-Carlo) simulation."""

    circuit_name: str
    backend_kind: str
    requested_trajectories: int
    completed_trajectories: int = 0
    #: Which execution path produced this result: ``"stochastic"``
    #: (Monte-Carlo trajectories) or ``"exact"`` (density-matrix DD, zero
    #: sampling error — every estimate has ``exact=True``).
    method: str = "stochastic"
    estimates: Dict[str, PropertyEstimate] = field(default_factory=dict)
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    #: Under stratified sampling, ``outcome_counts`` holds the
    #: erring-stratum histogram and this holds shots drawn from the shared
    #: ideal (clean) state; :meth:`outcome_distribution` recombines the two
    #: pools with the stratum weights.  Empty in unstratified runs.
    clean_outcome_counts: Dict[str, int] = field(default_factory=dict)
    #: Stratified-sampling accounting: ``p_clean`` (closed form),
    #: ``erring_sampled`` and ``attempts`` (first-error draws, one per
    #: erring trajectory).  Empty when the run was not stratified; merges
    #: add the counts and require the same ``p_clean`` on both sides.
    strata: Dict[str, float] = field(default_factory=dict)
    #: Errors fired, by mechanism.  A stratified trajectory starts counting
    #: at its first state-changing error: identity branches drawn before it
    #: never touched the state and are not counted.
    errors_fired: Dict[str, int] = field(
        default_factory=lambda: {"depolarizing": 0, "amplitude_damping": 0, "phase_flip": 0}
    )
    #: Wall-clock seconds stamped by whoever ran the job (scheduler or span).
    elapsed_seconds: float = 0.0
    #: Compute seconds summed across all contributing chunks; with parallel
    #: workers this exceeds ``elapsed_seconds`` (up to ``workers`` times).
    cpu_seconds: float = 0.0
    #: Largest state (or rho) DD the run built.  On a ``statevector`` result
    #: it is the engine-choosing DD run's peak when that run stopped at
    #: 2^(n-1) nodes: a censored lower bound (0 for explicit dense jobs).
    peak_nodes: int = 0
    workers: int = 1
    timed_out: bool = False
    #: Observability snapshot (see :mod:`repro.obs`); merges associatively.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Correlated trace events recorded while producing this result (see
    #: :mod:`repro.obs.context`); concatenated on merge, in the order chunks
    #: committed, and stitched by the consumer from their span ids.
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: Hot-loop profile (see :mod:`repro.obs.profile`); empty unless the
    #: run executed with ``REPRO_PROFILE`` enabled; adds on merge.
    profile: Dict[str, object] = field(default_factory=dict)

    def merge(self, other: "StochasticResult") -> None:
        """Fold a worker's partial result into this aggregate.

        An aggregate without trajectories takes ``other``'s engine
        (``backend_kind``); one that holds trajectories refuses a different
        engine, as it refuses a ``p_clean`` mismatch.
        """
        if other.backend_kind != self.backend_kind:
            if self.completed_trajectories:
                raise ValueError(
                    f"engine mismatch merging results: {other.backend_kind!r} "
                    f"into {self.backend_kind!r} trajectories"
                )
            self.backend_kind = other.backend_kind
        self.completed_trajectories += other.completed_trajectories
        for name, estimate in other.estimates.items():
            if name in self.estimates:
                self.estimates[name].merge(estimate)
            else:
                self.estimates[name] = estimate
        tally(self.outcome_counts, other.outcome_counts)
        tally(self.clean_outcome_counts, other.clean_outcome_counts)
        if other.strata:
            if not self.strata:
                self.strata = dict(other.strata)
            else:
                if other.strata.get("p_clean") != self.strata.get("p_clean"):
                    raise ValueError(
                        f"stratum mismatch merging results: p_clean "
                        f"{self.strata.get('p_clean')!r} vs "
                        f"{other.strata.get('p_clean')!r}"
                    )
                for key in ("erring_sampled", "attempts"):
                    self.strata[key] = self.strata.get(key, 0) + other.strata.get(key, 0)
        tally(self.errors_fired, other.errors_fired)
        self.cpu_seconds += other.cpu_seconds
        self.peak_nodes = max(self.peak_nodes, other.peak_nodes)
        self.timed_out = self.timed_out or other.timed_out
        if other.metrics:
            self.metrics = merge_snapshots(self.metrics, other.metrics)
        if other.trace_events:
            self.trace_events.extend(dict(event) for event in other.trace_events)
        if other.profile:
            self.profile = merge_profiles(self.profile or None, other.profile)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (used by the service result store)."""
        payload = {
            "circuit_name": self.circuit_name,
            "backend_kind": self.backend_kind,
            "method": self.method,
            "requested_trajectories": self.requested_trajectories,
            "completed_trajectories": self.completed_trajectories,
            "estimates": {
                name: estimate.to_dict() for name, estimate in self.estimates.items()
            },
            "outcome_counts": dict(self.outcome_counts),
            "errors_fired": dict(self.errors_fired),
            "elapsed_seconds": self.elapsed_seconds,
            "cpu_seconds": self.cpu_seconds,
            "peak_nodes": self.peak_nodes,
            "workers": self.workers,
            "timed_out": self.timed_out,
            "metrics": self.metrics,
            "trace_events": [dict(event) for event in self.trace_events],
            "profile": dict(self.profile),
        }
        # Omitted when empty so unstratified payloads stay byte-identical
        # to what every release before stratified sampling produced.
        if self.clean_outcome_counts:
            payload["clean_outcome_counts"] = dict(self.clean_outcome_counts)
        if self.strata:
            payload["strata"] = dict(self.strata)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StochasticResult":
        """Inverse of :meth:`to_dict` (always yields an independent copy)."""
        return cls(
            circuit_name=str(data["circuit_name"]),
            backend_kind=str(data["backend_kind"]),
            # Tolerant default: results cached before the hybrid dispatcher.
            method=str(data.get("method", "stochastic")),
            requested_trajectories=int(data["requested_trajectories"]),
            completed_trajectories=int(data["completed_trajectories"]),
            estimates={
                name: PropertyEstimate.from_dict(entry)
                for name, entry in dict(data["estimates"]).items()
            },
            outcome_counts={k: int(v) for k, v in dict(data["outcome_counts"]).items()},
            clean_outcome_counts={
                k: int(v)
                for k, v in dict(data.get("clean_outcome_counts", {})).items()
            },
            strata=dict(data.get("strata", {})),
            errors_fired={k: int(v) for k, v in dict(data["errors_fired"]).items()},
            elapsed_seconds=float(data["elapsed_seconds"]),
            # Tolerant defaults: results cached before these fields existed.
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
            peak_nodes=int(data["peak_nodes"]),
            workers=int(data["workers"]),
            timed_out=bool(data["timed_out"]),
            metrics=merge_snapshots(data.get("metrics")) if data.get("metrics") else {},
            trace_events=[dict(event) for event in data.get("trace_events", [])],
            profile=merge_profiles(data.get("profile")) if data.get("profile") else {},
        )

    def copy(self) -> "StochasticResult":
        """Deep, independent copy (cache reads must not alias the store)."""
        return StochasticResult.from_dict(self.to_dict())

    def mean(self, property_name: str) -> float:
        """Estimate of one property by name."""
        return self.estimates[property_name].mean

    def outcome_distribution(self) -> Dict[str, float]:
        """Sampled measurement outcomes as relative frequencies.

        Stratified runs combine the clean and erring sampling pools with
        their stratum weights: ``p_clean * f_clean + (1 - p_clean) *
        f_erring`` — the unbiased estimate of the noisy outcome law.
        """
        erring_total = sum(self.outcome_counts.values())
        clean_total = sum(self.clean_outcome_counts.values())
        p_clean = self.strata.get("p_clean") if self.strata else None
        if p_clean is None or clean_total == 0 or erring_total == 0:
            if erring_total == 0:
                return {}
            return {
                key: count / erring_total
                for key, count in sorted(self.outcome_counts.items())
            }
        weights: Dict[str, float] = {}
        for key, count in self.clean_outcome_counts.items():
            weights[key] = weights.get(key, 0.0) + p_clean * count / clean_total
        erring_weight = 1.0 - p_clean
        for key, count in self.outcome_counts.items():
            weights[key] = weights.get(key, 0.0) + (
                erring_weight * count / erring_total
            )
        return {key: weights[key] for key in sorted(weights)}

    def trajectories_per_second(self) -> float:
        """Monte-Carlo throughput."""
        if self.elapsed_seconds <= 0.0:
            return float("inf")
        return self.completed_trajectories / self.elapsed_seconds

    def effective_trajectories(self) -> float:
        """Naive-trajectory equivalent of the accumulated sample budget.

        A stratified run of ``M`` erring samples carries the Hoeffding
        guarantee of ``M / (1 - p_clean)^2`` naive trajectories (the
        half-width shrinks by ``1 - p_clean`` at equal count); unstratified
        runs return ``completed_trajectories`` unchanged.
        """
        p_clean = self.strata.get("p_clean") if self.strata else None
        if p_clean is None or p_clean >= 1.0:
            return float(self.completed_trajectories)
        return self.completed_trajectories / (1.0 - p_clean) ** 2

    def summary(self) -> str:
        """Multi-line human-readable report."""
        if self.method == "exact":
            lines = [
                f"circuit: {self.circuit_name} ({self.backend_kind} backend, "
                f"exact density-matrix method)",
                f"elapsed: {self.elapsed_seconds:.3f} s",
            ]
        else:
            lines = [
                f"circuit: {self.circuit_name} ({self.backend_kind} backend, "
                f"{self.workers} worker(s))",
                f"trajectories: {self.completed_trajectories}/{self.requested_trajectories}"
                + (" [TIMED OUT]" if self.timed_out else ""),
                f"elapsed: {self.elapsed_seconds:.3f} s "
                f"({self.trajectories_per_second():.1f} traj/s"
                + (f", {self.cpu_seconds:.3f} cpu-s" if self.cpu_seconds else "")
                + ")",
                f"errors fired: {self.errors_fired}",
            ]
            if self.strata:
                lines.append(
                    f"stratified: p_clean={self.strata.get('p_clean', 0.0):.6f}, "
                    f"{int(self.strata.get('erring_sampled', 0))} erring sampled, "
                    f"~{self.effective_trajectories():.0f} effective trajectories"
                )
        if self.peak_nodes and self.backend_kind == "statevector":
            # Only an auto span's engine-choosing DD run, stopped once it
            # held 2^(n-1) of at most 2^n - 1 nodes, gives a dense result a
            # peak, so that threshold is the largest power of two <= it.
            threshold = 1 << (self.peak_nodes.bit_length() - 1)
            lines.append(
                f"peak DD nodes: >={self.peak_nodes} "
                f"(engine choice stopped at 2^(n-1) = {threshold})"
            )
        elif self.peak_nodes:
            lines.append(f"peak DD nodes: {self.peak_nodes}")
        for name, estimate in sorted(self.estimates.items()):
            if estimate.exact:
                lines.append(f"  {name}: {estimate.mean:.6f} (exact, halfwidth 0)")
                continue
            low, high = estimate.confidence_interval()
            lines.append(
                f"  {name}: {estimate.mean:.6f} "
                f"(95% Hoeffding [{low:.6f}, {high:.6f}], se {estimate.std_error:.2e})"
            )
        if self.outcome_counts:
            top = sorted(self.outcome_counts.items(), key=lambda kv: -kv[1])[:8]
            lines.append("  top outcomes: " + ", ".join(f"{k}: {v}" for k, v in top))
        return "\n".join(lines)
