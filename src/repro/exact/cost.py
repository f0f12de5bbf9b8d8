"""Exact-vs-stochastic cost model for the hybrid dispatcher.

The paper's core trade-off: exact mixed-state simulation works on a
``2**n x 2**n`` object (super-linear in ``4**n`` dense, diagram-size-bound
on DDs) but needs *one* pass, while stochastic sampling works on ``2**n``
state vectors but needs ``M`` trajectory passes sized by the Theorem 1
Hoeffding contract.  This module turns that trade-off into a deterministic
per-:class:`~repro.service.job.JobSpec` routing decision.

Both sides are scored in the same abstract unit — "operator applications
times representation size":

* **exact**: every gate costs two matrix-matrix multiplies, every noise
  channel two per Kraus rank (paper-noise total ``R ~ 8`` ranks per touched
  qubit), crosstalk 32 per pair, all on a rho of worst-case size ``4**n``;
* **stochastic**: the *stratified* trajectory budget
  ``ceil(M * (1 - p_clean)**2)`` (PR 9 — the clean stratum folds
  analytically, only erring-conditioned trajectories replay) times the
  circuit's operation schedule on a vector of worst-case size ``2**n``.
  When stratification is off or inapplicable (measure/reset mid-circuit,
  conditioned gates) the budget degrades to the naive ``M``.

Representation sizes come in two flavours:

* **worst case** — dense ``4**n`` / ``2**n``.  Always available, never
  wrong about the exponential, often wrong by orders of magnitude on
  structured circuits (a GHZ-class rho is ~``4n`` DD nodes, not ``4**n``).
* **measured** — :class:`MeasuredCostModel` replaces the dense sizes with
  peak node counts previously *observed* for the same circuit family in
  the run ledger (:mod:`repro.obs.ledger`).  History is keyed by the
  structural family fingerprint, needs one observed peak, adds a safety
  headroom, floors at the trivial diagram size, and never exceeds the
  worst case.  Node-ceiling fallbacks are folded in as *censored*
  observations — an exact run that tripped its ceiling proves rho grew at
  least that large, so mispredictions push the measured size back up and
  dispatch learns.  With no history (an empty ledger, ``history=None``)
  both sides keep their worst-case sizes.

The worst-case ratio reduces to ``exact wins iff 2 * (1 + R) * 2**n < M``
— with the paper's M = 30 000 budget and full paper noise, exact wins up
to ~10-11 qubits and loses beyond.  Under the stratified budget the
stochastic side shrinks by ``(1 - p_clean)**2`` (~100x at paper rates), so
worst-case exact essentially never wins — measured rho evidence is what
lets exact keep winning far past the dense boundary, exactly the ROADMAP
feedback loop.  The mid-flight node-ceiling fallback remains the backstop
for the measured model's mistakes: the cost model only has to pick the
right side of the exponential, not perfectly predict diagram sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.operations import (
    BarrierOperation,
    GateOperation,
    MeasureOperation,
    ResetOperation,
)
from ..noise.model import NoiseModel
from ..noise.stochastic import build_noise_site
from ..obs.ledger import Snapshot, circuit_fingerprint, family_totals
from ..stochastic.properties import ClassicalOutcome, PropertySpec
from ..stochastic.strata import (
    site_survival_probability,
    stratified_samples,
    trajectory_mode,
    worth_stratifying,
)

__all__ = [
    "DispatchDecision",
    "MeasuredCostModel",
    "SizeEvidence",
    "estimate_costs",
    "exact_unsupported_reason",
    "resolve_method",
    "static_clean_probability",
    "stochastic_budget",
]

#: Safety multiplier on observed peak node counts — diagrams wobble run to
#: run (noise draws differ), so score with slack before trusting history.
MEASURED_HEADROOM = 2.0


@dataclass(frozen=True)
class SizeEvidence:
    """Representation size for one side of the comparison, with provenance."""

    #: Estimated peak node/entry count of the representation.
    nodes: float
    #: ``"worst_case"`` (dense bound) or ``"measured"`` (ledger history).
    source: str
    #: Ledger observations backing a measured estimate (0 for worst case).
    observations: int = 0
    #: True when the estimate includes node-ceiling fallback records —
    #: lower bounds on how large rho actually grew (run was cut short).
    censored: bool = False


def _size_evidence(
    peak: int, worst: float, num_qubits: int, observations: int, censored: bool = False
) -> SizeEvidence:
    """The observed ``peak`` padded, floored and capped; worst case if none."""
    if peak <= 0:
        return SizeEvidence(nodes=worst, source="worst_case")
    floored = max(MEASURED_HEADROOM * float(peak), float(num_qubits + 1))
    return SizeEvidence(
        nodes=min(worst, floored),
        source="measured",
        observations=observations,
        censored=censored,
    )


class MeasuredCostModel:
    """Representation-size oracle backed by run-ledger family history.

    ``history`` maps circuit-family fingerprints to family history
    snapshots (as returned by :meth:`~repro.obs.ledger.RunLedger.aggregates`).
    Each query answers with the observed peak node count when the family
    has one on that side, padded by :data:`MEASURED_HEADROOM`, floored at
    the trivial diagram size, and capped at the dense worst case; a family
    with no observed peak falls back to the worst case.
    """

    def __init__(self, history: Mapping[str, Snapshot]) -> None:
        self.history = history

    def exact_size(self, fingerprint: str, num_qubits: int) -> SizeEvidence:
        """Peak rho-DD size: exact runs plus ceiling-censored fallbacks."""
        family = family_totals(self.history.get(fingerprint, {}))
        return _size_evidence(
            max(family["exact_peak_nodes"], family["fallback_peak_nodes"]),
            float(4**num_qubits),
            num_qubits,
            family["exact_runs"] + family["fallbacks"],
            censored=family["fallbacks"] > 0,
        )

    def stochastic_size(self, fingerprint: str, num_qubits: int) -> SizeEvidence:
        """Peak state-DD size over the family's stochastic runs.

        Dense runs contribute the censored peak at which their engine
        choice stopped: at least 2^(n-1), so the headroom pads it to the
        2^n cap, as a whole-run peak would.
        """
        family = family_totals(self.history.get(fingerprint, {}))
        return _size_evidence(
            max(family["state_peak_nodes"], family["dense_peak_nodes"]),
            float(2**num_qubits),
            num_qubits,
            family["stochastic_runs"],
        )


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome of the cost comparison for one job."""

    #: The routed method: ``"exact"`` or ``"stochastic"``.
    method: str
    #: Abstract cost scores (same unit on both sides; see module docstring).
    exact_cost: float
    stochastic_cost: float
    #: Superoperator multiplies one exact pass performs.
    exact_multiplies: int
    #: Why exact was ruled out structurally, if it was (cost ignored then).
    unsupported_reason: Optional[str] = None
    #: ``"worst_case"`` or ``"measured"`` — whether ledger history entered
    #: the comparison on at least one side.
    evidence: str = "worst_case"
    #: Circuit-family fingerprint the history (if any) was keyed by.
    fingerprint: Optional[str] = None
    #: Representation sizes actually scored with, per side.
    exact_nodes: float = 0.0
    stochastic_nodes: float = 0.0
    #: Ledger observations backing each side (0 = worst case used).
    exact_observations: int = 0
    stochastic_observations: int = 0
    #: Exact-side evidence includes node-ceiling fallbacks (lower bounds).
    censored: bool = False
    #: Trajectory budget the stochastic side was scored with (stratified
    #: ``ceil(M * (1 - p_clean)**2)`` when applicable, else naive ``M``).
    stochastic_budget: int = 0
    #: Static clean-stratum weight used for the budget, when stratifiable.
    p_clean: Optional[float] = None

    def render(self) -> str:
        """One-line human-readable explanation (CLI ``--method auto``)."""
        if self.unsupported_reason is not None:
            return f"dispatch: stochastic (exact unsupported: {self.unsupported_reason})"
        base = (
            f"dispatch: {self.method} "
            f"(exact cost {self.exact_cost:.3g} vs stochastic {self.stochastic_cost:.3g}, "
            f"{self.exact_multiplies} superoperator multiplies)"
        )
        if self.evidence != "measured":
            return base
        parts = []
        if self.exact_observations > 0:
            cite = (
                f"rho ~{self.exact_nodes:.3g} nodes "
                f"over {self.exact_observations} run(s)"
            )
            if self.censored:
                cite += ", ceiling-censored"
            parts.append(cite)
        if self.stochastic_observations > 0:
            parts.append(
                f"state ~{self.stochastic_nodes:.3g} nodes "
                f"over {self.stochastic_observations} run(s)"
            )
        return (
            f"{base} [measured evidence: family {self.fingerprint}, "
            + "; ".join(parts)
            + "]"
        )


def exact_unsupported_reason(
    circuit: QuantumCircuit, properties: Sequence[PropertySpec]
) -> Optional[str]:
    """Structural reason the exact path cannot run this job, or ``None``.

    The ensemble (density-matrix) picture has no per-shot classical record:
    classically conditioned gates and :class:`ClassicalOutcome` properties
    are trajectory-only concepts.
    """
    for spec in properties:
        if isinstance(spec, ClassicalOutcome):
            return (
                f"property {spec.name} reads the per-trajectory classical "
                f"record, which the ensemble picture does not have"
            )
    for operation in circuit:
        if isinstance(operation, GateOperation) and operation.condition is not None:
            return (
                "circuit contains classically conditioned gates; the "
                "ensemble picture has no classical record to condition on"
            )
    return None


def _channel_multiplies(rates, noisy: bool) -> int:
    """Superoperator multiplies of one qubit's post-gate channel stack.

    Two multiplies per Kraus term: depolarizing has rank 4, amplitude
    damping and phase flip rank 2 each — the full paper stack is ``R = 8``
    ranks, 16 multiplies.
    """
    if not noisy:
        return 0
    multiplies = 0
    if rates.depolarizing > 0.0:
        multiplies += 2 * 4
    if rates.amplitude_damping > 0.0:
        multiplies += 2 * 2
    if rates.phase_flip > 0.0:
        multiplies += 2 * 2
    return multiplies


def count_exact_multiplies(circuit: QuantumCircuit, model: Optional[NoiseModel]) -> int:
    """Matrix-matrix multiplies one exact pass over ``circuit`` performs.

    Crosstalk is charged per *adjacent* touched-qubit pair
    (``zip(qubits, qubits[1:])``) at the rate resolved on the pair's second
    qubit, 16 two-qubit Pauli-pair Kraus terms each — exactly the pair
    structure and rate resolution the stochastic applier and the
    :class:`~repro.exact.backend.DensityDDBackend` crosstalk channel share
    (pinned by ``tests/exact/test_cost.py``).
    """
    multiplies = 0
    for operation in circuit:
        if isinstance(operation, BarrierOperation):
            continue
        if isinstance(operation, MeasureOperation):
            multiplies += 2 * 2  # dephasing projector pair
            if model is not None:
                rates = model.rates_for("measure", operation.qubit)
                if rates.readout > 0.0:
                    multiplies += 2 * 2
                multiplies += _channel_multiplies(rates, model.noisy_measure)
            continue
        if isinstance(operation, ResetOperation):
            multiplies += 2 * 2  # reset Kraus pair
            if model is not None:
                rates = model.rates_for("reset", operation.qubit)
                multiplies += _channel_multiplies(rates, model.noisy_measure)
            continue
        assert isinstance(operation, GateOperation)
        multiplies += 2  # U rho U^dagger
        if model is None:
            continue
        for qubit in operation.qubits:
            multiplies += _channel_multiplies(
                model.rates_for(operation.name, qubit), True
            )
        touched = operation.qubits
        for pair in zip(touched, touched[1:]):
            if model.rates_for(operation.name, pair[1]).crosstalk > 0.0:
                multiplies += 2 * 16
    return multiplies


def static_clean_probability(
    circuit: QuantumCircuit, model: Optional[NoiseModel]
) -> Optional[float]:
    """A-priori clean-stratum weight, or ``None`` when not stratifiable.

    The product of :func:`~repro.stochastic.strata.site_survival_probability`
    over the circuit's noise sites, in the order
    :class:`~repro.stochastic.strata.StrataPlan` multiplies them, built
    *statically* — before any state exists — so dispatch can size the
    stratified budget without a dry run.  The one draw it cannot know
    statically is event-mode damping's occupation ``p_one``; it assumes the
    worst case ``p_one = 1``, making this a lower bound on the true
    ``p_clean`` and the resulting budget an upper bound on the true
    stratified cost (the safe direction for routing).  Without damping it
    equals the runtime plan's ``p_clean`` exactly.

    Returns ``None`` for circuits the prefix-sharing plan cannot stratify:
    mid-circuit measure/reset (the plan stops there) or classically
    conditioned gates (whether they fire is per-trajectory state).
    """
    if model is None or model.is_noiseless:
        return 1.0
    exact_damping = model.damping_mode == "exact"
    p_clean = 1.0
    for operation in circuit:
        if isinstance(operation, BarrierOperation):
            continue
        if isinstance(operation, (MeasureOperation, ResetOperation)):
            return None
        assert isinstance(operation, GateOperation)
        if operation.condition is not None:
            return None
        site = build_noise_site(model, operation.name, operation.qubits, lambda q: 1.0)
        p_clean *= site_survival_probability(site, exact_damping)
    return p_clean


def stochastic_budget(
    circuit: QuantumCircuit,
    model: Optional[NoiseModel],
    trajectories: int,
) -> Tuple[int, Optional[float]]:
    """Trajectories the stochastic path will actually run, plus ``p_clean``.

    Under stratified sampling (the default trajectory mode) the clean
    stratum folds analytically and only ``ceil(M * (1 - p_clean)**2)``
    erring-conditioned trajectories replay; scoring dispatch with the naive
    ``M`` would overestimate stochastic cost ~100x at paper rates and
    wrongly route to exact.  Degrades to the naive budget exactly when the
    runtime does: the same :func:`~repro.stochastic.strata.trajectory_mode`
    is not ``stratified``, the circuit is not stratifiable, or
    :func:`~repro.stochastic.strata.worth_stratifying` fails (exact
    damping's zero ``p_clean``, a noiseless model's negligible erring mass).
    """
    naive = max(1, trajectories)
    if trajectory_mode() != "stratified":
        return naive, None
    p_clean = static_clean_probability(circuit, model)
    if p_clean is None or not worth_stratifying(p_clean):
        return naive, p_clean
    return stratified_samples(naive, p_clean), p_clean


def estimate_costs(
    circuit: QuantumCircuit,
    model: Optional[NoiseModel],
    properties: Sequence[PropertySpec],
    trajectories: int,
    backend_kind: str = "dd",
    history: Optional[Mapping[str, Snapshot]] = None,
) -> DispatchDecision:
    """Score both methods and pick the cheaper one.

    ``trajectories`` is the job's epsilon/delta contract proxy — callers
    size it through :func:`~repro.stochastic.properties.hoeffding_samples`,
    so it carries the accuracy demand into the comparison.  ``history``
    (run-ledger family snapshots) upgrades the representation sizes from
    worst-case to measured when the family has recorded observations; the
    decision then cites its evidence in :meth:`DispatchDecision.render`.
    """
    reason = exact_unsupported_reason(circuit, properties)
    exact_multiplies = count_exact_multiplies(circuit, model)
    num_qubits = circuit.num_qubits
    fingerprint = circuit_fingerprint(circuit, model, backend_kind)
    # Stochastic operation count: M trajectories replay the circuit's
    # operation schedule (one matrix-vector product per op), with M the
    # budget the stratified runtime will actually spend.
    num_ops = max(1, len(circuit.operations))
    budget, p_clean = stochastic_budget(circuit, model, trajectories)
    exact_nodes = float(4**num_qubits)
    stochastic_nodes = float(2**num_qubits)
    evidence = "worst_case"
    exact_observations = 0
    stochastic_observations = 0
    censored = False
    if history:
        cost_model = MeasuredCostModel(history)
        exact_evidence = cost_model.exact_size(fingerprint, num_qubits)
        stochastic_evidence = cost_model.stochastic_size(fingerprint, num_qubits)
        exact_nodes = exact_evidence.nodes
        stochastic_nodes = stochastic_evidence.nodes
        exact_observations = exact_evidence.observations
        stochastic_observations = stochastic_evidence.observations
        censored = exact_evidence.censored
        if "measured" in (exact_evidence.source, stochastic_evidence.source):
            evidence = "measured"
    exact_cost = float(exact_multiplies) * exact_nodes
    stochastic_cost = float(budget) * float(num_ops) * stochastic_nodes
    if reason is not None:
        method = "stochastic"
    else:
        method = "exact" if exact_cost < stochastic_cost else "stochastic"
    return DispatchDecision(
        method=method,
        exact_cost=exact_cost,
        stochastic_cost=stochastic_cost,
        exact_multiplies=exact_multiplies,
        unsupported_reason=reason,
        evidence=evidence,
        fingerprint=fingerprint,
        exact_nodes=exact_nodes,
        stochastic_nodes=stochastic_nodes,
        exact_observations=exact_observations,
        stochastic_observations=stochastic_observations,
        censored=censored,
        stochastic_budget=budget,
        p_clean=p_clean,
    )


def resolve_method(
    method: str,
    circuit: QuantumCircuit,
    model: Optional[NoiseModel],
    properties: Sequence[PropertySpec],
    trajectories: int,
    backend_kind: str = "dd",
    history: Optional[Mapping[str, Snapshot]] = None,
) -> Tuple[str, Optional[DispatchDecision]]:
    """How a job requesting ``method`` runs, and the decision behind an
    ``auto`` choice: the dispatch rule of the scheduler and the one-shot
    commands.  ``stochastic`` passes through; ``exact`` raises
    ``ValueError`` (with the reason) on a spec exact cannot express;
    ``auto`` is :func:`estimate_costs` against ``history``, or sampling
    with a decision carrying only the reason on such a spec."""
    if method == "stochastic":
        return method, None
    reason = exact_unsupported_reason(circuit, properties)
    if reason is not None:
        if method == "exact":
            raise ValueError(reason)
        return "stochastic", DispatchDecision(
            "stochastic", float("inf"), 0.0, 0, unsupported_reason=reason
        )
    if method == "exact":
        return method, None
    decision = estimate_costs(
        circuit, model, properties, trajectories, backend_kind, history
    )
    return decision.method, decision
