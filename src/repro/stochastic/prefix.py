"""Trajectory prefix sharing: serve clean runs from one DD, replay suffixes.

At the paper's noise regime the expected number of error events per
trajectory is well below one, yet the naive Monte-Carlo loop re-executes
the whole circuit from |0...0> for every run.  Because every error decision
in :class:`~repro.noise.stochastic.StochasticErrorApplier` along the
*ideal* prefix is a state-independent Bernoulli draw (amplitude damping's
state dependence enters only through the ideal P(1), which is precomputed
here), a cheap **rng dry-run** finds each trajectory's first error site
without touching any state:

* trajectories whose first site lies beyond the circuit end are **clean**:
  their final state *is* the shared, refcounted ideal-state DD, so
  properties are evaluated once and reused bit-identically, and only the
  per-trajectory ``sample_shots`` are drawn with the trajectory's own rng;
* erring trajectories resume from the nearest refcounted **ideal-prefix
  checkpoint** (every ~sqrt(gate count) steps) and replay only the suffix
  with the real error applier — the rng is rewound by re-consuming the
  prefix draws from the trajectory seed, which costs O(prefix error
  slots), not O(state).

The engine is exactly equivalent to the naive path — same per-trajectory
rng streams, same hash-consed state edges, same floats — which
``REPRO_TRAJECTORY_MODE=naive`` exposes directly (``shared`` runs this
engine without stratification; see
:func:`~repro.stochastic.strata.trajectory_mode`) and the equivalence gate
in tests/stochastic/test_prefix_sharing.py enforces.  Measurements and resets
are divergence points (their collapse draws are state-dependent), as is any
damping slot under the ``"exact"`` Kraus unravelling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..noise.model import NoiseModel
from ..noise.stochastic import NoiseSite, build_noise_site, dry_run_site
from ..simulators.base import RunResult
from ..simulators.gateplan import GATE, GatePlan

__all__ = [
    "PrefixPlan",
    "compile_prefix_plan",
]


def _checkpoint_interval(step_count: int) -> int:
    """Gate-plan steps between refcounted ideal-prefix snapshots.

    sqrt spacing balances snapshot memory (sqrt(G) pinned states) against
    replay length (expected sqrt(G)/2 re-executed gates per erring run).
    """
    return max(1, math.isqrt(max(1, step_count)))


class PrefixPlan:
    """Everything one instrumented ideal execution teaches us about a
    (circuit, noise model) pair, reusable across every trajectory."""

    def __init__(self, gate_plan: GatePlan, noise_model: NoiseModel) -> None:
        self.gate_plan = gate_plan
        self.noise_model = noise_model
        self.exact_damping = noise_model.damping_mode != "event"
        self.interval = 1
        #: Per gate-plan step: a :class:`NoiseSite` (executed gate), or
        #: ``None`` (conditioned gate that does not fire pre-measurement).
        #: Truncated at ``stop_index`` when the circuit measures/resets.
        self.sites: List[Optional[NoiseSite]] = []
        #: First measure/reset step index — an unconditional divergence
        #: point (collapse draws are state-dependent) — or ``None``.
        self.stop_index: Optional[int] = None
        #: ``(step_index, pinned state edge)`` ascending; entry 0 is |0...0>.
        self.checkpoints: List[Tuple[int, object]] = []
        self._checkpoint_steps: List[int] = []
        #: ``executed_prefix[i]`` = gates actually applied among steps[:i].
        self.executed_prefix: List[int] = [0]
        #: Shared ideal output state (pinned) and its cached evaluation —
        #: ``None`` when the circuit measures (no clean trajectories exist).
        self.ideal_final = None
        self.ideal_norm_squared = 1.0
        self.ideal_run_result: Optional[RunResult] = None
        #: Largest state DD the ideal execution built (nodes) — what the
        #: runner's engine choice for ``auto`` jobs reads.  On a plan
        #: stopped at ``stop_nodes`` it is a censored lower bound: the
        #: peak when the run stopped, not the whole run's.
        self.peak_nodes = 0
        #: Index of the gate-plan step after which the ideal run's DD had
        #: held ``stop_nodes`` nodes and the run stopped; ``None`` when it
        #: ran to the end or to the first measurement.
        self.stopped_after: Optional[int] = None
        self._property_cache: Dict[str, float] = {}

    # -- dry-run ------------------------------------------------------

    def first_divergence(self, rng, fired: dict) -> Optional[int]:
        """Step index where this trajectory leaves the ideal prefix.

        Consumes ``rng`` exactly as the real applier would along the ideal
        prefix and tallies no-op events into ``fired``; returns ``None``
        for a clean trajectory (rng is then positioned exactly where a full
        naive execution would have left it).
        """
        exact = self.exact_damping
        for index, site in enumerate(self.sites):
            if site is None:
                continue
            if dry_run_site(rng, fired, site, exact):
                return index
        return self.stop_index

    def consume_prefix(self, rng, fired: dict, upto_step: int) -> None:
        """Re-consume the draws of steps[:upto_step] from a fresh rng.

        Used to position a replay's rng/tallies at a checkpoint: the caller
        guarantees ``upto_step`` is at or before the trajectory's first
        divergence, so no site in the range diverges and the consumed
        stream is identical to the dry-run's.
        """
        exact = self.exact_damping
        for site in self.sites[:upto_step]:
            if site is not None:
                dry_run_site(rng, fired, site, exact)

    # -- checkpoints ---------------------------------------------------

    def checkpoint_for(self, step_index: int) -> Tuple[int, object]:
        """The latest ``(step, state)`` checkpoint at or before ``step_index``."""
        position = bisect_right(self._checkpoint_steps, step_index) - 1
        return self.checkpoints[position]

    def executed_before(self, step_index: int) -> int:
        """Gates a naive run would have applied before ``step_index``."""
        return self.executed_prefix[step_index]

    # -- shared ideal state --------------------------------------------

    def property_values(self, backend, properties, context) -> Dict[str, float]:
        """Each property's value on the shared ideal state (evaluated once).

        The first call loads the ideal edge into ``backend`` and evaluates
        the properties in declaration order — the same table-insertion
        order a naive first-clean-trajectory evaluation produces — so every
        later clean trajectory folds in bit-identical floats.
        """
        if any(prop.name not in self._property_cache for prop in properties):
            backend.load_state(self.ideal_final)
            for prop in properties:
                if prop.name not in self._property_cache:
                    self._property_cache[prop.name] = prop.evaluate(
                        backend, self.ideal_run_result, context
                    )
        return self._property_cache


def compile_prefix_plan(
    backend,
    gate_plan: GatePlan,
    noise_model: NoiseModel,
    stop_nodes: Optional[int] = None,
) -> PrefixPlan:
    """One instrumented ideal execution -> a reusable :class:`PrefixPlan`.

    Runs the gate plan noiselessly on ``backend`` (a DD backend sharing the
    plan's package, resolving each step's operator DD as the run reaches
    it if the plan was compiled unresolved), recording per-slot error
    rates and ideal P(1) values,
    pinning checkpoint states every ``interval`` steps, and pinning the
    ideal output state.  The backend is left holding the ideal state; the
    caller resumes trajectories via ``load_state``.  The backend's peak
    restarts at |0...0>, so ``plan.peak_nodes`` is the ideal run's own peak.

    With ``stop_nodes`` (an ``auto`` span's engine threshold) the run stops
    after the first gate at which the state DD has held that many nodes
    (on one or two qubits |0...0> already has; a circuit that measures
    first stops there as before).  The plan then records
    ``stopped_after``, a censored ``peak_nodes`` and nothing to replay
    from: its checkpoints are released and it has no ideal state.  The
    peak only grows, so a run that never reaches ``stop_nodes`` yields
    exactly the plan compiled without it.
    """
    plan = PrefixPlan(gate_plan, noise_model)
    steps = gate_plan.steps
    plan.interval = _checkpoint_interval(len(steps))
    backend.reset_all()
    backend.reset_peak_nodes()
    classical_bits = [0] * gate_plan.num_clbits
    plan.checkpoints.append((0, backend.snapshot()))
    for index, step in enumerate(steps):
        if step.kind != GATE:
            plan.stop_index = index
            break
        if index > 0 and index % plan.interval == 0:
            plan.checkpoints.append((index, backend.snapshot()))
        if step.condition is not None and not step.condition.is_satisfied(
            classical_bits
        ):
            plan.sites.append(None)
            plan.executed_prefix.append(plan.executed_prefix[-1])
            continue
        gate_plan.resolve(index + 1)
        backend.apply_gate_edge(step.gate_edge)
        if stop_nodes is not None and backend.peak_nodes >= stop_nodes:
            plan.stopped_after = index
            break
        plan.sites.append(
            build_noise_site(
                noise_model, step.name, step.qubits, backend.probability_of_one
            )
        )
        plan.executed_prefix.append(plan.executed_prefix[-1] + 1)
    plan.peak_nodes = backend.peak_nodes
    if plan.stopped_after is not None:
        # Nothing replays from a stopped run: unpin what it pinned.
        for _, state in plan.checkpoints:
            backend.release_snapshot(state)
        plan.checkpoints = []
        return plan
    plan._checkpoint_steps = [step_index for step_index, _ in plan.checkpoints]
    if plan.stop_index is None:
        plan.ideal_final = backend.snapshot()
        plan.ideal_norm_squared = backend.squared_norm()
        plan.ideal_run_result = RunResult(
            [0] * gate_plan.num_clbits, applied_gates=plan.executed_prefix[-1]
        )
    return plan
