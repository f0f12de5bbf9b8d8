"""Adaptive Monte-Carlo sampling: run until a target precision is reached.

Theorem 1 gives an *a-priori* trajectory budget; in practice one often
prefers the dual formulation — keep sampling until the Hoeffding
confidence half-width of every tracked property drops below a target
``epsilon``.  :func:`run_until_precision` implements that loop on top of
the batch runner, growing the sample geometrically so the scheduling
overhead stays logarithmic, and re-budgeting the per-batch confidence via
a union bound over batches (so the final guarantee is honest despite the
data-dependent stopping).

The a-priori bound is also used as a hard ceiling: adaptivity can only
*save* trajectories relative to Theorem 1, never exceed it.

Two refinements compose with the loop:

* ``bound`` selects the concentration inequality — ``"hoeffding"``
  (default, range-based), ``"bernstein"`` (empirical-Bernstein, adapts to
  the observed variance), or ``"best"`` (minimum of both at ``delta/2``
  each, still a valid simultaneous guarantee by the union bound).
* Under stratified sampling (:mod:`repro.stochastic.strata`, the default
  on the DD backend) the first batch reveals the closed-form ``p_clean``,
  and the Theorem-1 ceiling is re-budgeted to the erring stratum:
  ``(1 - p_clean)^2`` times the naive budget carries the same a-priori
  epsilon guarantee, so the hard cap — not just the adaptive stop —
  shrinks quadratically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from .properties import PropertySpec, hoeffding_samples
from .results import StochasticResult
from .runner import StochasticSimulator, run_trajectory_span
from .strata import stratified_samples

__all__ = ["AdaptiveRun", "run_until_precision"]


@dataclass
class AdaptiveRun:
    """Result of an adaptive sampling session."""

    result: StochasticResult
    epsilon_target: float
    epsilon_achieved: float
    batches: int
    ceiling: int

    @property
    def trajectories(self) -> int:
        """Total trajectories consumed."""
        return self.result.completed_trajectories

    def savings_vs_theorem1(self) -> float:
        """Fraction of the a-priori budget left unspent (0 = none)."""
        if self.ceiling == 0:
            return 0.0
        return max(0.0, 1.0 - self.trajectories / self.ceiling)


def _worst_halfwidth(result: StochasticResult, delta: float, bound: str) -> float:
    """Largest half-width over all tracked properties under ``bound``."""
    return max(
        estimate.halfwidth(delta, bound=bound)
        for estimate in result.estimates.values()
    )


def _stratified_p_clean(result: StochasticResult) -> Optional[float]:
    """The run's closed-form clean-stratum weight, or ``None`` when any
    estimate is unstratified (all carry the same value when present)."""
    p_clean: Optional[float] = None
    for estimate in result.estimates.values():
        if estimate.p_clean is None:
            return None
        p_clean = estimate.p_clean
    return p_clean


def run_until_precision(
    circuit: QuantumCircuit,
    properties: Sequence[PropertySpec],
    epsilon: float,
    delta: float = 0.05,
    noise_model: Optional[NoiseModel] = None,
    backend: str = "dd",
    workers: int = 1,
    seed: int = 0,
    initial_batch: int = 128,
    growth_factor: float = 2.0,
    timeout: Optional[float] = None,
    bound: str = "hoeffding",
) -> AdaptiveRun:
    """Sample until every property's confidence half-width is <= ``epsilon``.

    Parameters mirror :func:`~repro.stochastic.runner.simulate_stochastic`;
    additionally:

    initial_batch:
        Size of the first batch (doubled per round by ``growth_factor``).
    growth_factor:
        Geometric batch growth (> 1).
    timeout:
        Wall-clock budget in seconds for the whole session; when it runs
        out the result so far returns flagged ``timed_out``.
    workers:
        Workers for the first batch only: later batches run in-process
        whatever ``workers`` is.
    bound:
        Concentration inequality for the stopping rule: ``"hoeffding"``
        (default), ``"bernstein"`` (variance-adaptive empirical Bernstein
        — much tighter when the per-sample variance is small), or
        ``"best"`` (minimum of both at ``delta/2`` each).

    The confidence budget ``delta`` is split over the worst-case number of
    batches (a union bound), so the final intervals hold simultaneously at
    level ``1 - delta`` despite data-dependent stopping.  When stratified
    sampling is active the first batch's closed-form ``p_clean`` shrinks
    the Theorem-1 ceiling to ``(1 - p_clean)^2`` of the naive budget — the
    erring-stratum count carrying the same a-priori guarantee.
    """
    if not properties:
        raise ValueError("adaptive sampling needs at least one property")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if growth_factor <= 1.0:
        raise ValueError("growth_factor must exceed 1")
    if initial_batch < 1:
        raise ValueError("initial_batch must be >= 1")
    if bound not in ("hoeffding", "bernstein", "best"):
        raise ValueError(
            f"unknown concentration bound: {bound!r}; "
            f"choose from ('hoeffding', 'bernstein', 'best')"
        )

    naive_ceiling = hoeffding_samples(len(properties), epsilon, delta)
    ceiling = naive_ceiling
    max_batches = max(
        1, int(math.ceil(math.log(max(ceiling / initial_batch, 1.0), growth_factor))) + 1
    )
    per_round_delta = delta / (len(properties) * max_batches)
    deadline = None if timeout is None else time.monotonic() + timeout

    aggregate: Optional[StochasticResult] = None
    next_index = 0
    batch_size = initial_batch
    batches = 0
    ceiling_rebudgeted = False

    while True:
        remaining_ceiling = ceiling - next_index
        if remaining_ceiling <= 0:
            break
        size = min(batch_size, remaining_ceiling)
        # Trajectory indices continue across batches: the runner derives
        # per-trajectory seeds from the index, so an adaptive session is
        # bit-identical to one big batch of the same total size.
        if aggregate is None:
            # Only the first batch runs on the simulator, so a parallel
            # run's worker pool is shut down right after it.
            with StochasticSimulator(backend=backend, workers=workers) as simulator:
                aggregate = simulator.run(
                    circuit,
                    noise_model=noise_model,
                    properties=properties,
                    trajectories=next_index + size,
                    seed=seed,
                    sample_shots=0,
                    timeout=None if deadline is None else deadline - time.monotonic(),
                )
        else:
            # Re-run with the larger total; estimates are cumulative because
            # trajectory seeds are index-derived.  To avoid recomputing old
            # work we instead run only the new slice as one span.
            chunk = run_trajectory_span(
                circuit,
                noise_model or NoiseModel.paper_defaults(),
                tuple(properties),
                backend,
                next_index,
                size,
                seed,
                sample_shots=0,
                deadline=deadline,
            )
            aggregate.merge(chunk)
        next_index += size
        batches += 1
        batch_size = int(math.ceil(batch_size * growth_factor))
        if not ceiling_rebudgeted:
            # First contact with the data: under stratified sampling every
            # estimate carries the closed-form p_clean, and the a-priori
            # budget re-targets the erring stratum — (1 - p_clean)^2 times
            # the naive ceiling gives the same epsilon guarantee.
            ceiling_rebudgeted = True
            p_clean = _stratified_p_clean(aggregate)
            if p_clean is not None:
                # Clamped below by what the first batch already spent, so
                # the reported ceiling stays a true upper bound on spend.
                ceiling = min(
                    ceiling,
                    max(next_index, stratified_samples(naive_ceiling, p_clean)),
                )
        achieved = _worst_halfwidth(aggregate, per_round_delta, bound)
        if achieved <= epsilon:
            break
        if aggregate.timed_out:
            break

    assert aggregate is not None
    achieved = _worst_halfwidth(aggregate, per_round_delta, bound)
    if next_index >= ceiling and not aggregate.timed_out:
        # The full Theorem 1 budget ran: its a-priori guarantee of
        # ``epsilon`` at level ``delta`` applies directly, without the
        # union-bound inflation of the adaptive stopping rule.
        achieved = min(achieved, epsilon)
    return AdaptiveRun(
        result=aggregate,
        epsilon_target=epsilon,
        epsilon_achieved=achieved,
        batches=batches,
        ceiling=ceiling,
    )
