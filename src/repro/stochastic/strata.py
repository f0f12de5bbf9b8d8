"""Stratified trajectory sampling: spend the whole budget on erring runs.

Prefix sharing (:mod:`repro.stochastic.prefix`) already serves every clean
trajectory from one shared ideal-state DD — but each clean run still
consumes a slot of the Theorem-1 sample budget only to fold in the *same*
cached property values one more time.  This module goes further, exploiting
the same precondition the rng dry-run rests on: every error decision along
the ideal prefix is a state-independent Bernoulli draw (amplitude damping's
state dependence enters only through the precomputed ideal P(1)), so the
probability of the zero-error stratum is a **closed form** over the
compiled :class:`~repro.stochastic.prefix.PrefixPlan`'s noise sites:

    p_clean = prod over sites of prod over draws of (1 - p_fire)

with one factor per state-changing draw of
:func:`~repro.noise.stochastic.firing_draws`, in the order
:func:`~repro.noise.stochastic.dry_run_site` takes them — depolarization
fires a non-identity Pauli with ``3/4 p``, event-mode damping fires with
``p * P_ideal(1)``, phase flip with ``p``, crosstalk a non-identity pair
with ``15/16 p``.  The ``"exact"`` damping unravelling diverges
unconditionally on any damping slot (``p_clean = 0``), and circuits that
measure or reset have no clean stratum at all.

The clean stratum's property contribution is then weighted *analytically*
(its per-trajectory values are the constants cached on the prefix plan —
zero sampling variance), and the entire trajectory budget is spent on runs
conditioned on >= 1 fired error, combined by the unbiased post-stratified
estimator

    o_hat = p_clean * mu_clean + (1 - p_clean) * mean(erring samples).

Erring trajectories are drawn from exactly that conditional distribution
in one step (:meth:`StrataPlan.find_erring_seed`): the plan keeps every
state-changing draw of the prefix with the cumulative probability that
one of the draws up to it fires, and one uniform from the trajectory's own
index-seeded rng, bisected into that table, picks the first one that fires;
a second picks its non-identity branch.  The runner loads the checkpoint
at or before that step, applies the gates up to it without noise, applies
the slot from the known draw on, and carries on with the same rng.  Each
sample depends only on its trajectory index, so any partition of the
budget across workers/chunks reproduces the same trajectories — the same
determinism contract the naive index-derived seeds give — and one sample
costs one bisect however small the erring mass is.

Because conditioning scales the estimator's sampling error by
``(1 - p_clean)``, a budget of ``M`` erring runs carries the Hoeffding
guarantee of ``M / (1 - p_clean)^2`` naive trajectories — the "effective
trajectories" the benchmarks report.  ``REPRO_TRAJECTORY_MODE=shared``
(see :func:`trajectory_mode`) runs the bit-identical prefix-shared
estimator instead.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_right
from typing import List, Tuple

from ..noise.stochastic import CROSSTALK, DEPOLARIZING, NoiseSite, firing_draws
from .prefix import PrefixPlan

__all__ = [
    "StrataPlan",
    "TRAJECTORY_MODE_ENV",
    "TRAJECTORY_MODES",
    "site_survival_probability",
    "stratified_samples",
    "trajectory_mode",
    "worth_stratifying",
]

#: The trajectory loop the runner runs and :func:`~repro.exact.cost.stochastic_budget`
#: prices: ``stratified`` (default; falls back to ``shared`` unless
#: :func:`worth_stratifying`), ``shared`` (clean trajectories served from
#: the prefix plan's ideal DD, erring ones replayed from checkpoints) or
#: ``naive`` (every trajectory from |0...0>).  The environment is the only
#: channel that reaches forked workers without touching the job key.
TRAJECTORY_MODE_ENV = "REPRO_TRAJECTORY_MODE"
TRAJECTORY_MODES = ("stratified", "shared", "naive")

#: The switches this one replaced: setting either raises, so a script that
#: still sets one cannot silently compare the default with itself.
_RETIRED_MODE_ENVS = ("REPRO_PREFIX_SHARING", "REPRO_STRATIFIED")

#: Stratification deactivates when the erring stratum's probability mass
#: falls below this: the erring stratum then contributes less than any
#: practical epsilon target, and the shared loop serves the job.  Drawing
#: an erring trajectory costs one bisect at any mass, so this only sets
#: where stratification, and the stratified budget dispatch prices
#: (:func:`~repro.exact.cost.stochastic_budget`), apply.
MIN_ERRING_MASS = 1e-6


def trajectory_mode() -> str:
    """The mode :data:`TRAJECTORY_MODE_ENV` selects (unset or empty:
    ``stratified``); ``ValueError`` on any other value, or when a retired
    switch is set at all."""
    choices = "|".join(TRAJECTORY_MODES)
    for name in _RETIRED_MODE_ENVS:
        if name in os.environ:
            raise ValueError(f"{name} is retired; set {TRAJECTORY_MODE_ENV}={choices}")
    raw = os.environ.get(TRAJECTORY_MODE_ENV, "")
    mode = raw.strip().lower() or TRAJECTORY_MODES[0]
    if mode not in TRAJECTORY_MODES:
        raise ValueError(f"{TRAJECTORY_MODE_ENV}={raw!r} is not one of {choices}")
    return mode


def worth_stratifying(p_clean: float) -> bool:
    """Whether stratifying pays: a clean stratum exists (else the shared loop
    does the same work) and the erring one keeps :data:`MIN_ERRING_MASS`."""
    return p_clean > 0.0 and (1.0 - p_clean) >= MIN_ERRING_MASS


def site_survival_probability(site: NoiseSite, exact_damping: bool) -> float:
    """P(no state-changing event at this slot): the product of the no-fire
    probabilities of :func:`~repro.noise.stochastic.firing_draws`, in the
    dry-run's order (the ``p_clean``-vs-empirical test pins the agreement).
    """
    if exact_damping and any(draw[1] > 0.0 for draw in site.qubit_draws):
        # The no-decay Kraus branch tilts the state: every damping slot
        # leaves the ideal prefix unconditionally.
        return 0.0
    survival = 1.0
    for _, _, probability in firing_draws(site):
        survival *= 1.0 - probability
    return survival


def stratified_samples(naive_samples: int, p_clean: float) -> int:
    """Erring-stratum budget carrying ``naive_samples``' Hoeffding guarantee.

    The stratified estimator's Hoeffding half-width shrinks by the factor
    ``(1 - p_clean)`` at equal sample count, so the a-priori Theorem-1
    ceiling shrinks *quadratically*: ``(1 - p_clean)^2 * M`` erring samples
    give the same epsilon guarantee as ``M`` naive trajectories.
    """
    if not 0.0 <= p_clean <= 1.0:
        raise ValueError(f"p_clean must lie in [0, 1], got {p_clean}")
    return max(1, int(-(-naive_samples * (1.0 - p_clean) ** 2 // 1)))


class StrataPlan:
    """Closed-form stratum weights for one compiled :class:`PrefixPlan`,
    and the table that draws an erring trajectory's first error.

    ``p_clean`` is exact (up to float rounding) and deterministic: every
    worker compiling the same (circuit, noise model) pair computes the
    identical float, which is what lets per-stratum moments merge across
    chunks without tolerance games.
    """

    def __init__(self, prefix_plan: PrefixPlan) -> None:
        self.prefix_plan = prefix_plan
        #: A clean stratum exists only for measure/reset-free circuits —
        #: collapse draws are state-dependent, so every trajectory of a
        #: measuring circuit diverges and the naive loop is already optimal.
        self.supported = (
            prefix_plan.stop_index is None and prefix_plan.ideal_final is not None
        )
        #: Per-site survival probabilities (1.0 for skipped/None sites).
        self.site_survival: List[float] = []
        #: Every state-changing draw of the prefix in the applier's order,
        #: as ``(step, qubit or pair index, mechanism)``, and the probability
        #: that at least one draw up to and including it fires, summed in
        #: log space (``log1p``/``expm1``) so masses near
        #: :data:`MIN_ERRING_MASS` keep their digits.
        self.first_errors: List[Tuple[int, int, int]] = []
        self.erring_mass_through: List[float] = []
        p_clean = 1.0
        if self.supported:
            log_survival = 0.0
            for step, site in enumerate(prefix_plan.sites):
                if site is None:
                    self.site_survival.append(1.0)
                    continue
                survival = site_survival_probability(
                    site, prefix_plan.exact_damping
                )
                self.site_survival.append(survival)
                p_clean *= survival
                for index, mechanism, probability in firing_draws(site):
                    log_survival += math.log1p(-probability)
                    self.first_errors.append((step, index, mechanism))
                    self.erring_mass_through.append(-math.expm1(log_survival))
        else:
            p_clean = 0.0
        self.p_clean = p_clean
        #: Whether the stratified engine should run; unsupported plans
        #: carry ``p_clean = 0``, so they never do.
        self.active = worth_stratifying(p_clean)

    def first_error_site_distribution(self) -> List[float]:
        """P(first divergence at step i | >= 1 error) per gate-plan step,
        the distribution :meth:`find_erring_seed` draws steps from."""
        if not self.active:
            return []
        distribution = [0.0] * len(self.site_survival)
        total = self.erring_mass_through[-1]
        below = 0.0
        for (step, _, _), through in zip(self.first_errors, self.erring_mass_through):
            distribution[step] += (through - below) / total
            below = through
        return distribution

    def find_erring_seed(
        self, seed: int
    ) -> Tuple[random.Random, Tuple[int, int, int, int]]:
        """Draw one erring trajectory's first error from the closed form.

        Seeds ``random.Random(seed)`` (``seed`` is the trajectory index's
        seed), bisects one uniform into the cumulative firing masses to
        pick the first state-changing draw, conditioned on at least one
        firing, then draws its branch conditioned on it not being the
        identity.  Returns that rng, positioned to take the trajectory's
        later draws, and ``(step, index, mechanism, branch)`` as
        :meth:`~repro.noise.stochastic.StochasticErrorApplier.apply_first_error`
        takes them.  A pure function of ``seed``: any chunking of the
        stratum across workers draws the same trajectories.
        """
        rng = random.Random(seed)
        masses = self.erring_mass_through
        position = bisect_right(masses, rng.random() * masses[-1])
        # The product can round up onto the total: that is the last draw.
        step, index, mechanism = self.first_errors[min(position, len(masses) - 1)]
        branch = 0
        if mechanism == DEPOLARIZING:
            branch = 1 + rng.randrange(3)
        elif mechanism == CROSSTALK:
            branch = 1 + rng.randrange(15)
        return rng, (step, index, mechanism, branch)
