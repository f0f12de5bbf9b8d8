"""Stratified trajectory sampling: spend the whole budget on erring runs.

Prefix sharing (PR 4, :mod:`repro.stochastic.prefix`) already serves every
clean trajectory from one shared ideal-state DD — but each clean run still
consumes a slot of the Theorem-1 sample budget only to fold in the *same*
cached property values one more time.  This module goes further, exploiting
the same precondition the rng dry-run rests on: every error decision along
the ideal prefix is a state-independent Bernoulli draw (amplitude damping's
state dependence enters only through the precomputed ideal P(1)), so the
probability of the zero-error stratum is a **closed form** over the
compiled :class:`~repro.stochastic.prefix.PrefixPlan`'s noise sites:

    p_clean = prod over sites of prod over draws of (1 - p_fire)

with per-draw no-fire factors mirroring
:func:`~repro.noise.stochastic.dry_run_site` exactly — depolarization's
identity branch survives (factor ``1 - 3/4 p``), event-mode damping fires
with ``p * P_ideal(1)``, phase flip with ``p``, crosstalk's identity pair
with ``1 - 15/16 p``.  The ``"exact"`` damping unravelling diverges
unconditionally on any damping slot (``p_clean = 0``), and circuits that
measure or reset have no clean stratum at all.

The clean stratum's property contribution is then weighted *analytically*
(its per-trajectory values are the constants cached on the prefix plan —
zero sampling variance), and the entire trajectory budget is spent on runs
conditioned on >= 1 fired error, combined by the unbiased post-stratified
estimator

    o_hat = p_clean * mu_clean + (1 - p_clean) * mean(erring samples).

Erring trajectories are drawn from exactly the conditional distribution the
dry-run induces, by deterministic rejection over attempt-derived seeds
(:meth:`StrataPlan.find_erring_seed`): per stratum index, candidate seeds
are tried in a fixed order until one's dry-run diverges, so any partition
of the budget across workers/chunks reproduces the same trajectories — the
same determinism contract the naive index-derived seeds give.  The accepted
seed then rewinds through the existing checkpoint/replay machinery
unchanged.

Because conditioning scales the estimator's sampling error by
``(1 - p_clean)``, a budget of ``M`` erring runs carries the Hoeffding
guarantee of ``M / (1 - p_clean)^2`` naive trajectories — the "effective
trajectories" the benchmarks report.  ``REPRO_TRAJECTORY_MODE=shared``
(see :func:`trajectory_mode`) runs the bit-identical prefix-shared
estimator instead.
"""

from __future__ import annotations

import os
import random
from typing import List, Optional, Tuple

from ..noise.stochastic import NoiseSite
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
#: falls below this: the expected rejection-sampling cost per erring
#: trajectory is ``1 / (1 - p_clean)`` dry-runs, and below ~1e-6 the
#: erring stratum contributes less than any practical epsilon target
#: anyway, so the shared loop is the better engine.
MIN_ERRING_MASS = 1e-6

#: Hard ceiling on rejection attempts per stratum index.  With the
#: ``MIN_ERRING_MASS`` gate the expected attempt count is <= 1e6, so by
#: Chernoff the probability of ever hitting this cap is astronomically
#: small — reaching it means the closed-form ``p_clean`` and the dry-run
#: disagree (a desync bug), which deserves a loud error, not a hang.
_MAX_ATTEMPTS = 100_000_000

#: Stride between successive candidate seeds for one stratum index
#: (xxhash's prime; any large odd constant distinct from the trajectory
#: seed stride works — it only needs to decorrelate attempt streams).
_ATTEMPT_STRIDE = 0xC2B2AE3D27D4EB4F

_SEED_MASK = 2**63 - 1


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
    """P(no state-changing event at this slot) — the closed-form mirror of
    :func:`~repro.noise.stochastic.dry_run_site`'s draw structure.

    Each factor is the no-fire probability of one Bernoulli draw along the
    ideal prefix; any edit to the applier/dry-run draw structure must be
    mirrored here (the ``p_clean``-vs-empirical test pins the agreement).
    """
    survival = 1.0
    for dep_p, damp_p, p_one, phase_p in site.qubit_draws:
        if dep_p > 0.0:
            # Fires with p, then 1-of-4 Paulis; the I branch is a no-op.
            survival *= 1.0 - 0.75 * dep_p
        if damp_p > 0.0:
            if exact_damping:
                # The no-decay Kraus branch tilts the state: every damping
                # slot leaves the ideal prefix unconditionally.
                return 0.0
            survival *= 1.0 - damp_p * p_one
        if phase_p > 0.0:
            survival *= 1.0 - phase_p
    for crosstalk_p in site.crosstalk:
        if crosstalk_p > 0.0:
            # Fires with p, then 1-of-16 Pauli pairs; I (x) I is a no-op.
            survival *= 1.0 - 0.9375 * crosstalk_p
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
    """Closed-form stratum weights for one compiled :class:`PrefixPlan`.

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
        #: Per-site survival probabilities (1.0 for skipped/None sites) —
        #: kept for diagnostics and the conditional first-site distribution.
        self.site_survival: List[float] = []
        p_clean = 1.0
        if self.supported:
            for site in prefix_plan.sites:
                if site is None:
                    self.site_survival.append(1.0)
                    continue
                survival = site_survival_probability(
                    site, prefix_plan.exact_damping
                )
                self.site_survival.append(survival)
                p_clean *= survival
        else:
            p_clean = 0.0
        self.p_clean = p_clean
        #: Whether the stratified engine should run; unsupported plans
        #: carry ``p_clean = 0``, so they never do.
        self.active = worth_stratifying(p_clean)

    def first_error_site_distribution(self) -> List[float]:
        """P(first divergence at site i | >= 1 error) per gate-plan step.

        Diagnostic closed form of the conditional distribution the
        rejection sampler draws from: ``prefix_survival_i * (1 -
        survival_i) / (1 - p_clean)``.
        """
        if not self.active:
            return []
        distribution = []
        prefix_survival = 1.0
        for survival in self.site_survival:
            distribution.append(
                prefix_survival * (1.0 - survival) / (1.0 - self.p_clean)
            )
            prefix_survival *= survival
        return distribution

    def find_erring_seed(self, base_seed: int) -> Tuple[int, int, int]:
        """Deterministic rejection: first candidate seed whose dry-run errs.

        ``base_seed`` is the stratum index's naive trajectory seed; attempt
        ``k`` tries ``base_seed + k * _ATTEMPT_STRIDE`` (mod 2^63).  Returns
        ``(seed, divergence_step, attempts)`` where ``attempts`` counts all
        dry-runs including the accepted one.  Accepted seeds are distributed
        exactly as naive trajectory seeds conditioned on >= 1 fired error,
        and the search depends only on ``base_seed`` — reproducible for any
        chunking of the stratum across workers.
        """
        prefix_plan = self.prefix_plan
        scratch = {"depolarizing": 0, "amplitude_damping": 0, "phase_flip": 0}
        for attempt in range(_MAX_ATTEMPTS):
            seed = (base_seed + attempt * _ATTEMPT_STRIDE) & _SEED_MASK
            divergence = prefix_plan.first_divergence(random.Random(seed), scratch)
            if divergence is not None:
                return seed, divergence, attempt + 1
        raise RuntimeError(
            f"no erring trajectory found in {_MAX_ATTEMPTS} attempts "
            f"(p_clean={self.p_clean!r}) — closed-form/dry-run desync?"
        )
