"""Gate for stratified trajectory sampling (:mod:`repro.stochastic.strata`).

Three pillars:

1. **Closed form**: the analytic ``p_clean`` must match the empirical
   clean-trajectory frequency of the rng dry-run (they mirror the same
   Bernoulli draw structure — any applier edit that breaks the mirror
   fails here).
2. **Equivalence**: the stratified estimator agrees with the unbiased
   naive estimator within combined confidence bounds, across backends,
   worker counts, and fault injection — and its own determinism contract
   (serial == parallel, bit-identical) holds exactly.
3. **Bound containment**: Hoeffding and empirical-Bernstein half-widths
   both contain the dense density-matrix oracle's exact value.
"""

import math
import random
import statistics
from collections import Counter

import pytest

from repro.circuits.library import ghz, qft
from repro.exact import simulate_exact
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import ErrorRates, NoiseModel
from repro.noise.stochastic import CROSSTALK, DEPOLARIZING, MECHANISMS, firing_draws
from repro.simulators.ddsim import DDBackend
from repro.simulators.gateplan import compile_plan
from repro.stochastic import BasisProbability, IdealFidelity, run_until_precision
from repro.stochastic.prefix import compile_prefix_plan
from repro.stochastic.properties import ExpectationZ, hoeffding_samples
from repro.stochastic.results import PropertyEstimate, StochasticResult
from repro.stochastic.runner import run_trajectory_span, simulate_stochastic
from repro.stochastic.strata import (
    TRAJECTORY_MODE_ENV,
    TRAJECTORY_MODES,
    StrataPlan,
    stratified_samples,
    trajectory_mode,
)

NOISE = NoiseModel.paper_defaults()
HOT_NOISE = NoiseModel.paper_defaults().scaled(40)
#: The paper's rates plus a crosstalk rate on every two-qubit pair, hot.
CROSSTALK_NOISE = NoiseModel(
    default=ErrorRates(
        depolarizing=0.001, amplitude_damping=0.002, phase_flip=0.001, crosstalk=0.002
    )
).scaled(40)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(TRAJECTORY_MODE_ENV, raising=False)
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


def _prefix_plan(circuit, noise_model):
    backend = DDBackend(circuit.num_qubits)
    plan = compile_plan(circuit, package=backend.package)
    return compile_prefix_plan(backend, plan, noise_model)


#: Every value the two retired switches used to accept: each now raises.
RETIRED_VALUES = ["off", "0", "false", "no", " OFF ", "on", "1", "yes", "anything", ""]
#: (environment, the mode it selects or the variable its error must name).
SWITCH_CASES = [
    pytest.param({}, "stratified", id="unset"),
    pytest.param({TRAJECTORY_MODE_ENV: " "}, "stratified", id="blank"),
    *[pytest.param({TRAJECTORY_MODE_ENV: mode}, mode, id=mode) for mode in TRAJECTORY_MODES],
    pytest.param({TRAJECTORY_MODE_ENV: " Shared "}, "shared", id=" Shared "),
    pytest.param({TRAJECTORY_MODE_ENV: "NAIVE"}, "naive", id="NAIVE"),
    *[
        pytest.param({TRAJECTORY_MODE_ENV: raw}, TRAJECTORY_MODE_ENV, id=raw)
        for raw in ("off", "on", "anything", "stratify")
    ],
    *[
        pytest.param({name: raw}, name, id=f"{name}={raw}")
        for name in ("REPRO_PREFIX_SHARING", "REPRO_STRATIFIED")
        for raw in RETIRED_VALUES
    ],
    pytest.param(
        {"REPRO_STRATIFIED": "off", TRAJECTORY_MODE_ENV: "shared"},
        "REPRO_STRATIFIED",
        id="retired-beside-mode",
    ),
]


class TestEnvironmentSwitch:
    @pytest.mark.parametrize("env, expected", SWITCH_CASES)
    def test_trajectory_mode(self, monkeypatch, env, expected):
        """One switch, three modes; an unknown value or a retired switch
        raises, naming the offending variable and the three modes."""
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if expected in TRAJECTORY_MODES:
            assert trajectory_mode() == expected
            return
        with pytest.raises(ValueError) as raised:
            trajectory_mode()
        message = str(raised.value)
        assert expected in message and TRAJECTORY_MODE_ENV in message
        assert all(mode in message for mode in TRAJECTORY_MODES)

    def test_default_is_on(self):
        # With the switch unset, a run stratifies and reports its strata.
        result = simulate_stochastic(
            ghz(4), noise_model=NOISE, properties=(IdealFidelity(),),
            trajectories=10, seed=2, sample_shots=1,
        )
        assert result.strata is not None
        assert "strata" in result.to_dict()

    def test_off_mode_payload_has_no_stratum_fields(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
        result = simulate_stochastic(
            ghz(4), noise_model=NOISE, properties=(IdealFidelity(),),
            trajectories=10, seed=2, sample_shots=1,
        )
        payload = result.to_dict()
        assert "strata" not in payload
        assert "clean_outcome_counts" not in payload
        assert all("p_clean" not in entry for entry in payload["estimates"].values())


class TestClosedFormPClean:
    def test_p_clean_matches_empirical_dry_run_frequency(self):
        # The whole engine rests on this: the analytic survival product
        # must equal the dry-run's clean probability.  10k rng-only dry
        # runs; assert within ~4 sigma of the binomial deviation.
        prefix = _prefix_plan(ghz(6), HOT_NOISE)
        plan = StrataPlan(prefix)
        assert plan.supported and plan.active
        draws = 10_000
        clean = 0
        scratch = {"depolarizing": 0, "amplitude_damping": 0, "phase_flip": 0}
        for i in range(draws):
            if prefix.first_divergence(random.Random(9_000_000 + i), scratch) is None:
                clean += 1
        sigma = math.sqrt(plan.p_clean * (1.0 - plan.p_clean) / draws)
        assert abs(clean / draws - plan.p_clean) <= 4.0 * sigma + 1e-12

    def test_first_error_site_distribution_sums_to_one(self):
        plan = StrataPlan(_prefix_plan(qft(4), NOISE))
        distribution = plan.first_error_site_distribution()
        assert len(distribution) == len(plan.prefix_plan.sites)
        assert sum(distribution) == pytest.approx(1.0)
        assert all(p >= 0.0 for p in distribution)

    def test_noiseless_is_inactive(self):
        plan = StrataPlan(_prefix_plan(ghz(4), NoiseModel.noiseless()))
        assert plan.p_clean == 1.0
        assert plan.active is False

    def test_exact_damping_mode_is_inactive(self):
        # The "exact" Kraus unravelling diverges on every damping slot:
        # no clean stratum exists, the naive loop is already optimal.
        plan = StrataPlan(
            _prefix_plan(ghz(4), NoiseModel.paper_defaults(damping_mode="exact"))
        )
        assert plan.p_clean == 0.0
        assert plan.active is False

    def test_exact_damping_mode_without_damping_stratifies(self, monkeypatch):
        # Only a damping slot makes "exact" diverge unconditionally; without
        # damping rates the clean stratum and the first-error draw exist.
        model = NoiseModel(default=ErrorRates(depolarizing=0.05), damping_mode="exact")
        assert StrataPlan(_prefix_plan(ghz(4), model)).active
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        result = run_trajectory_span(
            ghz(4), model, [IdealFidelity()], backend_kind="dd",
            first_trajectory=0, num_trajectories=5, master_seed=3,
        )
        assert result.strata["attempts"] == result.strata["erring_sampled"] == 5

    def test_measuring_circuit_is_unsupported(self):
        plan = StrataPlan(_prefix_plan(ghz(4, measure=True), NOISE))
        assert plan.supported is False
        assert plan.active is False

    def test_first_error_draw_is_a_pure_function_of_its_seed(self):
        plan = StrataPlan(_prefix_plan(ghz(5), NOISE))
        first_rng, first = plan.find_erring_seed(123456789)
        second_rng, second = plan.find_erring_seed(123456789)
        assert first == second
        # Both rngs stand at the same place, so the trajectories continue
        # identically too.
        assert first_rng.getstate() == second_rng.getstate()
        step, index, mechanism, branch = first
        assert plan.prefix_plan.sites[step] is not None
        assert (step, index, mechanism) in plan.first_errors
        assert branch in ((1, 2, 3) if mechanism == DEPOLARIZING else (0,))
        assert any(
            plan.find_erring_seed(seed)[1] != first for seed in range(1, 20)
        )

    def test_stratified_samples_budget(self):
        assert stratified_samples(10_000, 0.9) == 100
        assert stratified_samples(10_000, 0.0) == 10_000
        assert stratified_samples(3, 0.999999) == 1
        with pytest.raises(ValueError):
            stratified_samples(100, 1.5)


class _LastTally(dict):
    """A ``fired`` tally that remembers the last mechanism it counted: at a
    dry run's divergence, the draw that left the ideal prefix."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.last = key


def _closed_form(prefix_plan, scale=None):
    """P(first state-changing draw is (step, mechanism) | >= 1 error),
    multiplied out from the per-draw firing probabilities (each mechanism's
    optionally scaled by ``scale[mechanism]``)."""
    joint = Counter()
    survival = 1.0
    for step, site in enumerate(prefix_plan.sites):
        if site is None:
            continue
        for _, mechanism, probability in firing_draws(site):
            probability *= (scale or {}).get(mechanism, 1.0)
            joint[(step, mechanism)] += survival * probability
            survival *= 1.0 - probability
    return {cell: mass / (1.0 - survival) for cell, mass in joint.items()}


def _chi_square_fits(observed, expected, alpha=1e-3):
    """Pearson's goodness-of-fit test at level ``alpha``; cells expecting
    fewer than 5 draws are pooled.  The critical value is the
    Wilson-Hilferty approximation of the chi-square quantile."""
    draws = sum(observed.values())
    assert set(observed) <= set(expected), set(observed) - set(expected)
    cells, pooled_observed, pooled_expected = [], 0, 0.0
    for cell, probability in expected.items():
        if probability * draws < 5.0:
            pooled_observed += observed.get(cell, 0)
            pooled_expected += probability * draws
        else:
            cells.append((observed.get(cell, 0), probability * draws))
    if pooled_expected > 0.0:
        cells.append((pooled_observed, pooled_expected))
    statistic = sum((seen - mean) ** 2 / mean for seen, mean in cells)
    dof = len(cells) - 1
    z = statistics.NormalDist().inv_cdf(1.0 - alpha)
    critical = dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    return statistic <= critical, (statistic, critical, dof)


#: (circuit, noise model) pairs for the sampler's goodness-of-fit gates.
SAMPLER_CASES = [
    pytest.param(lambda: ghz(6), HOT_NOISE, id="ghz6"),
    pytest.param(lambda: qft(4), HOT_NOISE, id="qft4"),
    pytest.param(lambda: ghz(6), CROSSTALK_NOISE, id="ghz6-crosstalk"),
]


class TestDirectSampler:
    """The first-error draw against the closed form and the rng dry run."""

    @pytest.mark.parametrize("factory, noise_model", SAMPLER_CASES)
    def test_draw_matches_closed_form(self, factory, noise_model):
        plan = StrataPlan(_prefix_plan(factory(), noise_model))
        assert plan.active
        observed, branches = Counter(), {DEPOLARIZING: Counter(), CROSSTALK: Counter()}
        for seed in range(20_000):
            _, (step, _, mechanism, branch) = plan.find_erring_seed(5_000_000 + seed)
            observed[(step, mechanism)] += 1
            if mechanism in branches:
                branches[mechanism][branch] += 1
        fits, detail = _chi_square_fits(observed, _closed_form(plan.prefix_plan))
        assert fits, detail
        # Conditioned on changing the state, the fired Pauli (pair) is
        # uniform over the non-identity branches.
        for mechanism, width in ((DEPOLARIZING, 3), (CROSSTALK, 15)):
            if branches[mechanism]:
                uniform = {branch: 1.0 / width for branch in range(1, width + 1)}
                fits, detail = _chi_square_fits(branches[mechanism], uniform)
                assert fits, (MECHANISMS[mechanism], detail)
        assert bool(branches[CROSSTALK]) == (noise_model is CROSSTALK_NOISE)

    @pytest.mark.parametrize("factory, noise_model", SAMPLER_CASES)
    def test_dry_run_divergences_match_closed_form(self, factory, noise_model):
        # The same closed form against the applier's own draw order: each
        # erring dry run's divergence step and the tally it moved last.
        prefix = _prefix_plan(factory(), noise_model)
        observed = Counter()
        for seed in range(20_000):
            fired = _LastTally(depolarizing=0, amplitude_damping=0, phase_flip=0)
            step = prefix.first_divergence(random.Random(7_000_000 + seed), fired)
            if step is not None:
                observed[(step, MECHANISMS.index(fired.last))] += 1
        fits, detail = _chi_square_fits(observed, _closed_form(prefix))
        assert fits, detail

    def test_fit_rejects_a_table_that_counts_identity_branches(self):
        # Power check: a table giving depolarization its whole rate p, as
        # if the identity branch left the prefix, fails the same gate.
        prefix = _prefix_plan(ghz(6), HOT_NOISE)
        plan = StrataPlan(prefix)
        observed = Counter()
        for seed in range(20_000):
            _, (step, _, mechanism, _) = plan.find_erring_seed(5_000_000 + seed)
            observed[(step, mechanism)] += 1
        whole_rate = {DEPOLARIZING: 4.0 / 3.0}
        assert not _chi_square_fits(observed, _closed_form(prefix, whole_rate))[0]

    def test_low_noise_costs_one_draw_per_erring_trajectory(self, monkeypatch):
        # At 1e-3 of the paper's rates the erring mass of GHZ-10 is ~5e-5:
        # a rejection search would dry-run ~2e4 seeds per trajectory.
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        result = run_trajectory_span(
            ghz(10), NoiseModel.paper_defaults().scaled(1e-3), [IdealFidelity()],
            backend_kind="dd", first_trajectory=0, num_trajectories=30,
            master_seed=3, sample_shots=1,
        )
        strata = result.strata
        assert 1.0 - strata["p_clean"] < 1e-4
        assert strata["erring_sampled"] == 30
        assert strata["attempts"] == strata["erring_sampled"]


class TestEstimatorEquivalence:
    def test_agrees_with_naive_within_combined_bounds(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
        naive = simulate_stochastic(
            ghz(6), noise_model=NOISE,
            properties=(IdealFidelity(), ExpectationZ(0)),
            trajectories=4000, seed=11, sample_shots=0,
        )
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        stratified = simulate_stochastic(
            ghz(6), noise_model=NOISE,
            properties=(IdealFidelity(), ExpectationZ(0)),
            trajectories=400, seed=11, sample_shots=0,
        )
        assert stratified.strata["erring_sampled"] == 400
        for name in naive.estimates:
            slack = (
                naive.estimates[name].hoeffding_halfwidth(0.01)
                + stratified.estimates[name].hoeffding_halfwidth(0.01)
            )
            assert abs(
                stratified.estimates[name].mean - naive.estimates[name].mean
            ) <= slack, name

    def test_agrees_with_statevector_naive(self, monkeypatch):
        # Cross-backend equivalence: stratified DD vs the dense naive
        # baseline (statevector has no prefix plan, hence no strata).
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        dd = simulate_stochastic(
            ghz(5), backend="dd", noise_model=HOT_NOISE,
            properties=(BasisProbability("00000"),),
            trajectories=600, seed=3, sample_shots=0,
        )
        sv = simulate_stochastic(
            ghz(5), backend="statevector", noise_model=HOT_NOISE,
            properties=(BasisProbability("00000"),),
            trajectories=600, seed=3, sample_shots=0,
        )
        assert not sv.strata  # statevector stays naive
        name = "P(|00000>)"
        slack = (
            dd.estimates[name].hoeffding_halfwidth(0.01)
            + sv.estimates[name].hoeffding_halfwidth(0.01)
        )
        assert abs(dd.mean(name) - sv.mean(name)) <= slack

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_is_bit_identical_to_serial(self, monkeypatch, workers):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        kwargs = dict(
            noise_model=NOISE,
            properties=(IdealFidelity(), BasisProbability("00000")),
            trajectories=48, seed=13, sample_shots=1,
        )
        serial = simulate_stochastic(ghz(5), workers=1, **kwargs)
        parallel = simulate_stochastic(ghz(5), workers=workers, **kwargs)
        for name, estimate in serial.estimates.items():
            other = parallel.estimates[name]
            assert estimate.count == other.count
            assert estimate.total == other.total
            assert estimate.total_squared == other.total_squared
            assert estimate.p_clean == other.p_clean
            assert estimate.clean_value == other.clean_value
        assert serial.outcome_counts == parallel.outcome_counts
        assert serial.clean_outcome_counts == parallel.clean_outcome_counts
        assert serial.strata == parallel.strata
        assert serial.errors_fired == parallel.errors_fired

    def test_drift_fault_recovers_under_stratification(self, monkeypatch):
        plan = FaultPlan(
            faults=(FaultSpec(kind="drift", trajectory=3, factor=1.5, times=1),)
        )
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()
        result = run_trajectory_span(
            ghz(4), NOISE, [IdealFidelity()],
            backend_kind="dd", first_trajectory=0, num_trajectories=8,
            master_seed=7, sample_shots=1, on_drift="renorm",
        )
        assert result.completed_trajectories == 8
        assert result.strata["erring_sampled"] == 8
        assert result.metrics["counters"]["faults.recovered.renorm"] >= 1

    def test_outcome_distribution_recombines_pools(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        result = simulate_stochastic(
            ghz(4), noise_model=NOISE, properties=(),
            trajectories=50, seed=5, sample_shots=4,
        )
        assert sum(result.clean_outcome_counts.values()) == 200
        distribution = result.outcome_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
        # The clean pool dominates at paper noise: the GHZ poles carry
        # nearly all of the recombined weight.
        assert distribution["0000"] + distribution["1111"] > 0.9

    def test_effective_trajectories_scales_quadratically(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        result = simulate_stochastic(
            ghz(6), noise_model=NOISE, properties=(IdealFidelity(),),
            trajectories=100, seed=1, sample_shots=0,
        )
        p_clean = result.strata["p_clean"]
        assert result.effective_trajectories() == pytest.approx(
            100 / (1.0 - p_clean) ** 2
        )
        assert result.effective_trajectories() > 100


class TestBoundContainment:
    def test_bounds_contain_dense_oracle(self, monkeypatch):
        # The exact density-matrix DD gives the true noisy value; both the
        # stratified Hoeffding and empirical-Bernstein 95% intervals must
        # contain it (statistical, but the failure probability over these
        # fixed seeds is ~delta per (seed, bound) and the seeds are pinned).
        oracle = simulate_exact(
            ghz(4), noise_model=HOT_NOISE, properties=(IdealFidelity(),)
        )
        truth = oracle.mean("F(ideal)")
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        for seed in (1, 7, 23):
            run = simulate_stochastic(
                ghz(4), noise_model=HOT_NOISE, properties=(IdealFidelity(),),
                trajectories=400, seed=seed, sample_shots=0,
            )
            estimate = run.estimates["F(ideal)"]
            deviation = abs(estimate.mean - truth)
            assert deviation <= estimate.hoeffding_halfwidth(0.05), seed
            assert deviation <= estimate.bernstein_halfwidth(0.05), seed

    def test_bernstein_beats_hoeffding_at_low_variance(self, monkeypatch):
        # At paper noise the erring-sample variance is far below (R/2)^2,
        # which is exactly the regime the variance-adaptive bound wins in.
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        run = simulate_stochastic(
            ghz(6), noise_model=NOISE, properties=(IdealFidelity(),),
            trajectories=800, seed=11, sample_shots=0,
        )
        estimate = run.estimates["F(ideal)"]
        assert estimate.bernstein_halfwidth() < estimate.hoeffding_halfwidth()
        assert estimate.halfwidth(bound="best") <= min(
            estimate.hoeffding_halfwidth(), estimate.bernstein_halfwidth()
        ) * 1.5  # best pays delta/2 on each side

    def test_bernstein_needs_two_samples(self):
        estimate = PropertyEstimate("x")
        assert estimate.bernstein_halfwidth() == float("inf")
        estimate.add(0.5)
        assert estimate.bernstein_halfwidth() == float("inf")
        estimate.add(0.5)
        assert estimate.bernstein_halfwidth() < float("inf")

    def test_unknown_bound_rejected(self):
        estimate = PropertyEstimate("x")
        estimate.add(0.5)
        with pytest.raises(ValueError, match="unknown concentration bound"):
            estimate.halfwidth(bound="chebyshev")


class TestMergeSemantics:
    def _span(self, first, count, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        return run_trajectory_span(
            ghz(4), NOISE, [IdealFidelity()],
            backend_kind="dd", first_trajectory=first, num_trajectories=count,
            master_seed=5, sample_shots=1,
        )

    def test_merge_is_associative(self, monkeypatch):
        spans = [self._span(first, 8, monkeypatch) for first in (0, 8, 16)]

        def fold(order):
            base = StochasticResult(
                circuit_name="entanglement_4", backend_kind="dd",
                requested_trajectories=24,
            )
            base.estimates["F(ideal)"] = PropertyEstimate("F(ideal)")
            for index in order:
                base.merge(StochasticResult.from_dict(spans[index].to_dict()))
            return base

        left = fold([0, 1, 2])
        right = fold([2, 0, 1])
        assert left.strata == right.strata
        a, b = left.estimates["F(ideal)"], right.estimates["F(ideal)"]
        assert (a.count, a.total, a.total_squared) == (b.count, b.total, b.total_squared)
        assert a.p_clean == b.p_clean and a.clean_value == b.clean_value
        assert left.outcome_counts == right.outcome_counts
        assert left.clean_outcome_counts == right.clean_outcome_counts

    def test_empty_shell_adopts_stratum(self):
        shell = PropertyEstimate("f")
        partial = PropertyEstimate("f", count=3, total=1.5, total_squared=0.8,
                                   p_clean=0.9, clean_value=1.0)
        shell.merge(partial)
        assert shell.p_clean == 0.9 and shell.clean_value == 1.0
        assert shell.count == 3

    def test_p_clean_mismatch_raises(self):
        a = PropertyEstimate("f", count=1, total=0.5, total_squared=0.25,
                             p_clean=0.9, clean_value=1.0)
        b = PropertyEstimate("f", count=1, total=0.5, total_squared=0.25,
                             p_clean=0.8, clean_value=1.0)
        with pytest.raises(ValueError, match="stratum mismatch"):
            a.merge(b)

    def test_mixing_stratified_and_naive_samples_raises(self):
        stratified = PropertyEstimate("f", count=2, total=1.0, total_squared=0.5,
                                      p_clean=0.9, clean_value=1.0)
        naive = PropertyEstimate("f", count=2, total=1.0, total_squared=0.5)
        with pytest.raises(ValueError, match="unstratified"):
            stratified.merge(naive)
        with pytest.raises(ValueError, match="unstratified"):
            naive.merge(stratified)

    def test_result_strata_mismatch_raises(self):
        a = StochasticResult("c", "dd", 1, strata={"p_clean": 0.9, "erring_sampled": 1})
        b = StochasticResult("c", "dd", 1, strata={"p_clean": 0.8, "erring_sampled": 1})
        with pytest.raises(ValueError, match="stratum mismatch"):
            a.merge(b)

    def test_serialization_round_trip(self, monkeypatch):
        span = self._span(0, 6, monkeypatch)
        clone = StochasticResult.from_dict(span.to_dict())
        assert clone.strata == span.strata
        assert clone.clean_outcome_counts == span.clean_outcome_counts
        original = span.estimates["F(ideal)"]
        restored = clone.estimates["F(ideal)"]
        assert restored.p_clean == original.p_clean
        assert restored.clean_value == original.clean_value
        assert restored.mean == original.mean


class TestAdaptiveIntegration:
    def test_stratified_ceiling_shrinks_quadratically(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        run = run_until_precision(
            ghz(4), [IdealFidelity()], epsilon=0.02, delta=0.05,
            noise_model=NOISE, seed=3, initial_batch=32,
        )
        naive_ceiling = hoeffding_samples(1, 0.02, 0.05)
        p_clean = run.result.estimates["F(ideal)"].p_clean
        assert p_clean is not None
        # The rebudgeted ceiling is (1 - p_clean)^2 of the naive budget,
        # clamped below by what the first batch already spent.
        assert run.ceiling == max(
            run.trajectories, stratified_samples(naive_ceiling, p_clean)
        )
        assert run.ceiling < naive_ceiling
        assert run.epsilon_achieved <= 0.02
        assert run.trajectories <= run.ceiling

    def test_bernstein_bound_stops_earlier_or_equal(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "stratified")
        kwargs = dict(
            epsilon=0.01, delta=0.05, noise_model=NOISE,
            seed=9, initial_batch=64,
        )
        hoeffding = run_until_precision(ghz(4), [IdealFidelity()], **kwargs)
        best = run_until_precision(ghz(4), [IdealFidelity()], bound="best", **kwargs)
        assert best.trajectories <= hoeffding.trajectories
        assert best.epsilon_achieved <= 0.01

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="unknown concentration bound"):
            run_until_precision(
                ghz(3), [IdealFidelity()], epsilon=0.1, bound="chernoff"
            )
