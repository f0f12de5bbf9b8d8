"""Cost model: multiply counting, budgets, measured evidence, dispatch."""

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.library import ghz, qft
from repro.exact import estimate_costs, exact_unsupported_reason
from repro.exact.cost import (
    MeasuredCostModel,
    count_exact_multiplies,
    static_clean_probability,
    stochastic_budget,
)
from repro.noise import ErrorRates, NoiseModel
from repro.obs.ledger import LedgerState, circuit_fingerprint
from repro.simulators.ddsim import DDBackend
from repro.simulators.gateplan import compile_plan
from repro.stochastic import BasisProbability, ClassicalOutcome
from repro.stochastic.prefix import compile_prefix_plan
from repro.stochastic.runner import run_trajectory_span
from repro.stochastic.strata import (
    TRAJECTORY_MODE_ENV,
    TRAJECTORY_MODES,
    StrataPlan,
    stratified_samples,
)

PAPER_NOISE = NoiseModel.paper_defaults()


class TestUnsupportedReason:
    def test_plain_circuit_supported(self):
        assert exact_unsupported_reason(ghz(3), [BasisProbability("000")]) is None

    def test_classical_outcome_unsupported(self):
        reason = exact_unsupported_reason(ghz(3), [ClassicalOutcome(0)])
        assert reason is not None and "classical" in reason

    def test_conditioned_gate_unsupported(self):
        from repro.circuits.operations import ClassicalCondition

        circuit = QuantumCircuit(1, 1)
        circuit.h(0).measure(0, 0)
        circuit.gate("x", 0, condition=ClassicalCondition((0,), 1))
        reason = exact_unsupported_reason(circuit, [])
        assert reason is not None and "condition" in reason


class TestMultiplyCount:
    def test_noiseless_gates_cost_two_multiplies_each(self):
        circuit = ghz(3)  # 1 H + 2 CX
        assert count_exact_multiplies(circuit, None) == 2 * 3

    def test_noise_adds_kraus_multiplies(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        # Paper stack per touched qubit: depolarizing(4) + damping(2) +
        # phase flip(2) = 8 Kraus terms = 16 multiplies, plus 2 for the gate.
        assert count_exact_multiplies(circuit, PAPER_NOISE) == 2 + 16


class TestCrosstalkAccounting:
    """Pin the crosstalk multiply count to what the backend really applies.

    Both the cost model and :class:`DensityDDBackend` charge crosstalk per
    *adjacent* touched-qubit pair — ``zip(qubits, qubits[1:])``, rate
    resolved on the pair's second qubit — with 16 two-qubit Pauli-pair
    Kraus terms (32 multiplies) each.  A 3-qubit gate therefore has two
    crosstalk pairs, not three (no (q0, q2) pair).
    """

    CROSSTALK = NoiseModel(
        default=ErrorRates(crosstalk=0.01),
        noisy_measure=False,
    )

    def test_adjacent_pairs_only(self):
        circuit = QuantumCircuit(3)
        circuit.gate("x", 2, controls={0: 1, 1: 1})  # Toffoli
        # One gate (2) + two adjacent pairs x 32.
        assert count_exact_multiplies(circuit, self.CROSSTALK) == 2 + 2 * 32

    def test_two_qubit_gate_single_pair(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        assert count_exact_multiplies(circuit, self.CROSSTALK) == 2 + 32

    def test_single_qubit_gate_has_no_pair(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert count_exact_multiplies(circuit, self.CROSSTALK) == 2

    def test_matches_backend_application_count(self):
        """The predicted Kraus work equals what the exact backend does."""
        from repro.exact import simulate_exact

        circuit = QuantumCircuit(3)
        circuit.gate("x", 2, controls={0: 1, 1: 1})  # Toffoli
        result = simulate_exact(circuit, noise_model=self.CROSSTALK)
        counters = result.metrics.get("counters", {})
        applications = counters.get("exact.kraus_applications", 0)
        # Two adjacent crosstalk channels x 16 composite Pauli terms each —
        # exactly the pair structure count_exact_multiplies charges for.
        predicted_pairs = (count_exact_multiplies(circuit, self.CROSSTALK) - 2) // 32
        assert predicted_pairs == 2
        assert applications == 16 * predicted_pairs


class TestStochasticBudget:
    """Satellite: dispatch scores the stratified budget, not naive M."""

    def test_static_p_clean_matches_closed_form(self):
        # ghz(4): 1 H (1 qubit slot) + 3 CX (2 slots each) = 7 slots, no
        # crosstalk at paper rates; survival per slot:
        # (1 - .75*.001) * (1 - .002) * (1 - .001)  [p_one = 1 worst case]
        per_slot = (1 - 0.75 * 0.001) * (1 - 0.002) * (1 - 0.001)
        expected = per_slot**7
        assert static_clean_probability(ghz(4), PAPER_NOISE) == pytest.approx(
            expected
        )

    @pytest.mark.parametrize(
        "circuit",
        [ghz(4), ghz(8), ghz(15), qft(5), qft(8)],
        ids=["ghz4", "ghz8", "ghz15", "qft5", "qft8"],
    )
    @pytest.mark.parametrize("crosstalk", [0.0, 0.01])
    def test_static_p_clean_is_the_runtime_plans_without_damping(
        self, circuit, crosstalk
    ):
        """Without damping no draw depends on the state, so dispatch's
        a-priori weight is the stratified runtime's, bit for bit."""
        model = NoiseModel(
            default=ErrorRates(
                depolarizing=0.003, phase_flip=0.002, crosstalk=crosstalk
            )
        )
        backend = DDBackend(circuit.num_qubits)
        gate_plan = compile_plan(circuit, package=backend.package)
        runtime = StrataPlan(compile_prefix_plan(backend, gate_plan, model))
        assert static_clean_probability(circuit, model) == runtime.p_clean

    def test_noiseless_is_certainly_clean(self):
        assert static_clean_probability(ghz(4), None) == 1.0

    def test_measure_is_not_stratifiable(self):
        assert static_clean_probability(ghz(3, measure=True), PAPER_NOISE) is None

    def test_exact_damping_kills_the_clean_stratum(self):
        model = NoiseModel.paper_defaults(damping_mode="exact")
        assert static_clean_probability(ghz(4), model) == 0.0

    def test_budget_is_stratified_when_enabled(self, monkeypatch):
        monkeypatch.delenv(TRAJECTORY_MODE_ENV, raising=False)
        budget, p_clean = stochastic_budget(ghz(10), PAPER_NOISE, 50_000)
        assert p_clean is not None and 0.0 < p_clean < 1.0
        assert budget == stratified_samples(50_000, p_clean)
        assert budget < 50_000

    def test_budget_is_naive_when_disabled(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
        budget, p_clean = stochastic_budget(ghz(10), PAPER_NOISE, 50_000)
        assert budget == 50_000
        assert p_clean is None

    def test_budget_is_naive_for_measured_circuits(self, monkeypatch):
        monkeypatch.delenv(TRAJECTORY_MODE_ENV, raising=False)
        budget, p_clean = stochastic_budget(
            ghz(4, measure=True), PAPER_NOISE, 1_000
        )
        assert budget == 1_000 and p_clean is None

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize(
        "circuit, model",
        [
            (ghz(6), PAPER_NOISE),
            (ghz(4, measure=True), PAPER_NOISE),
            (ghz(4), NoiseModel.paper_defaults(damping_mode="exact")),
            (ghz(4), NoiseModel.noiseless()),
        ],
        ids=["ghz6", "ghz4-measured", "ghz4-exact-damping", "ghz4-noiseless"],
    )
    def test_budget_is_stratified_iff_the_runtime_stratifies(
        self, monkeypatch, mode, circuit, model
    ):
        """Dispatch prices the loop the runner runs, in every mode."""
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, mode)
        budget, p_clean = stochastic_budget(circuit, model, 3000)
        result = run_trajectory_span(
            circuit, model, [BasisProbability("0" * circuit.num_qubits)],
            backend_kind="dd", first_trajectory=0, num_trajectories=8,
            master_seed=1,
        )
        assert (budget < 3000) == bool(result.strata)
        if result.strata:
            assert budget == stratified_samples(3000, p_clean)


class TestDispatchBoundary:
    """exact wins iff 2(1+R) 2^n < M — the paper's trade-off, quantified.

    The historical boundary assumed the naive trajectory budget; with the
    stratified budget (default on) the stochastic side shrinks by
    ``(1 - p_clean)^2`` and worst-case exact essentially never wins, so
    the classic boundary is pinned with stratification off.
    """

    def test_small_circuit_large_budget_routes_exact(self, monkeypatch):
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, "shared")
        decision = estimate_costs(
            ghz(10), PAPER_NOISE, [BasisProbability("0" * 10)], 50_000
        )
        assert decision.method == "exact"
        assert decision.exact_cost < decision.stochastic_cost

    def test_stratified_budget_tilts_the_same_spec_stochastic(self, monkeypatch):
        # Identical spec as above, stratification on: the stochastic side
        # is ~100x cheaper at paper rates and wins on worst-case sizes.
        monkeypatch.delenv(TRAJECTORY_MODE_ENV, raising=False)
        decision = estimate_costs(
            ghz(10), PAPER_NOISE, [BasisProbability("0" * 10)], 50_000
        )
        assert decision.method == "stochastic"
        assert decision.stochastic_budget < 50_000
        assert decision.evidence == "worst_case"

    def test_wide_circuit_routes_stochastic(self):
        decision = estimate_costs(
            ghz(12), PAPER_NOISE, [BasisProbability("0" * 12)], 30_000
        )
        assert decision.method == "stochastic"

    def test_small_budget_routes_stochastic(self):
        decision = estimate_costs(
            ghz(4), PAPER_NOISE, [BasisProbability("0000")], 50
        )
        assert decision.method == "stochastic"

    def test_unsupported_spec_routes_stochastic(self):
        decision = estimate_costs(
            ghz(4), PAPER_NOISE, [ClassicalOutcome(0)], 10**9
        )
        assert decision.method == "stochastic"
        assert decision.unsupported_reason is not None

    def test_render_mentions_both_costs(self):
        decision = estimate_costs(
            ghz(4), PAPER_NOISE, [BasisProbability("0000")], 500
        )
        text = decision.render()
        assert "exact" in text and "stochastic" in text


def _seeded_history(circuit, model, exact_peak=0, state_peak=0, fallbacks=0):
    fingerprint = circuit_fingerprint(circuit, model)
    state = LedgerState()
    if exact_peak:
        state.apply(
            {"rec": "run", "fp": fingerprint, "method": "exact",
             "qubits": circuit.num_qubits, "depth": circuit.depth(),
             "peak_nodes": exact_peak}
        )
    if state_peak:
        state.apply(
            {"rec": "run", "fp": fingerprint, "method": "stochastic",
             "qubits": circuit.num_qubits, "depth": circuit.depth(),
             "peak_nodes": state_peak, "trajectories_per_second": 100.0}
        )
    for _ in range(fallbacks):
        state.apply({"rec": "fallback", "fp": fingerprint, "nodes": exact_peak * 4})
    return state.aggregates()


class TestMeasuredCostModel:
    def test_empty_history_is_worst_case(self):
        model = MeasuredCostModel({})
        evidence = model.exact_size("deadbeef", 10)
        assert evidence.source == "worst_case"
        assert evidence.nodes == float(4**10)

    def test_measured_exact_size_uses_observed_peak_with_headroom(self):
        history = _seeded_history(ghz(12), PAPER_NOISE, exact_peak=500)
        (fingerprint,) = history
        evidence = MeasuredCostModel(history).exact_size(fingerprint, 12)
        assert evidence.source == "measured"
        assert evidence.nodes == 1000.0  # 2x headroom
        assert evidence.observations == 1
        assert not evidence.censored

    def test_measured_size_never_exceeds_worst_case(self):
        history = _seeded_history(ghz(3), PAPER_NOISE, exact_peak=10**6)
        (fingerprint,) = history
        evidence = MeasuredCostModel(history).exact_size(fingerprint, 3)
        assert evidence.nodes == float(4**3)

    def test_fallbacks_are_censored_evidence(self):
        history = _seeded_history(
            ghz(12), PAPER_NOISE, exact_peak=500, fallbacks=1
        )
        (fingerprint,) = history
        evidence = MeasuredCostModel(history).exact_size(fingerprint, 12)
        assert evidence.censored
        # The fallback's nodes (2000) dominate the completed run's 500.
        assert evidence.nodes == 4000.0

    def test_stochastic_side_measured_independently(self):
        history = _seeded_history(ghz(12), PAPER_NOISE, state_peak=30)
        (fingerprint,) = history
        model = MeasuredCostModel(history)
        assert model.stochastic_size(fingerprint, 12).source == "measured"
        assert model.exact_size(fingerprint, 12).source == "worst_case"


class TestMeasuredDispatch:
    """The feedback loop: rho evidence flips a wide circuit back to exact."""

    def test_measured_rho_evidence_flips_to_exact(self):
        history = _seeded_history(ghz(14), PAPER_NOISE, exact_peak=8_000)
        decision = estimate_costs(
            ghz(14), PAPER_NOISE, [BasisProbability("0" * 14)], 30_000,
            history=history,
        )
        assert decision.method == "exact"
        assert decision.evidence == "measured"
        assert decision.exact_observations == 1
        assert decision.fingerprint in history
        text = decision.render()
        assert "measured evidence" in text and decision.fingerprint in text

    def test_fingerprint_invariant_to_budget_and_seed_axes(self):
        # Same family regardless of trajectory budget — only structure
        # (qubits, depth, gates, noise mechanisms) enters the key.
        first = estimate_costs(ghz(8), PAPER_NOISE, [], 100)
        second = estimate_costs(ghz(8), PAPER_NOISE, [], 100_000)
        assert first.fingerprint == second.fingerprint
        other = estimate_costs(ghz(9), PAPER_NOISE, [], 100)
        assert other.fingerprint != first.fingerprint
