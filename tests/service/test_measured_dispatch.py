"""Measured dispatch: the ledger feedback loop through the scheduler.

The acceptance scenario for the run ledger: a circuit family wide enough
that worst-case sizing (4^n rho nodes) routes it stochastic, whose *actual*
rho DD stays tiny.  An empty ledger reproduces today's worst-case routing;
after one forced-exact run seeds the family's observed peak, the same spec
resubmitted under ``method=auto`` flips to exact citing measured evidence.
"""

import os

import pytest

from repro.circuits.library import ghz, qaoa_maxcut
from repro.exact.cost import estimate_costs
from repro.noise import NoiseModel
from repro.obs.ledger import RunLedger, circuit_fingerprint, ledger_path, replay_ledger
from repro.service import JobSpec, ResultStore, Scheduler
from repro.stochastic import BasisProbability

PAPER_NOISE = NoiseModel.paper_defaults()
QUBITS = 12  # above the worst-case dense boundary at 30k trajectories


def spec_for(method="auto", seed=9, trajectories=30_000, n=QUBITS) -> JobSpec:
    return JobSpec.build(
        ghz(n),
        PAPER_NOISE,
        [BasisProbability("0" * n)],
        trajectories=trajectories,
        seed=seed,
        method=method,
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def ledger(store):
    with RunLedger(ledger_path(store.directory)) as ledger:
        yield ledger


class TestColdLedger:
    def test_empty_history_routes_worst_case_stochastic(self, store, ledger):
        with Scheduler(workers=1, store=store, ledger=ledger) as scheduler:
            key = scheduler.submit(spec_for(trajectories=200))
            decision = scheduler.decision_for(key)
            assert decision.method == "stochastic"
            assert decision.evidence == "worst_case"
            scheduler.cancel(key)
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["dispatch.worst_case"] == 1
            assert counters["dispatch.measured"] == 0


class TestMeasuredFlip:
    def test_exact_evidence_flips_auto_to_exact(self, store, ledger):
        fingerprint = circuit_fingerprint(ghz(QUBITS), PAPER_NOISE)
        with Scheduler(workers=1, store=store, ledger=ledger) as scheduler:
            # Phase B: force one exact run to seed the family's rho peak.
            seeded = scheduler.run(spec_for(method="exact", seed=1), timeout=120)
            assert seeded.method == "exact"
            family = ledger.family(fingerprint)
            assert family is not None and family.exact_runs == 1
            assert 0 < family.exact_peak_nodes < 4**QUBITS

            # Phase C: the same family under auto now dispatches exact on
            # measured rho evidence (fresh seed dodges the result cache).
            key = scheduler.submit(spec_for(method="auto", seed=2))
            decision = scheduler.decision_for(key)
            assert decision.method == "exact"
            assert decision.evidence == "measured"
            assert decision.fingerprint == fingerprint
            assert decision.exact_observations == 1
            rendered = decision.render()
            assert "measured evidence" in rendered and fingerprint in rendered
            result = scheduler.result(key, timeout=120)
            assert result.method == "exact"
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["dispatch.measured"] == 1

        # Both completed runs are durably in the ledger on disk.
        state = replay_ledger(ledger_path(store.directory))
        assert state.aggregates[fingerprint].exact_runs == 2

    def test_escape_hatch_reproduces_worst_case_routing(self, store, ledger):
        with Scheduler(workers=1, store=store, ledger=ledger) as scheduler:
            scheduler.run(spec_for(method="exact", seed=1), timeout=120)
            baseline = scheduler.submit(spec_for(method="auto", seed=3))
            measured = scheduler.decision_for(baseline)
            assert measured.method == "exact"  # evidence changed the route
            scheduler.cancel(baseline)

        # Priced without history, the same spec still takes the worst-case
        # route, whatever the ledger holds.
        decision = estimate_costs(
            ghz(QUBITS), PAPER_NOISE, [BasisProbability("0" * QUBITS)], 30_000
        )
        assert decision.method == "stochastic"
        assert decision.evidence == "worst_case"
        assert decision.exact_cost == float(4**QUBITS) * measured_multiplies()


def measured_multiplies() -> int:
    from repro.exact.cost import count_exact_multiplies

    return count_exact_multiplies(ghz(QUBITS), PAPER_NOISE)


class TestFallbackFeedback:
    def test_node_ceiling_fallback_is_recorded_censored(self, store, ledger):
        fingerprint = circuit_fingerprint(ghz(QUBITS), PAPER_NOISE)
        with Scheduler(
            workers=1, store=store, ledger=ledger, exact_node_ceiling=16
        ) as scheduler:
            result = scheduler.run(
                spec_for(method="exact", seed=5, trajectories=40), timeout=120
            )
            # The exact attempt blew the ceiling and fell back to sampling.
            assert result.method == "stochastic"
            counters = scheduler.metrics_snapshot()["counters"]
            assert counters["dispatch.fallback"] == 1
        family = ledger.family(fingerprint)
        assert family is not None
        assert family.fallbacks == 1
        assert family.fallback_peak_nodes > 16
        # The completed stochastic retry also landed as a run record.
        assert family.stochastic_runs == 1
        # Censored evidence keeps measured dispatch honest: the measured
        # exact size is floored at the fallback peak, not the ceiling.
        from repro.exact.cost import MeasuredCostModel

        evidence = MeasuredCostModel(ledger.aggregates()).exact_size(
            fingerprint, QUBITS
        )
        assert evidence.censored
        assert evidence.nodes >= family.fallback_peak_nodes


class TestCensoredDensePeak:
    """A dense auto run records the peak at which its engine choice
    stopped, not the whole ideal run's.  That peak is at least 2^(n-1),
    so the padded measured size caps at 2^n either way and dispatch
    cannot tell the two records apart."""

    @staticmethod
    def decision(tmp_path, peak):
        circuit = qaoa_maxcut(5, measure=False)
        properties = [BasisProbability("01010")]
        with RunLedger(ledger_path(str(tmp_path))) as ledger:
            ledger.record_run(
                key="k" * 64,
                fingerprint=circuit_fingerprint(circuit, PAPER_NOISE),
                method="stochastic",
                qubits=circuit.num_qubits,
                depth=circuit.depth(),
                peak_nodes=peak,
                cpu_seconds=0.2,
                elapsed_seconds=0.2,
                trajectories=40,
                effective_trajectories=40.0,
                trajectories_per_second=200.0,
                halfwidths={},
                engine="statevector",
            )
            history = ledger.aggregates()
        return estimate_costs(circuit, PAPER_NOISE, properties, 40, history=history)

    def test_censored_and_whole_run_peaks_dispatch_alike(self, tmp_path):
        censored = self.decision(tmp_path / "censored", 23)
        whole = self.decision(tmp_path / "whole", 31)  # a record from before the stop
        assert (censored.method, censored.evidence) == (whole.method, whole.evidence)
        assert censored.evidence == "measured"
        assert censored.stochastic_nodes == whole.stochastic_nodes == 2**5
        assert (censored.stochastic_observations, censored.exact_observations) == (
            whole.stochastic_observations, whole.exact_observations
        )
        assert censored == whole


class TestLedgerContents:
    def test_run_record_captures_throughput_and_precision(self, store, ledger):
        fingerprint = circuit_fingerprint(ghz(4), PAPER_NOISE)
        spec = JobSpec.build(
            ghz(4),
            PAPER_NOISE,
            [BasisProbability("0000")],
            trajectories=50,
            seed=6,
            method="stochastic",
        )
        with Scheduler(workers=1, store=store, ledger=ledger) as scheduler:
            scheduler.run(spec, timeout=60)
        (record,) = ledger.recent(fingerprint)
        assert record["method"] == "stochastic"
        assert record["qubits"] == 4
        assert record["trajectories"] == 50
        assert record["peak_nodes"] > 0
        assert record["elapsed_seconds"] > 0.0
        assert record["trajectories_per_second"] > 0.0
        assert 0.0 < record["p_clean"] <= 1.0
        assert "P(|0000>)" in record["halfwidths"]
        family = ledger.family(fingerprint)
        assert family.state_peak_nodes == record["peak_nodes"]
