"""Deterministic work pins for prefix sharing, stratification and exact DDs.

Every number pinned here is a count the mechanism produces, not a clock
reading, so it gives the same verdict on every machine.  All stochastic
runs use the paper's noise model, one ``IdealFidelity`` property, master
seed 7, one sampled shot per trajectory, and the serial in-process runner.

* Shared vs naive (GHZ-10 at M = 300, QFT-6 at M = 120): the two modes
  are bit-identical, the prefix counters are exact, and sharing cuts the
  DD package's mat-vec compute-table lookups by at least a fixed factor.
* Stratified (80 erring GHZ-10 and 40 erring QFT-6 trajectories): the
  estimate agrees with the naive one, the closed-form ``p_clean`` and the
  first-error draws (one per erring trajectory) are exact, and each
  mat-vec lookup buys at least a fixed multiple of the naive run's
  effective trajectories.
* Exact: the peak rho-DD node count of one ``simulate_exact`` pass per
  circuit, the machine-independent size measure of the density-matrix
  representation.
* Engine choice: one serial 2-trajectory ``auto`` span per circuit (no
  sampled shots; ``IdealFidelity`` except on measured BV-11).  The engine,
  the span's peak DD nodes, its ``dd.compute.mat_vec`` lookups and its
  ``gateplan.compiled`` count are exact; on the DD-hostile circuits the
  peak is the censored one at which the engine-choosing run stopped, the
  lookups are that run's, and the compiled count is the operator DDs that
  run reached.
* Scheduler merges: a 16-chunk job makes 16 ``StochasticResult.merge``
  calls in the scheduler's process, on one worker and on two: each chunk
  folds into the running aggregate once.  Re-merging every committed
  chunk at each checkpoint and at finalize would make 152.
* Journal records: the same job journals one ``submit``, one ``plan``, a
  ``chunk-done`` per chunk and one ``job-done``: 19 fsync'd appends.  A
  ``lease`` record per dispatched chunk would make 35.
* Store checkpoints: through a scheduler on an on-disk store, which opens
  the store's journal itself, the same job writes those 19 records and no
  store partial.  Checkpointing after every chunk but the last would
  make 15.

The lookup floors sit just under today's ratios (7.04, 3.47, 246 and
46.0), so a change that shares less work fails here long before it shows
up in wall time.
"""

import json
from collections import Counter

import pytest

from repro.circuits.library import (
    basis_trotter,
    bernstein_vazirani,
    ghz,
    ising,
    qaoa_maxcut,
    qft,
    vqe_uccsd,
)
from repro.exact import simulate_exact
from repro.noise import NoiseModel
from repro.service import JobSpec, ResultStore, Scheduler
from repro.service.journal import JobJournal, journal_path
from repro.stochastic import BasisProbability, IdealFidelity, simulate_stochastic
from repro.stochastic.results import StochasticResult
from repro.stochastic.runner import AUTO_ENGINE, run_trajectory_span
from repro.stochastic.strata import TRAJECTORY_MODE_ENV

NOISE = NoiseModel.paper_defaults()

#: name -> (circuit factory, naive/shared trajectories, erring trajectories)
CASES = {
    "ghz-10": (lambda: ghz(10), 300, 80),
    "qft-6": (lambda: qft(6), 120, 40),
}

#: ``prefix.*`` counters of the shared run.
PREFIX_COUNTERS = {
    "ghz-10": {"hits": 284, "replays": 16, "replayed_gates": 94, "checkpoints": 4},
    "qft-6": {"hits": 103, "replays": 17, "replayed_gates": 295, "checkpoints": 6},
}

#: Floor on naive mat-vec lookups divided by shared ones.
LOOKUP_RATIO_FLOOR = {"ghz-10": 7.0, "qft-6": 3.4}

#: Stratified run's ``p_clean`` (to six places) and ``strata.attempts``.
STRATA = {"ghz-10": (0.949068, 80), "qft-6": (0.874973, 40)}

#: Floor on effective trajectories per mat-vec lookup, stratified over naive.
EFFECTIVE_PER_LOOKUP_FLOOR = {"ghz-10": 200.0, "qft-6": 45.0}

#: Peak rho-DD nodes of one exact pass.
PEAK_RHO_NODES = {
    "ghz-4": 21,
    "ghz-6": 73,
    "ghz-8": 257,
    "ghz-10": 870,
    "qft-4": 53,
    "qft-5": 161,
    "qft-6": 485,
}

#: name -> (circuit factory, properties, engine, peak DD nodes, mat-vec
#: lookups, gate DDs compiled) of one auto span.  The whole ideal runs of
#: the dense rows peak at 31, 127, 11, 63 and 1023 nodes and cost 1034,
#: 4128, 6104, 36546 and 194052 lookups; the engine-choosing run stops at
#: 2^(n-1) nodes.  Resolving every step's operator DD up front built 20,
#: 28, 335, 67 and 38 operator DDs on the dense rows.
ENGINE_CHOICE = {
    "qaoa-5": (lambda: qaoa_maxcut(5, measure=False), True, "statevector", 23, 280, 16),
    "qaoa-7": (lambda: qaoa_maxcut(7, measure=False), True, "statevector", 95, 690, 24),
    "basis_trotter-4": (lambda: basis_trotter(4), True, "statevector", 9, 89, 12),
    "vqe_uccsd-6": (lambda: vqe_uccsd(6), True, "statevector", 42, 2702, 38),
    "ising-10": (lambda: ising(10), True, "statevector", 513, 2273, 36),
    "ghz-12": (lambda: ghz(12), True, "dd", 23, 261, 12),
    "qft-8": (lambda: qft(8), True, "dd", 9, 752, 44),
    "bv-11": (lambda: bernstein_vazirani(11), False, "dd", 11, 453, 17),
}


def run(circuit, trajectories, mode):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(TRAJECTORY_MODE_ENV, mode)
        return simulate_stochastic(
            circuit,
            noise_model=NOISE,
            properties=(IdealFidelity(),),
            trajectories=trajectories,
            backend="dd",
            workers=1,
            seed=7,
            sample_shots=1,
        )


def mat_vec_lookups(result):
    counters = result.metrics["counters"]
    return counters["dd.compute.mat_vec.hits"] + counters["dd.compute.mat_vec.misses"]


@pytest.fixture(scope="module")
def runs():
    """name -> {mode: result}, each case run once per mode."""
    results = {}
    for name, (factory, trajectories, erring) in CASES.items():
        circuit = factory()
        results[name] = {
            "naive": run(circuit, trajectories, "naive"),
            "shared": run(circuit, trajectories, "shared"),
            "stratified": run(circuit, erring, "stratified"),
        }
    return results


@pytest.mark.parametrize("name", CASES)
class TestSharedVsNaive:
    def test_bit_identical(self, runs, name):
        shared, naive = runs[name]["shared"], runs[name]["naive"]
        for prop, estimate in shared.estimates.items():
            other = naive.estimates[prop]
            assert (estimate.count, estimate.total, estimate.total_squared) == (
                other.count, other.total, other.total_squared
            )
        assert shared.errors_fired == naive.errors_fired
        assert shared.outcome_counts == naive.outcome_counts

    def test_prefix_counters(self, runs, name):
        counters = runs[name]["shared"].metrics["counters"]
        assert {
            key: counters[f"prefix.{key}"] for key in PREFIX_COUNTERS[name]
        } == PREFIX_COUNTERS[name]

    def test_sharing_cuts_mat_vec_lookups(self, runs, name):
        ratio = mat_vec_lookups(runs[name]["naive"]) / mat_vec_lookups(
            runs[name]["shared"]
        )
        assert ratio >= LOOKUP_RATIO_FLOOR[name]


@pytest.mark.parametrize("name", CASES)
class TestStratified:
    def test_agrees_with_naive(self, runs, name):
        stratified, naive = runs[name]["stratified"], runs[name]["naive"]
        for prop, estimate in naive.estimates.items():
            other = stratified.estimates[prop]
            slack = estimate.halfwidth(0.01) + other.halfwidth(0.01)
            assert abs(estimate.mean - other.mean) <= slack

    def test_clean_weight_and_search_attempts(self, runs, name):
        strata = runs[name]["stratified"].strata
        assert (round(strata["p_clean"], 6), strata["attempts"]) == STRATA[name]

    def test_effective_trajectories_per_lookup(self, runs, name):
        stratified, naive = runs[name]["stratified"], runs[name]["naive"]
        gain = (stratified.effective_trajectories() / mat_vec_lookups(stratified)) / (
            naive.completed_trajectories / mat_vec_lookups(naive)
        )
        assert gain >= EFFECTIVE_PER_LOOKUP_FLOOR[name]


@pytest.mark.parametrize("name", PEAK_RHO_NODES)
def test_exact_peak_rho_nodes(name):
    family, qubits = name.split("-")
    circuit = {"ghz": ghz, "qft": qft}[family](int(qubits))
    properties = (BasisProbability("0" * circuit.num_qubits), IdealFidelity())
    assert simulate_exact(circuit, NOISE, properties).peak_nodes == PEAK_RHO_NODES[name]


@pytest.mark.parametrize("name", ENGINE_CHOICE)
def test_engine_choice(name):
    factory, fidelity, engine, peak, lookups, compiled = ENGINE_CHOICE[name]
    properties = (IdealFidelity(),) if fidelity else ()
    result = run_trajectory_span(factory(), NOISE, properties, AUTO_ENGINE, 0, 2, 7)
    assert (
        result.backend_kind,
        result.peak_nodes,
        mat_vec_lookups(result),
        result.metrics["counters"]["gateplan.compiled"],
    ) == (engine, peak, lookups, compiled)


@pytest.mark.parametrize("workers", [1, 2])
def test_scheduler_merges_each_chunk_once(monkeypatch, workers):
    merged = []
    merge = StochasticResult.merge

    def counting_merge(self, other):
        merged.append(other.completed_trajectories)
        merge(self, other)

    monkeypatch.setattr(StochasticResult, "merge", counting_merge)
    spec = JobSpec.build(ghz(6), NOISE, (IdealFidelity(),), trajectories=64, seed=7)
    with Scheduler(workers=workers, chunk_size=4) as scheduler:
        result = scheduler.run(spec, timeout=120)
    assert result.completed_trajectories == 64
    assert merged == [4] * 16


def test_scheduler_journals_each_chunk_once(tmp_path):
    spec = JobSpec.build(ghz(6), NOISE, (IdealFidelity(),), trajectories=64, seed=7)
    path = journal_path(str(tmp_path))
    with JobJournal(path) as journal:
        with Scheduler(workers=2, journal=journal) as scheduler:
            key = scheduler.submit(spec)
            assert scheduler.result(key, timeout=120).completed_trajectories == 64
            assert scheduler.plan_for(key) == (16, "default")
        appends = journal.metrics.snapshot()["counters"]["journal.records.written"]
    with open(path, encoding="utf-8") as handle:
        kinds = Counter(json.loads(line)["rec"] for line in handle)
    assert appends == 19
    assert kinds == {
        "header": 1, "submit": 1, "plan": 1, "chunk-done": 16, "job-done": 1,
    }


def test_a_completing_job_writes_no_store_checkpoint(tmp_path, monkeypatch):
    checkpoints = []
    put_partial = ResultStore.put_partial

    def counting_put_partial(self, key, spans, result):
        checkpoints.append(result.completed_trajectories)
        put_partial(self, key, spans, result)

    monkeypatch.setattr(ResultStore, "put_partial", counting_put_partial)
    spec = JobSpec.build(ghz(6), NOISE, (IdealFidelity(),), trajectories=64, seed=7)
    with Scheduler(workers=2, store=ResultStore(str(tmp_path))) as scheduler:
        key = scheduler.submit(spec)
        assert scheduler.result(key, timeout=120).completed_trajectories == 64
        assert scheduler.plan_for(key) == (16, "default")
    assert checkpoints == []
    with open(journal_path(str(tmp_path)), encoding="utf-8") as handle:
        kinds = Counter(json.loads(line)["rec"] for line in handle)
    assert kinds == {
        "header": 1, "submit": 1, "plan": 1, "chunk-done": 16, "job-done": 1,
    }
