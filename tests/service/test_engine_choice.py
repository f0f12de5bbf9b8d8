"""Engine choice for ``method="auto"`` jobs: DD-hostile circuits run dense.

Every auto span's compile step runs the ideal DD execution its prefix plan
needs, and stops it once the DD has held 2^(n-1) nodes (half a fully dense
DD); the span's trajectories then move to the statevector engine, and the
result reports the stopped run's peak as a censored lower bound (``>=`` in
``repro result``, ``state>=`` in ``repro history``).  The peak only grows,
so the stop picks the engine the whole run would pick, and a run that
never reaches the threshold compiles the plan an unstopped run compiles.
The choice is a pure function of the spec, so any worker count, chunking
or drain/resume cycle lands on the same engine and the same estimates —
exactly those of an explicit ``backend_kind="statevector"`` job.  Explicit
backends never switch.
"""

import time

import pytest

from repro.circuits import ClassicalCondition, QuantumCircuit
from repro.circuits.library import (
    basis_trotter,
    bernstein_vazirani,
    bigadder,
    counterfeit_coin,
    ghz,
    multiplier,
    qaoa_maxcut,
    qft,
    sat,
    seca,
    vqe_uccsd,
)
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.obs.export import read_event_log
from repro.obs.ledger import RunLedger, circuit_fingerprint, family_totals, ledger_path
from repro.service import JobSpec, ResultStore, Scheduler
from repro.service.journal import JobJournal, journal_path
from repro.service.scheduler import _outcome_anomaly
from repro.service.serve import enqueue_job, list_jobs, query_status, serve
from repro.service.worker import ChunkOutcome
from repro.simulators.ddsim import DDBackend
from repro.simulators.gateplan import compile_plan
from repro.stochastic import BasisProbability, IdealFidelity, simulate_stochastic
from repro.stochastic.prefix import compile_prefix_plan
from repro.stochastic.results import StochasticResult
from repro.stochastic.runner import (
    AUTO_ENGINE,
    _EvaluationContext,
    choose_engine,
    dense_threshold,
    run_trajectory_span,
)
from repro.stochastic.strata import TRAJECTORY_MODE_ENV

NOISE = NoiseModel.paper_defaults().scaled(10)
QAOA = qaoa_maxcut(5, measure=False)  # ideal DD stops at 23 nodes >= 2^4
PROPERTIES = (IdealFidelity(), BasisProbability("01010"))
#: One chunk plan for every run: results are bit-identical per chunk plan.
CHUNK = 4


def qaoa_spec(method="auto", backend_kind="dd", trajectories=40, seed=5) -> JobSpec:
    return JobSpec.build(
        QAOA,
        NOISE,
        PROPERTIES,
        trajectories=trajectories,
        seed=seed,
        backend_kind=backend_kind,
        method=method,
    )


def fingerprint(result):
    """Everything a trajectory engine decides, compared bit for bit."""
    return (
        {
            name: (estimate.count, estimate.total, estimate.total_squared)
            for name, estimate in result.estimates.items()
        },
        dict(result.outcome_counts),
        dict(result.errors_fired),
        result.completed_trajectories,
    )


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


@pytest.fixture(scope="module")
def dense_reference():
    """The explicit-statevector twin of the auto QAOA-5 job."""
    with Scheduler(workers=2, chunk_size=CHUNK) as scheduler:
        return scheduler.run(qaoa_spec("stochastic", "statevector"), timeout=120)


class TestSwitchTable:
    @pytest.mark.parametrize(
        "circuit, engine",
        [
            (basis_trotter(4), "statevector"),  # stops at 9 >= 8 nodes
            (QAOA, "statevector"),  # stops at 23 >= 16
            (ghz(12), "dd"),  # 23 < 2048
            (qft(8), "dd"),  # 8 < 128
            (bernstein_vazirani(11), "dd"),  # 11 < 1024 (measured prefix)
        ],
        ids=["basis_trotter", "qaoa5", "ghz12", "qft8", "bv11"],
    )
    def test_auto_span_engine(self, circuit, engine):
        result = run_trajectory_span(circuit, NOISE, (), AUTO_ENGINE, 0, 2, 3)
        assert result.backend_kind == engine
        assert result.completed_trajectories == 2

    def test_switch_point_is_half_a_dense_dd(self):
        for qubits in (2, 5, 10):
            half = 2 ** (qubits - 1)
            assert dense_threshold(qubits) == half
            assert choose_engine(half, qubits) == "statevector"
            assert choose_engine(half - 1, qubits) == "dd"


def measured_before_crossing(qubits):
    """QAOA behind a measurement: the ideal run ends at the measurement,
    long before its DD would reach the threshold."""
    circuit = QuantumCircuit(qubits, qubits, name=f"measured_qaoa_{qubits}")
    for qubit in range(qubits):
        circuit.h(qubit)
    circuit.measure(0, 0)
    return circuit.extend(qaoa_maxcut(qubits, measure=False))


def conditioned(base):
    """``base`` behind two classically conditioned gates: before any
    measurement the bits read 0, so the first is skipped, the second fires."""
    circuit = QuantumCircuit(
        base.num_qubits, max(1, base.num_clbits), name=f"conditioned_{base.name}"
    )
    circuit.gate("x", 0, condition=ClassicalCondition((0,), 1))
    circuit.gate("h", 1, condition=ClassicalCondition((0,), 0))
    return circuit.extend(base)


#: Every circuit of docs/PERFORMANCE.md's switch table except ``ising`` and
#: ``vqe_uccsd_8`` (their whole ideal runs take seconds), plus edge cases.
STOP_CASES = {
    "qaoa5": lambda: QAOA,
    "qaoa7": lambda: qaoa_maxcut(7, measure=False),
    "qaoa8": lambda: qaoa_maxcut(8, measure=False),
    "basis_trotter": lambda: basis_trotter(4),
    "vqe_uccsd_6": lambda: vqe_uccsd(6),
    "ghz3": lambda: ghz(3),
    "ghz10": lambda: ghz(10),
    "ghz12": lambda: ghz(12),
    "ghz15": lambda: ghz(15),
    "qft6": lambda: qft(6),
    "qft8": lambda: qft(8),
    "bv11": lambda: bernstein_vazirani(11),
    "bv19": lambda: bernstein_vazirani(19),
    "seca": lambda: seca(11),
    "sat": lambda: sat(11),
    "multiplier": lambda: multiplier(3),
    "bigadder": lambda: bigadder(18),
    "cc": lambda: counterfeit_coin(18),
    # |0...0> already holds 2^(n-1) nodes on one and two qubits.
    "one_qubit": lambda: QuantumCircuit(1).h(0).t(0).h(0),
    "two_qubits": lambda: QuantumCircuit(2).h(0).cx(0, 1).ry(0.3, 1),
    "measured_before_crossing": lambda: measured_before_crossing(5),
    "conditioned_dense": lambda: conditioned(qaoa_maxcut(5, measure=False)),
    "conditioned_dd": lambda: conditioned(ghz(6)),
}


def site_key(site):
    return None if site is None else (site.qubit_draws, site.crosstalk)


def reachable(node, seen=None):
    """Ids of the non-terminal nodes of the DD rooted at ``node``."""
    seen = set() if seen is None else seen
    if node.edges and id(node) not in seen:
        seen.add(id(node))
        for edge in node.edges:
            reachable(edge.node, seen)
    return seen


class TestStopAtTheThreshold:
    """The engine-choosing run stops once its DD has held 2^(n-1) nodes."""

    @pytest.mark.parametrize("name", STOP_CASES)
    def test_stopped_run_picks_the_whole_runs_engine(self, name):
        circuit = STOP_CASES[name]()
        qubits = circuit.num_qubits
        backend = DDBackend(qubits)
        gate_plan = compile_plan(circuit, package=backend.package)
        stopped = compile_prefix_plan(backend, gate_plan, NOISE, dense_threshold(qubits))
        whole = compile_prefix_plan(backend, gate_plan, NOISE)
        engine = choose_engine(whole.peak_nodes, qubits)
        assert choose_engine(stopped.peak_nodes, qubits) == engine
        if engine == "statevector":
            assert stopped.stopped_after is not None
            assert dense_threshold(qubits) <= stopped.peak_nodes <= whole.peak_nodes
            assert (stopped.checkpoints, stopped.ideal_final) == ([], None)
            return
        # Same package, so equal edges are the same hash-consed DDs.
        assert stopped.stopped_after is None
        assert list(map(site_key, stopped.sites)) == list(map(site_key, whole.sites))
        assert stopped.stop_index == whole.stop_index
        assert stopped.checkpoints == whole.checkpoints
        assert stopped.executed_prefix == whole.executed_prefix
        assert stopped.ideal_final == whole.ideal_final
        assert stopped.peak_nodes == whole.peak_nodes

    def test_forced_sweep_frees_what_only_the_stopped_plan_pinned(self):
        circuit = qaoa_maxcut(7, measure=False)
        backend = DDBackend(circuit.num_qubits)
        context = _EvaluationContext(circuit, AUTO_ENGINE)
        checkpoints = []
        snapshot = backend.snapshot

        def recording_snapshot():
            checkpoints.append(snapshot())  # held, so freed nodes keep their ids
            return checkpoints[-1]

        backend.snapshot = recording_snapshot

        def span(first):
            return run_trajectory_span(
                circuit, NOISE, (IdealFidelity(),), AUTO_ENGINE, first, 2, 7,
                backend=backend, context=context,
            )

        assert span(0).backend_kind == "statevector"
        plan = context._prefix_plan
        assert plan.stopped_after is not None and plan.checkpoints == []
        state = reachable(backend.state.node)
        only_checkpoints = set().union(*(reachable(e.node) for e in checkpoints)) - state
        assert only_checkpoints
        live = {id(node) for node in backend.package.vector_table.nodes()}
        assert live.isdisjoint(only_checkpoints)
        # The stopped plan stays cached: a warm chunk chooses without DD work.
        warm = span(2)
        assert warm.backend_kind == "statevector" and context._prefix_plan is plan
        counters = warm.metrics["counters"]
        assert not counters.get("dd.compute.mat_vec.hits")
        assert not counters.get("dd.compute.mat_vec.misses")


class TestAutoJobsRunDense:
    def test_estimates_equal_explicit_statevector_bit_for_bit(self, dense_reference):
        with Scheduler(workers=2, chunk_size=CHUNK) as scheduler:
            result = scheduler.run(qaoa_spec(), timeout=120)
        assert result.method == "stochastic"
        assert result.backend_kind == "statevector"
        assert result.peak_nodes == 23  # censored: the whole run peaks at 31
        assert dense_reference.peak_nodes == 0
        assert fingerprint(result) == fingerprint(dense_reference)
        assert (
            "peak DD nodes: >=23 (engine choice stopped at 2^(n-1) = 16)"
            in result.summary().splitlines()
        )
        assert "peak DD nodes" not in dense_reference.summary()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_result_for_any_worker_count(self, workers, dense_reference):
        with Scheduler(workers=workers, chunk_size=CHUNK) as scheduler:
            result = scheduler.run(qaoa_spec(), timeout=120)
        assert result.backend_kind == "statevector"
        assert fingerprint(result) == fingerprint(dense_reference)

    def test_drain_then_journal_resume_is_bit_identical(
        self, tmp_path, monkeypatch, dense_reference
    ):
        spec = qaoa_spec()
        slow = FaultPlan(
            faults=(FaultSpec(kind="slow-chunk", seconds=0.2, times=1_000_000),),
            seed=0,
        )
        monkeypatch.setenv(PLAN_ENV, slow.to_json())
        reset_injector_cache()
        store_dir = str(tmp_path)
        journal = JobJournal(journal_path(store_dir))
        scheduler = Scheduler(
            workers=2, store=ResultStore(directory=store_dir), chunk_size=CHUNK,
            journal=journal,
        )
        try:
            key = scheduler.submit(spec)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not journal.job(key).completed:
                time.sleep(0.005)
            assert journal.job(key).completed, "no chunk committed in time"
            assert scheduler.drain(timeout=10.0)
        finally:
            scheduler.shutdown()
            journal.close()

        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        resume_journal = JobJournal(journal_path(store_dir))
        (incomplete,) = resume_journal.incomplete_jobs()
        assert 0 < len(incomplete.completed) < len(incomplete.plan)
        completed = {
            index: StochasticResult.from_dict(payload)
            for index, payload in incomplete.completed.items()
        }
        assert {r.backend_kind for r in completed.values()} == {"statevector"}
        (row,) = [r for r in list_jobs(ResultStore(directory=store_dir)) if r["key"] == key]
        assert row["source"] == "journal"
        assert row["engine"] == "statevector"
        with Scheduler(
            workers=2, store=ResultStore(directory=store_dir), chunk_size=CHUNK,
            journal=resume_journal,
        ) as resumed_scheduler:
            assert resumed_scheduler.submit(spec) == incomplete.key
            resumed = resumed_scheduler.result(key, timeout=120)
        resume_journal.close()
        assert resumed.backend_kind == "statevector"
        assert fingerprint(resumed) == fingerprint(dense_reference)


    def test_cancel_then_resubmit_on_the_same_warm_worker(
        self, tmp_path, monkeypatch, dense_reference
    ):
        """The checkpoint resume ships explicit ``statevector`` chunks for a
        job key whose ``auto`` chunks the worker already holds warm state
        for; the two must not share that state."""
        slow = FaultPlan(
            faults=(FaultSpec(kind="slow-chunk", seconds=0.05, times=1_000_000),),
            seed=0,
        )
        monkeypatch.setenv(PLAN_ENV, slow.to_json())
        reset_injector_cache()
        spec = qaoa_spec()
        store = ResultStore(directory=str(tmp_path))
        with Scheduler(workers=1, store=store, chunk_size=CHUNK) as scheduler:
            key = scheduler.submit(spec)
            deadline = time.monotonic() + 60.0
            while (
                time.monotonic() < deadline
                and scheduler.status(key).completed_trajectories == 0
            ):
                time.sleep(0.005)
            assert scheduler.cancel(key)
            assert store.get_partial(key)[1].backend_kind == "statevector"
            assert scheduler.submit(spec) == key
            resumed = scheduler.result(key, timeout=120)
        assert resumed.backend_kind == "statevector"
        assert fingerprint(resumed) == fingerprint(dense_reference)


class TestExplicitBackendsNeverSwitch:
    def test_explicit_dd_job_stays_on_dd(self):
        with Scheduler(workers=2) as scheduler:
            result = scheduler.run(qaoa_spec("stochastic", "dd"), timeout=120)
        assert result.backend_kind == "dd"
        assert result.strata  # the DD engine's stratified sampler ran

    def test_engine_selector_is_not_a_spec_backend(self):
        """Only method="auto" delegates the engine; no spec names it."""
        with pytest.raises(ValueError, match="backend_kind"):
            qaoa_spec(backend_kind=AUTO_ENGINE)

    def test_simulate_stochastic_keeps_the_named_backend(self):
        result = simulate_stochastic(QAOA, NOISE, PROPERTIES, trajectories=4, backend="dd")
        assert result.backend_kind == "dd"

    @pytest.mark.parametrize("mode", ["stratified", "shared", "naive"])
    def test_auto_job_below_the_switch_point_matches_explicit_dd(
        self, mode, monkeypatch
    ):
        """Auto jobs that stay on DD keep the explicit DD job's estimates
        and counters — the compile step adds nothing to count twice, and
        in the naive mode every trajectory still starts at |0...0>.
        Each job runs alone on one fresh worker: per-worker compile
        counters depend on which worker ran which chunk."""
        monkeypatch.setenv(TRAJECTORY_MODE_ENV, mode)

        def run(method):
            spec = JobSpec.build(
                ghz(6), NOISE, (IdealFidelity(),), trajectories=30, seed=2,
                method=method,
            )
            with Scheduler(workers=1, chunk_size=8) as scheduler:
                return scheduler.run(spec, timeout=120)

        auto, explicit = run("auto"), run("stochastic")
        assert auto.method == "stochastic"
        assert auto.backend_kind == explicit.backend_kind == "dd"
        assert fingerprint(auto) == fingerprint(explicit)
        assert auto.peak_nodes == explicit.peak_nodes

        def counters(result):
            # In the naive mode, DD-table counters also count the ideal run
            # that picked the engine, which the explicit span never makes.
            return {
                name: value for name, value in result.metrics["counters"].items()
                if mode != "naive" or not name.startswith("dd.")
            }

        assert counters(auto) == counters(explicit)
        checkpoints = counters(auto).get("prefix.checkpoints", 0)
        assert (checkpoints > 0) == (mode != "naive")


class TestResumeKeepsTheRestoredEngine:
    """A partial whose trajectories ran on DD — left by a build that kept
    every auto job on DD — finishes on DD instead of rejecting each chunk
    the spec would now run dense, and matches the explicit DD job.  One
    worker each: a QAOA DD chunk's last bits depend on what its warm DD
    package ran before, so only one chunk order is compared bit for bit."""

    @staticmethod
    def dd_span(first, count):
        return run_trajectory_span(QAOA, NOISE, PROPERTIES, "dd", first, count, 5)

    @staticmethod
    def run_both(submit, store=lambda spec: None):
        """The auto job and its explicit-DD twin, each resumed by ``submit``."""
        results = {}
        for method in ("auto", "stochastic"):
            spec = qaoa_spec(method, "dd")
            with Scheduler(workers=1, chunk_size=CHUNK, store=store(spec)) as scheduler:
                key = submit(scheduler, spec)
                results[method] = scheduler.result(key, timeout=120)
                rejected = scheduler.metrics.counter("scheduler.outcomes.rejected")
                assert rejected.value == 0
        assert results["auto"].backend_kind == "dd"
        assert results["auto"].completed_trajectories == 40
        assert fingerprint(results["auto"]) == fingerprint(results["stochastic"])

    def test_checkpoint_resume(self, tmp_path):
        def store(spec):
            store = ResultStore(directory=str(tmp_path / spec.method))
            store.put_partial(spec.job_key(), [(0, 8)], self.dd_span(0, 8))
            return store

        self.run_both(lambda scheduler, spec: scheduler.submit(spec), store)

    def test_journal_resume(self, tmp_path):
        def store(spec):
            store = ResultStore(directory=str(tmp_path / spec.method))
            with JobJournal(journal_path(store.directory)) as journal:
                journal.job_submitted(spec.job_key(), spec.to_dict())
                journal.plan_recorded(
                    spec.job_key(), [(0, 0, 12), (1, 12, 12), (2, 24, 16)], []
                )
                journal.chunk_done(
                    spec.job_key(), 1, 12, 12, 0, self.dd_span(12, 12).to_dict()
                )
            return store

        self.run_both(lambda scheduler, spec: scheduler.submit(spec), store)


class TestEngineReporting:
    def test_merge_refuses_a_second_engine(self):
        def chunk(engine, trajectories):
            result = StochasticResult("c", engine, requested_trajectories=trajectories)
            result.completed_trajectories = trajectories
            return result

        aggregate = StochasticResult("c", "dd", requested_trajectories=4)
        aggregate.merge(chunk("statevector", 2))  # empty aggregates adopt
        assert aggregate.backend_kind == "statevector"
        aggregate.merge(chunk("statevector", 2))
        with pytest.raises(ValueError, match="engine mismatch"):
            aggregate.merge(chunk("dd", 2))

    def test_outcome_from_another_engine_is_rejected(self):
        aggregate = StochasticResult("c", "statevector", requested_trajectories=4)
        aggregate.completed_trajectories = 2
        stray = StochasticResult("c", "dd", requested_trajectories=2)
        stray.completed_trajectories = 2
        outcome = ChunkOutcome(0, "k", 1, 2, 2, stray, None)
        assert "dd engine" in _outcome_anomaly(outcome, aggregate)

    def test_ledger_records_the_engine_under_the_spec_family(self, tmp_path, capsys):
        """The family key stays the spec's (measured peaks keep their
        history); the record names the engine so trends compare like runs,
        and the censored dense peak is kept apart from DD runs' peaks."""
        from repro.cli import main

        family_key = circuit_fingerprint(QAOA, NOISE, "dd")
        with RunLedger(ledger_path(str(tmp_path))) as ledger:
            with Scheduler(workers=1, ledger=ledger) as scheduler:
                scheduler.run(qaoa_spec(trajectories=8), timeout=120)
            (record,) = ledger.recent(family_key)
            family = family_totals(ledger.aggregates()[family_key])
        assert record["engine"] == "statevector"
        assert record["peak_nodes"] == 23
        assert (family["dense_peak_nodes"], family["state_peak_nodes"]) == (23, 0)
        assert main(["history", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "state>=23" in out
        assert "state<=" not in out

    def test_status_jobs_and_events_name_the_engine(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        key, _ = enqueue_job(store, qaoa_spec(trajectories=12))
        (row,) = list_jobs(store)
        assert row["method"] == "auto:stochastic"
        assert row["engine"] == "auto"  # undecided until a span compiles
        assert query_status(store, key).engine == "auto"

        events = str(tmp_path / "events.jsonl")
        assert serve(store, workers=1, once=True, log=lambda *_: None,
                     events_log=events, install_signal_handlers=False) == 1
        status = query_status(store, key)
        assert status.engine == "statevector"
        assert "engine: statevector" in status.render()
        (done,) = [e for e in read_event_log(events) if e["event"] == "job.done"]
        assert done["engine"] == "statevector"
        assert done["method"] == "stochastic"
