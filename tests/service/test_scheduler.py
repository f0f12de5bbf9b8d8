"""Tests for the sharded scheduler: streaming, caching, resume, faults."""

import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro.circuits.library import ghz, qaoa_maxcut
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.obs.ledger import RunLedger, circuit_fingerprint
from repro.service import (
    JobCancelledError,
    JobFailedError,
    JobSpec,
    JobState,
    ResultStore,
    Scheduler,
)
from repro.service import scheduler as scheduler_module
from repro.service.journal import JobJournal, journal_path
from repro.service.scheduler import _cpu_per_trajectory, _remaining_spans
from repro.stochastic import BasisProbability, IdealFidelity, simulate_stochastic
from repro.stochastic.runner import run_trajectory_span

NOISE = NoiseModel.paper_defaults().scaled(10)


def ghz_spec(n=4, trajectories=40, seed=5, **overrides) -> JobSpec:
    return JobSpec.build(
        ghz(n),
        NOISE,
        [BasisProbability("0" * n)],
        trajectories=trajectories,
        seed=seed,
        sample_shots=0,
        **overrides,
    )


def reference(spec: JobSpec):
    """Single-process ground truth for a spec (same master seed)."""
    return simulate_stochastic(
        spec.circuit,
        spec.noise_model,
        spec.properties,
        trajectories=spec.trajectories,
        seed=spec.seed,
        sample_shots=spec.sample_shots,
    )


class TestRemainingSpans:
    def test_nothing_done(self):
        assert _remaining_spans(10, []) == [(0, 10)]

    def test_everything_done(self):
        assert _remaining_spans(10, [(0, 10)]) == []

    def test_holes_are_found(self):
        assert _remaining_spans(10, [(0, 2), (5, 3)]) == [(2, 3), (8, 2)]

    def test_unsorted_and_overlapping_input(self):
        assert _remaining_spans(10, [(5, 3), (0, 6)]) == [(8, 2)]


class TestSchedulerBasics:
    def test_matches_single_process_reference(self):
        spec = ghz_spec()
        ref = reference(spec)
        with Scheduler(workers=2, chunk_size=7) as scheduler:
            result = scheduler.run(spec)
        assert result.completed_trajectories == spec.trajectories
        name = spec.properties[0].name
        assert result.mean(name) == pytest.approx(ref.mean(name), abs=1e-12)
        assert result.errors_fired == ref.errors_fired

    def test_final_result_deterministic_across_worker_counts(self):
        """Fixed chunk plan + index-ordered final merge → bit-identical
        results no matter how many workers raced over the chunks."""
        spec = ghz_spec(trajectories=30)
        name = spec.properties[0].name
        means = []
        for workers in (1, 3):
            with Scheduler(workers=workers, chunk_size=4) as scheduler:
                means.append(scheduler.run(spec).mean(name))
        assert means[0] == means[1]

    def test_submit_is_idempotent_while_live(self):
        spec = ghz_spec()
        with Scheduler(workers=1, chunk_size=10) as scheduler:
            key_a = scheduler.submit(spec)
            key_b = scheduler.submit(spec)
            assert key_a == key_b
            scheduler.result(key_a, timeout=60)

    def test_unknown_key_raises(self):
        with Scheduler(workers=1) as scheduler:
            with pytest.raises(KeyError):
                scheduler.status("nope")
            with pytest.raises(KeyError):
                scheduler.result("nope")


class TestStreaming:
    def test_streaming_estimates_before_completion(self):
        spec = ghz_spec(n=12, trajectories=30, seed=2)
        name = spec.properties[0].name
        with Scheduler(workers=2, chunk_size=1) as scheduler:
            key = scheduler.submit(spec)
            snapshots = []
            deadline = time.time() + 120
            while time.time() < deadline:
                status = scheduler.status(key)
                snapshots.append(status)
                if status.state == JobState.COMPLETED:
                    break
                time.sleep(0.001)
            final = scheduler.result(key, timeout=60)

        partials = [
            s for s in snapshots
            if 0 < s.completed_trajectories < spec.trajectories
        ]
        assert partials, "never observed a streaming (partial) estimate"
        probe = partials[-1]
        assert probe.state == JobState.RUNNING
        assert name in probe.estimates
        estimate = probe.estimates[name]
        assert 0.0 <= estimate.mean <= 1.0
        assert estimate.count == probe.completed_trajectories
        # Hoeffding half-width shrinks as trajectories accumulate.
        assert final.completed_trajectories == spec.trajectories
        assert (
            final.estimates[name].hoeffding_halfwidth() < estimate.halfwidth
        )

    def test_status_render_smoke(self):
        spec = ghz_spec(trajectories=10)
        with Scheduler(workers=1) as scheduler:
            key = scheduler.submit(spec)
            scheduler.result(key, timeout=60)
            text = scheduler.status(key).render()
        assert "completed" in text
        assert "10/10" in text


class TestCaching:
    def test_resubmission_is_a_cache_hit_with_zero_trajectories(self):
        spec = ghz_spec()
        store = ResultStore(directory=None)
        with Scheduler(workers=2, store=store, chunk_size=5) as scheduler:
            first = scheduler.run(spec)
            executed = scheduler.trajectories_executed
            assert executed == spec.trajectories
            again = scheduler.run(spec)
            # Zero new trajectories: the store answered the resubmission.
            assert scheduler.trajectories_executed == executed
            assert store.hits == 1
            assert scheduler.status(spec.job_key()).completed_trajectories == executed
            name = spec.properties[0].name
            assert again.mean(name) == first.mean(name)

    def test_cache_hit_across_scheduler_instances_via_disk(self, tmp_path):
        spec = ghz_spec()
        with Scheduler(workers=1, store=ResultStore(directory=str(tmp_path))) as a:
            a.run(spec)
        with Scheduler(workers=1, store=ResultStore(directory=str(tmp_path))) as b:
            result = b.run(spec)
            assert b.trajectories_executed == 0
        assert result.completed_trajectories == spec.trajectories

    def test_resume_from_checkpoint_not_from_zero(self, tmp_path):
        spec = ghz_spec(n=8, trajectories=60, seed=3)
        ref = reference(spec)
        name = spec.properties[0].name
        store = ResultStore(directory=str(tmp_path))
        with Scheduler(workers=2, store=store, chunk_size=3) as first:
            key = first.submit(spec)
            deadline = time.time() + 120
            while (
                first.status(key).completed_trajectories < 9
                and time.time() < deadline
            ):
                time.sleep(0.002)
            first.cancel(key)
            assert first.status(key).state == JobState.CANCELLED
            with pytest.raises(JobCancelledError):
                first.result(key, timeout=5)
        spans, partial = store.get_partial(spec.job_key())
        assert partial.completed_trajectories >= 9
        assert spans

        with Scheduler(
            workers=2, store=ResultStore(directory=str(tmp_path)), chunk_size=3
        ) as second:
            result = second.run(spec)
            # Strictly fewer than M trajectories ran the second time around.
            assert 0 < second.trajectories_executed < spec.trajectories
        assert result.completed_trajectories == spec.trajectories
        assert result.mean(name) == pytest.approx(ref.mean(name), abs=1e-12)
        # Final result replaces the checkpoint on disk, and answers for the
        # key ahead of the partial the first store still holds in memory.
        assert ResultStore(directory=str(tmp_path)).get_partial(spec.job_key()) is None
        assert "spans" not in store.record(spec.job_key())


class TestFaultTolerance:
    def test_injected_worker_crash_is_retried(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash-before"),), state_dir=str(tmp_path)
        )
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()
        spec = ghz_spec(n=8, trajectories=60, seed=3)
        ref = reference(spec)
        name = spec.properties[0].name
        with Scheduler(workers=2, chunk_size=5) as scheduler:
            result = scheduler.run(spec)
            status = scheduler.status(spec.job_key())
        assert plan.claimed_counts() == {
            "faults.injected.crash-before": 1
        }, "the crash was never triggered"
        assert status.retries >= 1
        assert result.completed_trajectories == spec.trajectories
        assert result.mean(name) == pytest.approx(ref.mean(name), abs=1e-12)
        assert result.errors_fired == ref.errors_fired

    def test_externally_killed_worker_does_not_fail_the_job(self):
        spec = ghz_spec(n=12, trajectories=40, seed=9)
        ref = reference(spec)
        name = spec.properties[0].name
        with Scheduler(workers=2, chunk_size=1) as scheduler:
            key = scheduler.submit(spec)
            time.sleep(0.05)  # let chunks get in flight
            scheduler._workers[0].process.terminate()
            result = scheduler.result(key, timeout=120)
        assert result.completed_trajectories == spec.trajectories
        assert result.mean(name) == pytest.approx(ref.mean(name), abs=1e-12)

    def test_poisoned_job_fails_after_bounded_retries(self):
        # A 48-qubit dense state vector is refused by the backend, so every
        # attempt at the chunk errors out and the retry budget is consumed.
        spec = JobSpec.build(
            ghz(48),
            NOISE,
            [],
            trajectories=4,
            backend_kind="statevector",
            sample_shots=0,
        )
        with Scheduler(workers=1, max_retries=1, chunk_size=4) as scheduler:
            with pytest.raises(JobFailedError, match="attempts"):
                scheduler.run(spec, timeout=120)
            assert scheduler.status(spec.job_key()).state == JobState.FAILED

    def test_timed_out_job_returns_partial_and_is_not_cached_final(self):
        spec = ghz_spec(n=14, trajectories=100000, timeout=0.4)
        store = ResultStore(directory=None)
        with Scheduler(workers=2, store=store, chunk_size=8) as scheduler:
            # Warm the pool, then collect this process's garbage, so the
            # 0.4 s job budget is spent on trajectories: late in a full
            # test run, one full collection of the heap can hold the
            # interpreter lock for most of the budget, and the scheduler's
            # dispatcher thread cannot hand out a chunk meanwhile.
            scheduler.run(ghz_spec(trajectories=16), timeout=120)
            gc.collect()
            result = scheduler.run(spec, timeout=120)
        assert result.timed_out
        assert 0 < result.completed_trajectories < spec.trajectories
        # Partial outcomes must never satisfy future cache lookups.
        assert store.get(spec.job_key()) is None


    def test_timed_out_checkpoint_covers_only_completed_trajectories(
        self, tmp_path, monkeypatch
    ):
        """A timed-out chunk commits only the trajectories it ran.  Its
        checkpoint must say so, and the timed-out flag must not carry into
        a resubmission: that resumes the missing trajectories, completes
        and is cached, with the uninterrupted run's bits."""
        spec = ghz_spec(trajectories=64, timeout=1.0)
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            uninterrupted = scheduler.run(spec, timeout=120)
        assert not uninterrupted.timed_out

        # Each chunk sleeps 0.6 s first: the second wave starts past the
        # 1 s deadline, so its chunks commit with no trajectories run.
        plan = FaultPlan(
            faults=(FaultSpec(kind="slow-chunk", seconds=0.6, times=100),)
        )
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()
        store_dir = str(tmp_path)
        with Scheduler(
            workers=2, chunk_size=8, store=ResultStore(directory=store_dir)
        ) as scheduler:
            timed_out = scheduler.run(spec, timeout=120)
        assert timed_out.timed_out
        assert timed_out.completed_trajectories < spec.trajectories
        spans, partial = ResultStore(directory=store_dir).get_partial(
            spec.job_key()
        )
        assert partial.completed_trajectories == timed_out.completed_trajectories
        assert sum(count for _, count in spans) == partial.completed_trajectories
        assert sum(
            count for _, count in _remaining_spans(spec.trajectories, spans)
        ) == spec.trajectories - partial.completed_trajectories

        monkeypatch.delenv(PLAN_ENV)
        reset_injector_cache()
        store = ResultStore(directory=store_dir)
        with Scheduler(workers=2, chunk_size=8, store=store) as scheduler:
            resumed = scheduler.run(spec, timeout=120)
            assert scheduler.trajectories_executed == (
                spec.trajectories - partial.completed_trajectories
            )
        assert not resumed.timed_out
        assert resumed.completed_trajectories == spec.trajectories
        assert store.get(spec.job_key()) is not None
        for name in ("estimates", "outcome_counts", "clean_outcome_counts",
                     "errors_fired", "strata", "completed_trajectories"):
            assert (
                resumed.to_dict().get(name) == uninterrupted.to_dict().get(name)
            ), name


class TestActiveJobs:
    def test_dispatcher_walks_only_unfinished_jobs(self):
        with Scheduler(workers=2, chunk_size=8) as scheduler:
            specs = [ghz_spec(trajectories=16, seed=seed) for seed in range(3)]
            for spec in specs:
                scheduler.run(spec, timeout=60)
            for _ in range(3):
                scheduler.run(specs[0], timeout=60)  # cache hits
            with scheduler._lock:
                assert scheduler._active == {}
                # Drained, the scheduler dispatches nothing: jobs stay live.
                scheduler._draining = True
            spec = ghz_spec(trajectories=16, seed=9)
            key = scheduler.submit(spec)
            assert scheduler.cancel(key)
            scheduler.submit(spec)
            scheduler.submit(spec)  # joins the live job
            with scheduler._lock:
                assert list(scheduler._active) == [key]


class TestShutdown:
    def test_shutdown_is_idempotent_and_rejects_new_work(self):
        scheduler = Scheduler(workers=1)
        scheduler.shutdown()
        scheduler.shutdown()
        with pytest.raises(Exception):
            scheduler.submit(ghz_spec())


    def test_terminate_ends_a_worker_forked_under_a_sigterm_handler(self):
        """serve() installs a Python SIGTERM handler before its scheduler
        forks; the worker must not inherit it, or terminate() from the
        reaper and from shutdown would leave the worker running."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            scheduler = Scheduler(workers=1)
        finally:
            signal.signal(signal.SIGTERM, previous)
        process = scheduler._workers[0].process
        try:
            # A job run proves the worker is past its start-up.
            assert scheduler.run(ghz_spec(n=3, trajectories=2)).completed_trajectories == 2
            process.terminate()
            process.join(timeout=5.0)
            assert not process.is_alive()
            assert process.exitcode == -signal.SIGTERM
        finally:
            if process.is_alive():
                process.kill()
            process.join()
            scheduler.shutdown()


class TestEventDrivenDispatch:
    """The dispatcher wakes on worker output, submissions and shutdown.
    With the poll interval at an hour, a dispatcher that only woke on its
    timer would stall every test here."""

    @pytest.fixture
    def hour_poll(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_POLL_INTERVAL", 3600.0)

    def test_job_runs_on_worker_output_alone(self, hour_poll):
        spec = ghz_spec(trajectories=32)  # 16 chunks of 2 on two workers
        with Scheduler(workers=2) as scheduler:
            result = scheduler.result(scheduler.submit(spec), timeout=60)
            chunks = scheduler.metrics_snapshot()["counters"][
                "scheduler.chunks_completed"
            ]
        assert chunks == 16
        assert result.completed_trajectories == spec.trajectories

    def test_submission_wakes_an_idle_dispatcher(self, hour_poll):
        with Scheduler(workers=2) as scheduler:
            scheduler.result(scheduler.submit(ghz_spec(trajectories=32)), timeout=60)
            later = ghz_spec(trajectories=32, seed=6)
            result = scheduler.result(scheduler.submit(later), timeout=60)
        assert result.completed_trajectories == later.trajectories

    def test_shutdown_stops_the_dispatcher(self, hour_poll):
        scheduler = Scheduler(workers=2)
        scheduler.shutdown()
        assert not scheduler._dispatcher.is_alive()

    def test_unreadable_channel_is_not_waited_on(self, monkeypatch):
        # A live handle whose reader stays readable but whose read raises:
        # waited on, it would wake the dispatcher at once, every pass.
        monkeypatch.setattr(scheduler_module, "_POLL_INTERVAL", 0.05)
        reader, writer = multiprocessing.Pipe(duplex=False)
        writer.send_bytes(b"never read")

        class _ExplodingQueue:
            _reader = reader

            def get_nowait(self):
                raise RuntimeError("feeder died mid-put")

        class _Process:
            def is_alive(self):
                return True

        class _Handle:
            worker_id = 99
            dead = False
            busy = None
            process = _Process()
            result_queue = _ExplodingQueue()

        handle = _Handle()
        try:
            with Scheduler(workers=1) as scheduler:
                with scheduler._lock:
                    scheduler._workers.append(handle)
                time.sleep(0.5)
                with scheduler._lock:
                    scheduler._workers.remove(handle)
                errors = scheduler.metrics_snapshot()["counters"][
                    "scheduler.drain.errors"
                ]
        finally:
            reader.close()
            writer.close()
        # One failed read per 0.05 s pass makes about 10; a spin, thousands.
        assert 1 <= errors <= 20


class TestPoolRelease:
    def test_parallel_simulate_leaves_no_worker_processes(self):
        before = len(multiprocessing.active_children())
        for seed in range(3):
            simulate_stochastic(
                ghz(4), NOISE, [BasisProbability("0000")],
                trajectories=8, workers=2, seed=seed, sample_shots=0,
            )
        assert len(multiprocessing.active_children()) <= before

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_scheduler_lifetimes_leave_no_open_descriptors(self):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            Scheduler(workers=1).shutdown()
        assert len(os.listdir("/proc/self/fd")) == before


def seeded_ledger(path, spec, cpu_seconds, trajectories, method="stochastic"):
    """A ledger holding one finished run of ``spec``'s circuit family with
    a fixed CPU cost, so the plan it leads to involves no clock."""
    ledger = RunLedger(str(path))
    record_family(ledger, spec, cpu_seconds, trajectories, method)
    return ledger


def record_family(ledger, spec, cpu_seconds, trajectories, method="stochastic"):
    """Append one finished run of ``spec``'s circuit family to ``ledger``."""
    ledger.record_run(
        key="0" * 64,
        fingerprint=circuit_fingerprint(spec.circuit, spec.noise_model, spec.backend_kind),
        method=method,
        qubits=spec.circuit.num_qubits,
        depth=spec.circuit.depth(),
        peak_nodes=1,
        cpu_seconds=cpu_seconds,
        elapsed_seconds=cpu_seconds,
        trajectories=trajectories,
        effective_trajectories=float(trajectories),
        trajectories_per_second=1.0,
    )


def plan_of(scheduler, spec):
    """``(chunks, basis)`` and chunk sizes of ``spec``'s plan, once it ran
    (the sizes seen as it planned: a finished job is forgotten)."""
    sizes = []
    plan_chunks = scheduler._plan_chunks

    def recording_plan(job):
        plan_chunks(job)
        sizes[:] = [task.num_trajectories for _, task in sorted(job.chunks.items())]

    scheduler._plan_chunks = recording_plan
    key = scheduler.submit(spec)
    result = scheduler.result(key, timeout=120)
    del scheduler._plan_chunks
    assert result.completed_trajectories == spec.trajectories
    return scheduler.plan_for(key), sizes


#: A stratified DD job and a dense ``auto`` job: the two engines whose
#: result bits must not depend on the chunk plan or the dispatch order.
BITS_SPECS = [
    JobSpec.build(
        ghz(10), NoiseModel.paper_defaults(), (IdealFidelity(),),
        trajectories=64, seed=11,
    ),
    JobSpec.build(
        qaoa_maxcut(7, measure=False),
        NoiseModel.paper_defaults(),
        (IdealFidelity(), BasisProbability("0101010")),
        trajectories=25,
        seed=11,
        method="auto",
    ),
]
BITS_IDS = ["ghz10-dd-stratified", "qaoa7-dense-auto"]

#: Result fields that must be equal bit for bit between two runs of a spec.
BITS_FIELDS = (
    "estimates", "outcome_counts", "clean_outcome_counts", "errors_fired",
    "strata", "peak_nodes", "backend_kind", "completed_trajectories",
)


class TestMeasuredChunking:
    """Chunk plans from the ledger's CPU per trajectory.  On two workers a
    32-trajectory job's work W splits into 2 x min(8, max(1, ceil(W / 0.1)))
    chunks; without stochastic history it gets 8 chunks per worker."""

    SPEC = ghz_spec(trajectories=32)

    def test_no_ledger_plans_eight_chunks_per_worker(self):
        with Scheduler(workers=2) as scheduler:
            assert plan_of(scheduler, self.SPEC) == ((16, "default"), [2] * 16)
            counters = scheduler.metrics_snapshot()["counters"]
        assert counters["chunking.default"] == 1
        assert counters["chunking.measured"] == counters["chunking.explicit"] == 0

    def test_empty_family_plans_eight_chunks_per_worker(self, tmp_path):
        other = ghz_spec(n=5, trajectories=32)
        with seeded_ledger(tmp_path / "runs.jsonl", other, 0.001, 32) as ledger:
            with Scheduler(workers=2, ledger=ledger) as scheduler:
                assert plan_of(scheduler, self.SPEC) == ((16, "default"), [2] * 16)

    def test_exact_only_family_plans_eight_chunks_per_worker(self, tmp_path):
        # An exact run carries CPU but no trajectories: no rate to size by,
        # however its record reads.
        with seeded_ledger(
            tmp_path / "runs.jsonl", self.SPEC, 0.001, 32, method="exact"
        ) as ledger:
            with Scheduler(workers=2, ledger=ledger) as scheduler:
                assert plan_of(scheduler, self.SPEC) == ((16, "default"), [2] * 16)

    def test_small_work_plans_one_chunk_per_worker(self, tmp_path):
        # W = 32 x 1e-4 s = 0.0032 s: ceil(W / 0.1) = 1 chunk per worker.
        with seeded_ledger(tmp_path / "runs.jsonl", self.SPEC, 0.01, 100) as ledger:
            with Scheduler(workers=2, ledger=ledger) as scheduler:
                assert plan_of(scheduler, self.SPEC) == ((2, "measured"), [16, 16])
                counters = scheduler.metrics_snapshot()["counters"]
                events = [e for e in scheduler.trace_events() if e["name"] == "job.plan"]
        assert counters["chunking.measured"] == 1
        assert counters["chunking.default"] == 0
        assert [e["attrs"] for e in events] == [
            {"job": self.SPEC.job_key()[:16], "chunks": 2, "chunk_size": 16,
             "basis": "measured"}
        ]

    def test_intermediate_work_plans_by_the_rule(self, tmp_path):
        # W = 32 x (0.25 / 32) = 0.25 s: ceil(2.5) = 3 chunks per worker,
        # so 6 chunks of ceil(32 / 6) = 6 trajectories (the last one short).
        with seeded_ledger(tmp_path / "runs.jsonl", self.SPEC, 0.25, 32) as ledger:
            with Scheduler(workers=2, ledger=ledger) as scheduler:
                assert plan_of(scheduler, self.SPEC) == (
                    (6, "measured"), [6, 6, 6, 6, 6, 2]
                )

    def test_large_work_is_capped_at_eight_chunks_per_worker(self, tmp_path):
        with seeded_ledger(tmp_path / "runs.jsonl", self.SPEC, 100.0, 10) as ledger:
            with Scheduler(workers=2, ledger=ledger) as scheduler:
                assert plan_of(scheduler, self.SPEC) == ((16, "measured"), [2] * 16)

    def test_explicit_chunk_size_wins(self, tmp_path):
        with seeded_ledger(tmp_path / "runs.jsonl", self.SPEC, 0.01, 100) as ledger:
            with Scheduler(workers=2, ledger=ledger, chunk_size=5) as scheduler:
                assert plan_of(scheduler, self.SPEC) == (
                    (7, "explicit"), [5, 5, 5, 5, 5, 5, 2]
                )
                counters = scheduler.metrics_snapshot()["counters"]
        assert counters["chunking.explicit"] == 1
        assert counters["chunking.measured"] == 0

    def test_rate_reads_only_stochastic_runs_that_measured_trajectories(self):
        run = {"rec": "run", "method": "stochastic"}
        records = [
            {"rec": "fallback", "nodes": 9, "ceiling": 8},
            {"rec": "run", "method": "exact", "cpu_seconds": 5.0, "trajectories": 0},
            dict(run, cpu_seconds="n/a", trajectories=10),
            dict(run, cpu_seconds=float("nan"), trajectories=10),
            dict(run, cpu_seconds=0.3, trajectories=10),
            dict(run, cpu_seconds=0.1, trajectories=30),
        ]
        assert _cpu_per_trajectory(records) == pytest.approx(0.01)
        assert _cpu_per_trajectory(records[:4]) is None

    @pytest.mark.parametrize("source", ["store", "journal"])
    def test_checkpoint_resume_plans_its_remaining_spans_by_the_rule(
        self, tmp_path, source
    ):
        spec = self.SPEC
        done = run_trajectory_span(
            spec.circuit, spec.noise_model, spec.properties, spec.backend_kind,
            0, 8, spec.seed, sample_shots=spec.sample_shots,
        )
        store = ResultStore(directory=str(tmp_path / "store"))
        if source == "store":
            store.put_partial(spec.job_key(), [(0, 8)], done)
        else:
            # Journaled under an older plan of 8-trajectory chunks, of
            # which chunk 0 committed.
            with JobJournal(journal_path(store.directory)) as journal:
                journal.job_submitted(spec.job_key(), spec.to_dict())
                journal.plan_recorded(
                    spec.job_key(), [(i, 8 * i, 8) for i in range(4)], []
                )
                journal.chunk_done(spec.job_key(), 0, 0, 8, 0, done.to_dict())
        with seeded_ledger(tmp_path / "runs.jsonl", spec, 0.01, 100) as ledger:
            with Scheduler(workers=2, store=store, ledger=ledger) as scheduler:
                # The fresh plan's size (16) cuts the 24 remaining.
                assert plan_of(scheduler, spec) == (
                    (2, "measured"), [16, 8]
                )
                assert scheduler.trajectories_executed == 24
        with Scheduler(workers=2) as scheduler:
            assert plan_of(scheduler, spec)[0] == (16, "default")

    @pytest.mark.parametrize("spec", BITS_SPECS, ids=BITS_IDS)
    def test_measured_plan_gives_the_default_plans_bits(self, tmp_path, spec):
        with Scheduler(workers=2) as scheduler:
            default_plan, _ = plan_of(scheduler, spec)
            default = scheduler.result(spec.job_key())
        with seeded_ledger(tmp_path / "runs.jsonl", spec, 0.001, 100) as ledger:
            with Scheduler(workers=2, ledger=ledger) as scheduler:
                measured_plan, _ = plan_of(scheduler, spec)
                measured = scheduler.result(spec.job_key())
        assert default_plan[1] == "default" and measured_plan == (2, "measured")
        assert default_plan[0] > measured_plan[0]
        assert measured.backend_kind == default.backend_kind
        assert measured.strata == default.strata
        if spec.method == "auto":
            assert measured.backend_kind == "statevector"
        else:
            assert measured.strata  # stratified on the DD engine
        for field in (
            "estimates", "outcome_counts", "clean_outcome_counts", "errors_fired",
            "strata", "peak_nodes", "completed_trajectories",
        ):
            assert measured.to_dict().get(field) == default.to_dict().get(field), field


def finish_order(scheduler, specs):
    """Key prefixes of the jobs in the order they finalized, when ``specs``
    were submitted, in order, while dispatch was held, then released."""
    with scheduler._lock:
        scheduler._draining = True
    keys = [scheduler.submit(spec) for spec in specs]
    with scheduler._lock:
        scheduler._draining = False
        scheduler._wake()
    for key in keys:
        scheduler.result(key, timeout=120)
    return [
        event["attrs"]["job"]
        for event in scheduler.trace_events()
        if event["name"] == "job.finalize"
    ]


class TestDispatchOrder:
    """An idle worker gets a chunk of the job with the least remaining work
    (uncommitted trajectories x the family's CPU per trajectory); jobs
    without ledger history come after measured ones, ties in submission
    order.  The ledger CPU is fixed, so no ranking reads a clock."""

    LONG = ghz_spec(n=4, trajectories=40)
    SHORT = ghz_spec(n=5, trajectories=40)

    def test_short_job_submitted_second_finishes_first(self, tmp_path):
        # LONG: 40 x 10 s of measured work, 8 chunks on one worker; SHORT:
        # 40 x 1e-4 s, one chunk.
        with seeded_ledger(tmp_path / "runs.jsonl", self.LONG, 100.0, 10) as ledger:
            record_family(ledger, self.SHORT, 0.01, 100)
            with Scheduler(workers=1, ledger=ledger) as scheduler:
                order = finish_order(scheduler, [self.LONG, self.SHORT])
                assert scheduler.plan_for(self.LONG.job_key()) == (8, "measured")
        assert order == [self.SHORT.job_key()[:16], self.LONG.job_key()[:16]]

    def test_unmeasured_jobs_keep_submission_order(self):
        later = ghz_spec(n=5, trajectories=8)
        with Scheduler(workers=1) as scheduler:
            order = finish_order(scheduler, [self.LONG, later])
        assert order == [self.LONG.job_key()[:16], later.job_key()[:16]]

    def test_measured_job_goes_ahead_of_an_earlier_unmeasured_one(self, tmp_path):
        # Only SHORT's family has history, and a large one: measured work
        # of any size ranks before unmeasured work.
        with seeded_ledger(tmp_path / "runs.jsonl", self.SHORT, 100.0, 10) as ledger:
            with Scheduler(workers=1, ledger=ledger) as scheduler:
                order = finish_order(scheduler, [self.LONG, self.SHORT])
        assert order == [self.SHORT.job_key()[:16], self.LONG.job_key()[:16]]

    @pytest.mark.parametrize("spec", BITS_SPECS, ids=BITS_IDS)
    def test_sharing_the_pool_moves_no_bit(self, tmp_path, spec):
        # Explicit 8-trajectory chunks on two workers; the other job's
        # smaller measured work sends its chunks out first, and the
        # subject's follow on whichever worker frees.
        other = ghz_spec(n=6, trajectories=48, seed=3)
        with seeded_ledger(tmp_path / "alone.jsonl", spec, 0.001, 100) as ledger:
            with Scheduler(workers=2, chunk_size=8, ledger=ledger) as scheduler:
                alone = scheduler.run(spec, timeout=120)
        with seeded_ledger(tmp_path / "shared.jsonl", spec, 0.001, 100) as ledger:
            record_family(ledger, other, 0.001, 1000)
            with Scheduler(workers=2, chunk_size=8, ledger=ledger) as scheduler:
                order = finish_order(scheduler, [spec, other])
                shared = scheduler.result(spec.job_key())
        assert order == [other.job_key()[:16], spec.job_key()[:16]]
        for field in BITS_FIELDS:
            assert shared.to_dict().get(field) == alone.to_dict().get(field), field


class TestQueueWait:
    """``scheduler.queue_wait_seconds``: one observation per job, from its
    chunk plan to its first chunk dispatch."""

    @staticmethod
    def waits(scheduler):
        return scheduler.metrics_snapshot()["histograms"]["scheduler.queue_wait_seconds"]

    def test_one_observation_per_job_that_dispatched_a_chunk(self):
        with Scheduler(workers=2) as scheduler:
            assert self.waits(scheduler)["count"] == 0  # pre-registered
            scheduler.run(ghz_spec(seed=1), timeout=120)
            scheduler.run(ghz_spec(seed=2), timeout=120)
            scheduler.run(ghz_spec(seed=1), timeout=120)  # a store hit
            exact = scheduler.run(ghz_spec(n=3, method="exact"), timeout=120)
            histogram = self.waits(scheduler)
        assert exact.method == "exact"
        assert histogram["count"] == 2
        assert 0.0 <= histogram["sum"] < 60.0

    def test_fallback_and_resume_observe_their_own_first_dispatch(self, tmp_path):
        spec = ghz_spec(trajectories=32)
        done = run_trajectory_span(
            spec.circuit, spec.noise_model, spec.properties, spec.backend_kind,
            0, 8, spec.seed, sample_shots=spec.sample_shots,
        )
        store = ResultStore(directory=str(tmp_path / "store"))
        store.put_partial(spec.job_key(), [(0, 8)], done)
        with Scheduler(workers=2, store=store, exact_node_ceiling=2) as scheduler:
            scheduler.run(spec, timeout=120)
            fallen = scheduler.run(ghz_spec(n=3, method="exact"), timeout=120)
            counters = scheduler.metrics_snapshot()["counters"]
            histogram = self.waits(scheduler)
        assert counters["scheduler.jobs_resumed"] == counters["dispatch.fallback"] == 1
        assert fallen.method == "stochastic"
        assert histogram["count"] == 2
