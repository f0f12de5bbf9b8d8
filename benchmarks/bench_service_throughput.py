"""Job-service throughput: warm pool versus per-call pool, cache hits.

Three questions the service layer exists to answer favourably:

1. **Jobs/sec with a warm pool** — a persistent :class:`Scheduler` keeps
   its worker processes (and their DD packages / evaluation contexts)
   alive across jobs, so a stream of submissions skips per-job pool
   start-up entirely.
2. **Per-call pool cost** — the old execution model: build a fresh pool
   for every job, tear it down after. The delta against (1) is the
   amortised start-up + context-rebuild cost the service eliminates.
3. **Cache-hit latency** — resubmitting a byte-identical job must cost
   roughly a dictionary lookup and a read of the stored record, not a
   simulation.

Budgets follow conftest conventions (``REPRO_BENCH_TRAJECTORIES``,
``REPRO_BENCH_TIMEOUT``).

Run:  pytest benchmarks/bench_service_throughput.py --benchmark-only
"""

import pytest

from repro.circuits.library import ghz, qft
from repro.noise import NoiseModel
from repro.service import JobSpec, ResultStore, Scheduler
from repro.stochastic import BasisProbability

from .conftest import TRAJECTORIES

NOISE = NoiseModel.paper_defaults()
WORKERS = 2
#: A small stream of distinct jobs (distinct seeds → distinct job keys).
JOB_SEEDS = (1, 2, 3, 4)


def _specs(seeds=JOB_SEEDS):
    specs = []
    for seed in seeds:
        for circuit, target in ((ghz(8), "0" * 8), (qft(6), "0" * 6)):
            specs.append(
                JobSpec.build(
                    circuit,
                    NOISE,
                    [BasisProbability(target)],
                    trajectories=TRAJECTORIES,
                    seed=seed,
                    sample_shots=0,
                )
            )
    return specs


def _record_jobs_per_sec(benchmark, jobs):
    benchmark.extra_info["jobs"] = jobs
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["jobs_per_sec"] = jobs / benchmark.stats.stats.mean


def test_warm_pool_job_stream(benchmark):
    """Many jobs through ONE persistent scheduler (the service model)."""
    benchmark.group = "service-job-stream"
    specs = _specs()

    with Scheduler(workers=WORKERS) as scheduler:
        def stream():
            return [scheduler.run(spec) for spec in specs]

        results = benchmark.pedantic(stream, rounds=1, iterations=1, warmup_rounds=0)
    assert len(results) == len(specs)
    assert all(r.completed_trajectories == TRAJECTORIES for r in results)
    _record_jobs_per_sec(benchmark, len(specs))


def test_per_call_pool_job_stream(benchmark):
    """The same stream, but a fresh pool per job (the pre-service model)."""
    benchmark.group = "service-job-stream"
    specs = _specs()

    def stream():
        results = []
        for spec in specs:
            with Scheduler(workers=WORKERS) as scheduler:
                results.append(scheduler.run(spec))
        return results

    results = benchmark.pedantic(stream, rounds=1, iterations=1, warmup_rounds=0)
    assert len(results) == len(specs)
    assert all(r.completed_trajectories == TRAJECTORIES for r in results)
    _record_jobs_per_sec(benchmark, len(specs))


def test_cache_hit_latency(benchmark):
    """Resubmission of an already-computed job: a store lookup, not a run."""
    benchmark.group = "service-cache"
    spec = _specs(seeds=(7,))[0]
    store = ResultStore(directory=None)

    with Scheduler(workers=WORKERS, store=store) as scheduler:
        scheduler.run(spec)  # populate the cache
        executed = scheduler.trajectories_executed
        resubmissions = []

        def resubmit():
            resubmissions.append(spec)
            return scheduler.run(spec)

        result = benchmark.pedantic(resubmit, rounds=5, iterations=1, warmup_rounds=0)
        # Every round that ran was answered by the store: one cache lookup
        # each (reading the stored record back is not another), no work.
        assert scheduler.trajectories_executed == executed
    assert result.completed_trajectories == TRAJECTORIES
    assert store.hits == len(resubmissions) >= 1
