"""One workload in one process: drive it through the Scheduler and measure.

``run.py`` starts this in a fresh child process per workload, so DD caches,
warm worker pools and ``getrusage`` totals never leak between workloads.
The untraced pass yields the end-to-end metrics; the traced pass (see
trace.py) yields the per-layer metrics, and is never the source of an
end-to-end number.

Time-valued metrics are reported at the reference machine's speed: each is
scaled by the speed factor the probe process (probe.py) measured during
the same window, because on a shared 2-vCPU virtual machine CPU
throughput drifts by up to 2x within minutes.  The unscaled values and the factors stay in the
run record under ``raw_metrics`` and ``speed_factors``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import probe
import trace as tracer
import workloads
from workloads import WORKERS, Job

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cold restarts per run; setup_s is their median.
SETUP_RESTARTS = 7
SMOKE_SETUP_RESTARTS = 2

#: Share of a traced run's seconds spent first on an untraced pass; the
#: traced pass then repeats exactly the jobs that pass completed, to
#: measure the tracing overhead on identical work, and carries on for the
#: rest of the run's seconds.
OVERHEAD_SHARE = 0.25


@dataclass
class JobRecord:
    job: Job
    key: Optional[str]
    thread: int
    submit_start: float
    submit_end: float
    result_end: float
    result: object
    decision: object
    error: Optional[str]

    @property
    def latency(self) -> float:
        return self.result_end - self.submit_start


@dataclass
class PassResult:
    records: List[JobRecord]
    #: Monotonic start and end of each phase.
    phase_windows: List[Tuple[float, float]]
    wall: float
    cpu_s: float
    peak_rss_kb: int
    counters: Dict[str, float]
    directory: str
    #: Monotonic start and end of the closed loop.
    window: Tuple[float, float]


def _usage() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _reap_children(timeout: float = 5.0) -> None:
    """Wait for every worker process, killing stragglers (reaping them is
    what makes their CPU and peak RSS visible to RUSAGE_CHILDREN)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def _drive(scheduler, job: Job, deadline: float) -> JobRecord:
    key = None
    result = decision = error = None
    submit_start = time.monotonic()
    submit_end = submit_start
    try:
        key = scheduler.submit(job.spec)
        submit_end = time.monotonic()
        result = scheduler.result(key, timeout=max(1.0, deadline - time.monotonic()))
        decision = scheduler.decision_for(key)
    except Exception as exc:  # a failed job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return JobRecord(job, key, threading.get_ident(), submit_start, submit_end,
                     time.monotonic(), result, decision, error)


#: One phase of a pass: the jobs to take, and for how many seconds to keep
#: taking them (None: until the iterator ends).
Phase = Tuple[Iterator[Job], Optional[float]]


def _closed_loop(scheduler, phase: Phase, clients: int, round_size: int,
                 deadline: float) -> List[JobRecord]:
    """Each client submits its next job once its previous result is back,
    and takes no new job once the phase's seconds have passed and the
    jobs taken so far make whole rounds."""
    jobs, seconds = phase
    stop = None if seconds is None else time.monotonic() + seconds
    records: List[Optional[JobRecord]] = []
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                if (stop is not None and time.monotonic() >= stop
                        and len(records) % round_size == 0):
                    return
                job = next(jobs, None)
                if job is None:
                    return
                index = len(records)
                records.append(None)
            records[index] = _drive(scheduler, job, deadline)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for record in records if record is not None]


def run_pass(phases: Sequence[Phase], workload: workloads.Workload, directory: str,
             deadline: float) -> PassResult:
    """Run the phases back to back on one fresh Scheduler, store, journal
    and ledger; CPU and peak RSS cover the loop and the worker shutdown."""
    from repro import ResultStore, Scheduler
    from repro.obs.ledger import RunLedger, ledger_path
    from repro.service.journal import JobJournal, journal_path

    store = ResultStore(directory=directory)
    journal = JobJournal(journal_path(directory))
    ledger = RunLedger(ledger_path(directory))
    scheduler = Scheduler(workers=WORKERS, store=store, journal=journal, ledger=ledger)
    cpu_before = _usage()
    records: List[JobRecord] = []
    phase_windows: List[Tuple[float, float]] = []
    try:
        started = time.monotonic()
        for phase in phases:
            phase_started = time.monotonic()
            records.extend(_closed_loop(scheduler, phase, workload.clients,
                                        workload.round_size, deadline))
            phase_windows.append((phase_started, time.monotonic()))
        ended = time.monotonic()
        wall = ended - started
        counters = dict(scheduler.metrics_snapshot()["counters"])
    finally:
        scheduler.shutdown()
        _reap_children()
        journal.close()
        ledger.close()
    cpu_s = _usage() - cpu_before
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return PassResult(records, phase_windows, wall, cpu_s, peak_rss_kb, counters,
                      directory, (started, ended))


def measure_setup(store_directory: str, scratch: str,
                  restarts: int) -> List[Tuple[float, Tuple[float, float]]]:
    """Wall time of each cold service restart over a fresh copy of the
    store, with the monotonic window it took."""
    samples = []
    for index in range(restarts):
        copy = os.path.join(scratch, f"setup-{index}")
        shutil.copytree(store_directory, copy)
        spawned = time.monotonic()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), copy],
            stdout=subprocess.PIPE, check=True, timeout=60, text=True,
        )
        up = float(completed.stdout.split()[-1])
        samples.append((up - spawned, (spawned, up)))
        shutil.rmtree(copy)
    return samples


class SpeedProbe:
    """The probe process (probe.py), alive for one workload run."""

    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdout=subprocess.PIPE, text=True,
        )
        self._samples: List[Tuple[float, float]] = []

    def stop(self) -> None:
        self._process.terminate()
        out, _ = self._process.communicate(timeout=30)
        self._samples = [
            (float(instant), float(seconds))
            for instant, seconds in (line.split() for line in out.splitlines() if line)
        ]

    def factor(self, window: Tuple[float, float]) -> float:
        """Reference loop time over the mean loop time inside ``window``
        (below 1 when the machine ran slower than the reference).  The
        samples are evenly spaced in time, so their mean follows the
        throughput integrated over the window.  A window too short for
        ``MIN_SAMPLES`` uses the samples nearest its middle."""
        inside = [seconds for instant, seconds in self._samples
                  if window[0] <= instant <= window[1]]
        if len(inside) < self.MIN_SAMPLES:
            middle = (window[0] + window[1]) / 2.0
            nearest = sorted(self._samples, key=lambda sample: abs(sample[0] - middle))
            inside = [seconds for _, seconds in nearest[: self.MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("the speed probe took no samples")
        return probe.REFERENCE / statistics.mean(inside)


def normalize(metrics: Dict[str, dict], factor: float) -> Dict[str, dict]:
    """Scale seconds by ``factor`` and rates by its inverse."""
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {
        name: {"value": entry["value"] * scale.get(entry["unit"], 1.0), "unit": entry["unit"]}
        for name, entry in metrics.items()
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check(records: Sequence[JobRecord], references) -> List[str]:
    """Oracle failures of one pass, one line per failed job.  Every
    completion of a key in the pass must carry the same payload bytes."""
    failures = []
    payloads: Dict[str, str] = {}
    for record in records:
        label = f"{record.job.kind} {record.job.circuit_id} ({(record.key or '?')[:12]})"
        if record.error is not None:
            failures.append(f"{label}: {record.error}")
            continue
        problems = workloads.check_job(record.job, record.result, references)
        payload = workloads.canonical_payload(record.result)
        first = payloads.setdefault(record.key, payload)
        if payload != first:
            problems.append("payload differs from the first completion of this key")
        if problems:
            failures.append(f"{label}: " + "; ".join(problems))
    return failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _p90(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(measured: PassResult, setup: List[Tuple[float, Tuple[float, float]]],
                       speed: Callable[[Tuple[float, float]], float]) -> Dict[str, dict]:
    """The end-to-end metrics.  ``speed(window)`` is the speed factor of a
    monotonic window: each job latency and restart time is scaled by its own
    window's factor, the loop totals by the whole loop's."""
    setup_s = statistics.median(seconds * speed(window) for seconds, window in setup)
    done = [r for r in measured.records if r.error is None]
    latencies = [r.latency * speed((r.submit_start, r.result_end)) for r in done]
    targeted = [latency for r, latency in zip(done, latencies) if r.job.kind == "fresh"]
    latencies = latencies or [float("nan")]
    loop = speed(measured.window)
    values = {
        "setup_s": (setup_s, "s"),
        "time_to_eps_s": (statistics.median(targeted or latencies), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (_p90(latencies), "s"),
        "jobs_per_s": (len(done) / (measured.wall * loop), "1/s"),
        "cpu_per_job_s": (measured.cpu_s * loop / max(1, len(done)), "s"),
        "peak_rss_mb": (measured.peak_rss_kb / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


#: Layers reported as self seconds per submitted job.
_SELF_TIME_LAYERS = (
    "service.submit", "journal.append", "store.put", "store.put_partial",
    "store.get", "ledger.record", "ledger.aggregates", "obs.snapshot_merge",
    "results.merge", "stochastic.compile", "circuits.job_key",
    "dispatch.decide", "exact.run", "strata.search", "prefix.consume",
    "property.eval", "stochastic.span", "noise.damping_p1",
    "simulators.replay", "simulators.measure", "simulators.sample",
    "dd.multiply", "dd.inner_product", "dd.gc", "dd.node_count",
)


def layer_metrics(traced: PassResult, merged: tracer.Merged) -> Dict[str, dict]:
    """Per-layer metrics of the traced pass (see README.md for each), unscaled;
    the array baseline and the tracing overhead are added by the caller."""
    records = traced.records
    jobs = max(1, len(records))
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": float(value), "unit": unit}

    for layer in _SELF_TIME_LAYERS:
        put(f"{layer}_s", merged.self_s(layer) / jobs, "s")

    chunks: Dict[str, List[tuple]] = {}
    for span in merged.spans:
        if span[0] == "stochastic.span" and span[4] is not None:
            chunks.setdefault(span[4], []).append(span)
    exact_runs = [span for span in merged.spans if span[0] == "exact.run"]

    fresh = [r for r in records
             if r.error is None and r.job.kind != "resubmit" and r.result.method != "exact"]
    waits, finals = [], []
    service_s = latency_s = 0.0
    for record in records:
        if record.error is not None:
            continue
        # Worker compute: the exact run inside submit(), or the window from
        # the first chunk start to the last chunk end; store hits have none.
        compute = 0.0
        if record.job.kind == "resubmit":
            pass
        elif record.result.method == "exact":
            compute = sum(
                end - start for _, start, end, _, _, thread, _ in exact_runs
                if thread == record.thread
                and record.submit_start <= start and end <= record.submit_end
            )
        elif record.key[:16] in chunks:
            spans = chunks[record.key[:16]]
            first = min(span[1] for span in spans)
            last = max(span[2] for span in spans)
            waits.append(first - record.submit_end)
            finals.append(record.result_end - last)
            compute = last - first
        service_s += record.latency - compute
        latency_s += record.latency
    put("service.queue_wait_s", statistics.median(waits) if waits else 0.0, "s")
    put("service.finalize_s", statistics.median(finals) if finals else 0.0, "s")
    put("service.latency_frac", service_s / latency_s if latency_s else 0.0, "fraction")
    chunk_count = sum(len(chunks.get(r.key[:16], ())) for r in fresh)
    put("service.chunks_per_job", chunk_count / len(fresh) if fresh else 0.0, "count")
    worker_s = merged.worker_total_s("stochastic.span")
    put("service.worker_busy_frac", worker_s / (WORKERS * traced.wall), "fraction")
    put("stochastic.worker_s", worker_s / jobs, "s")
    put("trace.coverage", min(merged.worker_coverage().values(), default=0.0), "fraction")

    put("journal.appends", merged.count("journal.append") / jobs, "count")
    put("dd.multiply_calls", merged.count("dd.multiply") / jobs, "count")
    for name, path in (("journal.bytes", ("journal", "wal.jsonl")),
                       ("ledger.bytes", ("ledger", "runs.jsonl"))):
        full = os.path.join(traced.directory, *path)
        put(name, os.path.getsize(full) if os.path.exists(full) else 0, "bytes")
    counters = traced.counters
    put("store.hits", counters.get("store.hits", 0) / jobs, "count")
    put("dispatch.exact", counters.get("dispatch.exact", 0) / jobs, "count")
    put("dispatch.stochastic", counters.get("dispatch.stochastic", 0) / jobs, "count")

    ratios = [
        r.result.completed_trajectories / r.decision.stochastic_budget
        for r in fresh
        if r.decision is not None and r.decision.stochastic_budget > 0
    ]
    put("dispatch.budget_ratio", statistics.median(ratios) if ratios else 0.0, "ratio")
    exact_peaks = [r.result.peak_nodes for r in records
                   if r.error is None and r.result.method == "exact"]
    put("exact.peak_rho_nodes", max(exact_peaks, default=0), "nodes")

    results = [r.result for r in fresh]
    erring = sum(result.strata.get("erring_sampled", 0) for result in results)
    attempts = sum(result.strata.get("attempts", 0) for result in results)
    put("strata.accept_ratio", erring / attempts if attempts else 0.0, "ratio")
    summed: Dict[str, float] = {}
    for result in results:
        for name, value in result.metrics.get("counters", {}).items():
            summed[name] = summed.get(name, 0) + value
    put("prefix.replayed_gates", summed.get("prefix.replayed_gates", 0) / jobs, "count")
    put("stochastic.trajectories",
        sum(result.completed_trajectories for result in results) / jobs, "count")
    effective = sum(result.effective_trajectories() for result in results)
    put("stochastic.eff_traj_per_s", effective / worker_s if worker_s else 0.0, "1/s")
    put("noise.errors_fired",
        sum(sum(result.errors_fired.values()) for result in results) / jobs, "count")

    def table_ratio(prefix: str) -> float:
        hits = sum(v for k, v in summed.items() if k.startswith(prefix) and k.endswith(".hits"))
        misses = sum(v for k, v in summed.items() if k.startswith(prefix) and k.endswith(".misses"))
        return hits / (hits + misses) if hits + misses else 0.0

    put("dd.compute_hit_ratio", table_ratio("dd.compute."), "ratio")
    put("dd.unique_hit_ratio", table_ratio("dd.unique."), "ratio")
    put("dd.peak_nodes", max((result.peak_nodes for result in results), default=0), "nodes")
    return out


def array_baseline(workload: workloads.Workload,
                   seed: int) -> Tuple[Dict[str, dict], Tuple[float, float]]:
    """Single-threaded in-process trajectories per second on each backend
    (paper Table I's DD-vs-array comparison; reported, never gated), and
    the monotonic window the measurement took."""
    from repro import NoiseModel
    from repro.stochastic.runner import run_trajectory_span

    circuit = workloads.build_circuit(workload.baseline_circuit)
    properties = workloads.build_properties(workload.baseline_circuit)
    metrics = {}
    window_start = time.monotonic()
    for backend in ("dd", "statevector"):
        started = time.monotonic()
        result = run_trajectory_span(
            circuit, NoiseModel.paper_defaults(), properties, backend,
            0, workload.baseline_trajectories, seed,
        )
        rate = result.completed_trajectories / (time.monotonic() - started)
        metrics[f"simulators.{backend}_traj_per_s"] = {"value": rate, "unit": "1/s"}
    return metrics, (window_start, time.monotonic())


# ----------------------------------------------------------------------
# Entry point of the child process
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, traced: bool, smoke: bool, seconds: float,
                 scratch: str, deadline: float) -> dict:
    """Measure one workload for ``seconds``; returns the run record
    ``run.py`` reports."""
    workload = workloads.build(name, seed, smoke)
    references = workloads.load_references()
    speed = SpeedProbe()
    try:
        if not traced:
            measured = run_pass([(workload.jobs(), seconds)], workload,
                                os.path.join(scratch, "store"), deadline)
            setup = measure_setup(
                measured.directory, scratch,
                SMOKE_SETUP_RESTARTS if smoke else SETUP_RESTARTS,
            )
            passes = [measured]
            problems: List[str] = []
        else:
            plain = run_pass([(workload.jobs(), seconds * OVERHEAD_SHARE)], workload,
                             os.path.join(scratch, "store-untraced"), deadline)
            head = len(plain.records)
            rest = seconds - plain.wall
            span_dir = os.path.join(scratch, "spans")
            recorder = tracer.install(span_dir)
            try:
                jobs = workload.jobs()
                measured = run_pass([(itertools.islice(jobs, head), None), (jobs, rest)],
                                    workload, os.path.join(scratch, "store-traced"),
                                    deadline)
            finally:
                tracer.uninstall(recorder)
            merged = tracer.merge(span_dir, os.getpid())
            problems = merged.coverage_errors()
            baseline, baseline_window = array_baseline(workload, seed)
            passes = [plain, measured]
    finally:
        speed.stop()
    factors = {"pass": speed.factor(measured.window)}
    if not traced:
        raw = end_to_end_metrics(measured, setup, lambda window: 1.0)
        metrics = end_to_end_metrics(measured, setup, speed.factor)
    else:
        # The same jobs untraced and then traced, each wall at its own speed.
        head_window = measured.phase_windows[0]
        factors["traced_head"] = speed.factor(head_window)
        factors["untraced_head"] = speed.factor(plain.window)
        factors["baseline"] = speed.factor(baseline_window)
        ratio = (head_window[1] - head_window[0]) / plain.wall
        layers = layer_metrics(measured, merged)
        raw = {**layers, **baseline,
               "trace.overhead_frac": {"value": ratio - 1.0, "unit": "fraction"}}
        metrics = {
            **normalize(layers, factors["pass"]),
            **normalize(baseline, factors["baseline"]),
            "trace.overhead_frac": {
                "value": ratio * factors["traced_head"] / factors["untraced_head"] - 1.0,
                "unit": "fraction",
            },
        }
    failures = [line for done in passes for line in check(done.records, references)]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "smoke": smoke,
        "attempted": sum(len(done.records) for done in passes),
        "failed": len(failures),
        "failures": failures + problems,
        "correct": not failures and not problems,
        "metrics": dict(sorted(metrics.items())),
        "raw_metrics": dict(sorted(raw.items())),
        "speed_factors": factors,
    }
