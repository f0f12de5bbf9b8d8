"""Seeded end-to-end chaos suite (the engine behind ``repro chaos``).

The suite runs one small GHZ job through the full service stack — sharded
scheduler, persistent worker pool, checksummed on-disk store — while a
seed-derived :class:`~repro.faults.plan.FaultPlan` strikes it, and then
verifies the promises docs/ROBUSTNESS.md makes:

* the job **completes** with every requested trajectory despite injected
  crashes, hangs, dropped queue deliveries, and store corruption;
* the estimates are **correct**: equal (to ``_REFERENCE_TOLERANCE``) to
  a fault-free serial reference, with Hoeffding half-widths matching the
  completed sample count;
* the run is **deterministic**: the same seed derives an identical fault
  schedule, and two chaos passes under that schedule agree bit for bit in
  every field the spec determines — estimate counts and exact sums,
  outcome histograms, fired errors, strata, trajectory count and engine —
  whichever faults forced re-execution;
* every recovery path actually fired: ``faults.injected.*`` and
  ``faults.recovered.*`` counters are nonzero.

Two passes run against the *same store directory* on purpose.  Pass 1's
final result is written through the fault plan's store faults (bit-flip /
torn-write), so pass 2 — a fresh :class:`ResultStore` instance with a cold
memory cache — must detect the on-disk corruption by checksum, quarantine
the entry, and transparently re-execute: the disk-corruption recovery path
is exercised end to end, not just at unit level.  ``enospc`` strikes the
same write and fails it before a byte lands, so it waits for pass 2 when
a corrupting kind is armed.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.library.ghz import ghz
from ..noise.model import NoiseModel
from ..stochastic.properties import IdealFidelity
from ..stochastic.results import StochasticResult
from ..stochastic.runner import simulate_stochastic
from .inject import PLAN_ENV, reset_injector_cache
from .plan import FaultPlan, canonical_kind

__all__ = [
    "ChaosCheck",
    "ChaosReport",
    "DEFAULT_KINDS",
    "run_chaos",
    "run_kill_serve",
]

#: Fault kinds exercised when ``repro chaos`` is run without ``--faults``.
#: ``drift`` is excluded by default because renormalisation perturbs the
#: affected trajectory's values (pass-vs-reference equality would need a
#: looser tolerance); opt in with ``--faults ...,drift``.
DEFAULT_KINDS: Tuple[str, ...] = (
    "crash-before",
    "crash-mid-chunk",
    "hang",
    "corrupt-outcome",
    "queue-drop",
    "bit-flip",
    "enospc",
)

#: Tolerance between a chaos pass and the fault-free serial reference.
#: Per-trajectory values are identical (seeds derive from the absolute
#: trajectory index) and estimate sums are exact, so the chunked passes
#: reproduce the serial span's bits on these GHZ jobs; the tolerance only
#: leaves room for the last-bit drift a warm worker's DD tables can add on
#: other circuits (docs/ROBUSTNESS.md).
_REFERENCE_TOLERANCE = 1e-12


@dataclass
class ChaosCheck:
    """One verified invariant: what was asserted and whether it held."""

    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the verdict."""

    seed: int
    kinds: Tuple[str, ...]
    trajectories: int
    plan: Dict[str, object] = field(default_factory=dict)
    reference_estimates: Dict[str, float] = field(default_factory=dict)
    pass_estimates: List[Dict[str, float]] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    recovered: Dict[str, int] = field(default_factory=dict)
    checks: List[ChaosCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(ChaosCheck(name, ok, detail))

    def render(self) -> str:
        lines = [
            f"chaos seed={self.seed} kinds={','.join(self.kinds)} "
            f"M={self.trajectories}",
            "injected: " + (
                ", ".join(
                    f"{key.split('.')[-1]}={value}"
                    for key, value in sorted(self.injected.items())
                ) or "none"
            ),
            "recovered: " + (
                ", ".join(
                    f"{key.split('.')[-1]}={value}"
                    for key, value in sorted(self.recovered.items())
                ) or "none"
            ),
        ]
        lines.extend(check.render() for check in self.checks)
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _estimates_of(result: StochasticResult) -> Dict[str, float]:
    return {name: est.mean for name, est in result.estimates.items()}


def _differing_fields(a: StochasticResult, b: StochasticResult) -> List[str]:
    """The fields a spec determines (not timings, metrics or traces) in
    which two results of it differ."""

    def fields(result: StochasticResult) -> Dict[str, object]:
        return {
            "estimates": {
                name: (est.mean, est.count, est.total_partials,
                       est.total_squared_partials)
                for name, est in result.estimates.items()
            },
            "outcome_counts": result.outcome_counts,
            "clean_outcome_counts": result.clean_outcome_counts,
            "errors_fired": result.errors_fired,
            "strata": result.strata,
            "completed_trajectories": result.completed_trajectories,
            "engine": result.backend_kind,
        }

    left, right = fields(a), fields(b)
    return [name for name in left if left[name] != right[name]]


def _counters_with_prefix(
    snapshot: Dict[str, Dict[str, object]], prefix: str
) -> Dict[str, int]:
    counters = snapshot.get("counters", {})
    return {
        name: int(value)
        for name, value in counters.items()
        if name.startswith(prefix) and value
    }


def _merge_counts(*parts: Dict[str, int]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total.get(name, 0) + value
    return total


def run_chaos(
    seed: int,
    kinds: Sequence[str] = DEFAULT_KINDS,
    trajectories: int = 80,
    num_qubits: int = 4,
    workers: int = 2,
    chunk_size: int = 16,
    chunk_timeout: float = 2.0,
    store_dir: Optional[str] = None,
    job_timeout: float = 180.0,
) -> ChaosReport:
    """Run the chaos suite; returns a :class:`ChaosReport` (see module doc).

    The caller's ``REPRO_FAULT_PLAN`` environment is saved and restored —
    the suite owns the variable for its duration (it is how the plan
    reaches forked workers).
    """
    kinds = tuple(canonical_kind(name) for name in kinds)
    report = ChaosReport(seed=seed, kinds=kinds, trajectories=trajectories)
    num_chunks = -(-trajectories // chunk_size)

    circuit = ghz(num_qubits)
    noise_model = NoiseModel.paper_defaults()
    properties = (IdealFidelity(),)

    saved_env = os.environ.get(PLAN_ENV)
    scratch = tempfile.mkdtemp(prefix="repro-chaos-")
    own_store = store_dir is None
    if own_store:
        store_dir = os.path.join(scratch, "store")
    try:
        # Fault-free serial reference, computed before any plan is active.
        os.environ.pop(PLAN_ENV, None)
        reset_injector_cache()
        reference = simulate_stochastic(
            circuit,
            noise_model=noise_model,
            properties=properties,
            trajectories=trajectories,
            backend="dd",
            workers=1,
            seed=seed,
            sample_shots=0,
        )
        report.reference_estimates = _estimates_of(reference)

        # Same seed + kinds must derive the same schedule, byte for byte
        # (state_dir is pass-local coordination, not part of the schedule).
        schedule = FaultPlan.generate(
            seed, kinds, num_chunks, trajectories=trajectories
        ).to_dict()["faults"]
        replay = FaultPlan.generate(
            seed, kinds, num_chunks, trajectories=trajectories
        ).to_dict()["faults"]
        report.plan = {"seed": seed, "faults": schedule}
        report.check(
            "plan determinism",
            schedule == replay,
            f"{len(schedule)} faults derive identically from seed {seed}",
        )

        # Every store kind strikes the final result write, the one store
        # write a completing pass makes: corruption in pass 1 only, so pass
        # 2 reads it back through a cold store, and ENOSPC (which fails the
        # write before a byte lands) in a pass that arms no corruption.
        corrupting = {"torn-write", "bit-flip"} & set(kinds)
        held_back = {1: {"enospc"} if corrupting else set(), 2: corrupting}
        passes: List[StochasticResult] = []
        for pass_index in (1, 2):
            state_dir = os.path.join(scratch, f"pass-{pass_index}")
            os.makedirs(state_dir, exist_ok=True)
            plan = FaultPlan.generate(
                seed, kinds, num_chunks,
                trajectories=trajectories, state_dir=state_dir,
            )
            plan = replace(plan, faults=tuple(
                spec for spec in plan.faults
                if spec.kind not in held_back[pass_index]
            ))
            os.environ[PLAN_ENV] = plan.to_json()
            reset_injector_cache()
            result, snapshot = _run_pass(
                circuit, noise_model, properties, trajectories, seed,
                store_dir, workers, chunk_size, chunk_timeout, job_timeout,
            )
            passes.append(result)
            report.pass_estimates.append(_estimates_of(result))
            # Worker-side firings live in marker files (a crashed worker
            # cannot report); parent-side firings are in the scheduler's
            # merged snapshot.  Markers are authoritative for both here —
            # every spec in a state_dir plan coordinates through them.
            report.injected = _merge_counts(report.injected, plan.claimed_counts())
            report.recovered = _merge_counts(
                report.recovered,
                _counters_with_prefix(snapshot, "faults.recovered."),
            )

        for index, result in enumerate(passes, start=1):
            report.check(
                f"pass {index} completion",
                result.completed_trajectories == trajectories
                and not result.timed_out,
                f"{result.completed_trajectories}/{trajectories} trajectories",
            )
            for name, estimate in result.estimates.items():
                expected = estimate.hoeffding_halfwidth()
                # Stratified runs scale the bound by the erring mass
                # (see repro.stochastic.strata); unstratified weight is 1.
                weight = (
                    1.0 - estimate.p_clean if estimate.p_clean is not None else 1.0
                )
                derived = weight * math.sqrt(
                    math.log(2.0 / 0.05) / (2.0 * max(1, estimate.count))
                )
                report.check(
                    f"pass {index} hoeffding {name}",
                    estimate.count == trajectories
                    and math.isclose(expected, derived, rel_tol=1e-12),
                    f"count={estimate.count} halfwidth={expected:.6f}",
                )

        differing = _differing_fields(*passes)
        report.check(
            "pass determinism",
            not differing,
            "bit-identical results across passes"
            if not differing
            else "passes differ in " + ", ".join(differing),
        )
        for name, value in report.reference_estimates.items():
            drift_allowed = "drift" in kinds
            deviation = max(
                abs(estimates.get(name, float("nan")) - value)
                for estimates in report.pass_estimates
            )
            tolerance = 1e-2 if drift_allowed else _REFERENCE_TOLERANCE
            report.check(
                f"reference agreement {name}",
                deviation <= tolerance,
                f"max |pass - serial reference| = {deviation:.3e}",
            )

        report.check(
            "faults injected",
            bool(report.injected),
            ", ".join(sorted(report.injected)) or "no fault ever fired",
        )
        report.check(
            "faults recovered",
            bool(report.recovered),
            ", ".join(sorted(report.recovered)) or "no recovery counter moved",
        )
    finally:
        if saved_env is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = saved_env
        reset_injector_cache()
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def _run_pass(
    circuit,
    noise_model,
    properties,
    trajectories: int,
    seed: int,
    store_dir: str,
    workers: int,
    chunk_size: int,
    chunk_timeout: float,
    job_timeout: float,
) -> Tuple[StochasticResult, Dict[str, Dict[str, object]]]:
    """One scheduler pass under the active plan; returns (result, metrics)."""
    from ..service.job import JobSpec
    from ..service.scheduler import Scheduler
    from ..service.store import ResultStore

    spec = JobSpec(
        circuit=circuit,
        noise_model=noise_model,
        properties=properties,
        trajectories=trajectories,
        seed=seed,
        backend_kind="dd",
        sample_shots=0,
    )
    # A fresh ResultStore per pass: pass 2 must reach the bytes pass 1 left
    # on disk (possibly corrupted by store faults) through a cold cache.
    store = ResultStore(directory=store_dir)
    with Scheduler(
        workers=workers,
        store=store,
        chunk_size=chunk_size,
        max_retries=3,
        chunk_timeout=chunk_timeout,
    ) as scheduler:
        result = scheduler.run(spec, timeout=job_timeout)
        snapshot = scheduler.metrics_snapshot()
    return result, snapshot


# --------------------------------------------------------------------------
# Restart/resume scenario: SIGKILL a live serve process, resume, compare.
# --------------------------------------------------------------------------

#: Subprocess body for one ``serve`` run (argv: store_dir workers chunk
#: events_log resume).  A real child process — not a thread — so SIGKILL
#: genuinely tears the journal/event log mid-write like production death.
_SERVE_SNIPPET = """\
import sys
from repro.service.serve import serve
from repro.service.store import ResultStore

store_dir, workers, chunk, events, resume = sys.argv[1:6]
serve(
    ResultStore(directory=store_dir),
    workers=int(workers),
    once=True,
    poll_interval=0.05,
    chunk_size=int(chunk),
    events_log=events or None,
    resume=resume == "1",
    heartbeat_interval=0.2,
    install_signal_handlers=True,
)
"""


def _serve_subprocess_env(plan_json: Optional[str] = None) -> Dict[str, str]:
    """Child env: inherit, force ``repro`` importable, explicit fault plan."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env.pop(PLAN_ENV, None)
    if plan_json is not None:
        env[PLAN_ENV] = plan_json
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


def _spawn_serve(
    store_dir: str,
    workers: int,
    chunk_size: int,
    events_log: str,
    resume: bool,
    plan_json: Optional[str] = None,
) -> "subprocess.Popen[bytes]":
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            _SERVE_SNIPPET,
            store_dir,
            str(workers),
            str(chunk_size),
            events_log,
            "1" if resume else "0",
        ],
        env=_serve_subprocess_env(plan_json),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # Own process group: SIGKILL-ing the group takes the daemonic
        # worker children down too (orphaned workers would otherwise
        # linger on a blocking queue read after their parent dies).
        start_new_session=True,
    )


def _kill_serve_group(proc: "subprocess.Popen[bytes]") -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (OSError, ProcessLookupError):
        proc.kill()


def _enqueue_kill_serve_job(
    store_dir: str,
    trajectories: int,
    num_qubits: int,
    seed: int,
):
    """Spool the scenario's job into ``store_dir``; returns (key, spec)."""
    from ..service.job import JobSpec
    from ..service.serve import enqueue_job
    from ..service.store import ResultStore

    spec = JobSpec(
        circuit=ghz(num_qubits),
        noise_model=NoiseModel.paper_defaults(),
        properties=(IdealFidelity(),),
        trajectories=trajectories,
        seed=seed,
        backend_kind="dd",
        sample_shots=0,
    )
    key, _ = enqueue_job(ResultStore(directory=store_dir), spec)
    return key, spec


def run_kill_serve(
    seed: int = 0,
    trajectories: int = 240,
    num_qubits: int = 3,
    workers: int = 2,
    chunk_size: int = 4,
    work_dir: Optional[str] = None,
    serve_timeout: float = 180.0,
    kill_after_chunks: int = 1,
    slow_chunk_seconds: float = 0.02,
) -> ChaosReport:
    """The ``repro chaos --kill-serve`` restart/resume scenario.

    Protocol (docs/ROBUSTNESS.md, "Durability & restart semantics"):

    1. compute a fault-free **serial reference** in-process;
    2. **pass A** — run the job through an uninterrupted ``repro serve
       --once`` subprocess (the fault-free *service* reference, which a
       resumed run must reproduce);
    3. **pass B** — start a fresh serve subprocess on its own store, poll
       the write-ahead journal until at least ``kill_after_chunks``
       chunk-done records are durable, then **SIGKILL the process group**
       (no handlers, no atexit — production death);
    4. restart with ``serve --once --resume`` and let it finish;
    5. assert the pass B result is **bit-identical** to pass A in every
       field the spec determines, both agree with the serial reference
       (``_REFERENCE_TOLERANCE``), the torn event log is still readable,
       and the journal holds no incomplete jobs afterwards.

    When ``work_dir`` is given, stores / journals / event logs are written
    (and kept) there — CI uploads them as artifacts on failure.  Otherwise
    a temporary scratch directory is used and removed.

    ``slow_chunk_seconds`` ships a uniform ``slow-chunk`` fault plan to
    *every* serve subprocess (pass A, pass B, and the resume — identical
    everywhere): the sleep widens the window between the first durable
    chunk-done and job completion so the SIGKILL reliably lands mid-job,
    without perturbing any computed value.
    """
    from ..service.store import ResultStore

    report = ChaosReport(
        seed=seed, kinds=("kill-serve",), trajectories=trajectories
    )
    plan_json: Optional[str] = None
    if slow_chunk_seconds > 0.0:
        from .plan import FaultSpec

        plan_json = FaultPlan(
            faults=(
                FaultSpec(
                    kind="slow-chunk",
                    seconds=slow_chunk_seconds,
                    times=1_000_000,
                ),
            ),
            seed=seed,
        ).to_json()
    own_scratch = work_dir is None
    scratch = work_dir or tempfile.mkdtemp(prefix="repro-kill-serve-")
    os.makedirs(scratch, exist_ok=True)
    saved_env = os.environ.get(PLAN_ENV)
    proc: Optional["subprocess.Popen[bytes]"] = None
    try:
        os.environ.pop(PLAN_ENV, None)
        reset_injector_cache()

        circuit = ghz(num_qubits)
        reference = simulate_stochastic(
            circuit,
            noise_model=NoiseModel.paper_defaults(),
            properties=(IdealFidelity(),),
            trajectories=trajectories,
            backend="dd",
            workers=1,
            seed=seed,
            sample_shots=0,
        )
        report.reference_estimates = _estimates_of(reference)

        # -- pass A: uninterrupted serve ---------------------------------
        store_a = os.path.join(scratch, "store-a")
        events_a = os.path.join(scratch, "events-a.jsonl")
        key, _spec = _enqueue_kill_serve_job(
            store_a, trajectories, num_qubits, seed
        )
        proc = _spawn_serve(
            store_a, workers, chunk_size, events_a,
            resume=False, plan_json=plan_json,
        )
        try:
            returncode = proc.wait(timeout=serve_timeout)
        except subprocess.TimeoutExpired:
            _kill_serve_group(proc)
            proc.wait()
            returncode = None
        report.check(
            "pass A serve exit",
            returncode == 0,
            f"uninterrupted serve exited {returncode}",
        )
        result_a = ResultStore(directory=store_a).get(key)
        report.check(
            "pass A completion",
            result_a is not None
            and result_a.completed_trajectories == trajectories,
            "no stored result"
            if result_a is None
            else f"{result_a.completed_trajectories}/{trajectories} trajectories",
        )
        if result_a is not None:
            report.pass_estimates.append(_estimates_of(result_a))

        # -- pass B: serve, SIGKILL mid-job, resume ----------------------
        store_b = os.path.join(scratch, "store-b")
        events_b = os.path.join(scratch, "events-b.jsonl")
        _enqueue_kill_serve_job(store_b, trajectories, num_qubits, seed)
        from ..service.journal import journal_path, replay_journal

        wal = journal_path(store_b)
        proc = _spawn_serve(
            store_b, workers, chunk_size, events_b,
            resume=False, plan_json=plan_json,
        )
        deadline = time.monotonic() + serve_timeout
        committed = 0
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                with open(wal, "rb") as handle:
                    committed = handle.read().count(b'"chunk-done"')
            except OSError:
                committed = 0
            if committed >= kill_after_chunks:
                break
            time.sleep(0.002)
        killed_live = proc.poll() is None
        _kill_serve_group(proc)
        returncode = proc.wait()
        report.injected["faults.injected.kill-serve"] = 1
        report.check(
            "serve killed mid-job",
            killed_live
            and committed >= kill_after_chunks
            and returncode == -signal.SIGKILL,
            f"SIGKILL after {committed} durable chunk-done record(s), "
            f"returncode {returncode}"
            if killed_live
            else f"serve exited (rc={returncode}) before the kill landed — "
            f"job too small to interrupt",
        )
        interrupted = ResultStore(directory=store_b).get(key)
        report.check(
            "no final result at kill",
            interrupted is None,
            "store has no final entry — the job died mid-flight"
            if interrupted is None
            else "job finished before the kill; nothing was interrupted",
        )

        # -- resume pass -------------------------------------------------
        proc = _spawn_serve(
            store_b, workers, chunk_size, events_b,
            resume=True, plan_json=plan_json,
        )
        try:
            returncode = proc.wait(timeout=serve_timeout)
        except subprocess.TimeoutExpired:
            _kill_serve_group(proc)
            proc.wait()
            returncode = None
        report.check(
            "resume serve exit",
            returncode == 0,
            f"serve --resume exited {returncode}",
        )
        result_b = ResultStore(directory=store_b).get(key)
        report.check(
            "resume completion",
            result_b is not None
            and result_b.completed_trajectories == trajectories,
            "no stored result after resume"
            if result_b is None
            else f"{result_b.completed_trajectories}/{trajectories} trajectories",
        )
        if result_b is not None:
            report.pass_estimates.append(_estimates_of(result_b))
            report.recovered["faults.recovered.kill-serve"] = 1

        # -- verdicts ----------------------------------------------------
        if result_a is not None and result_b is not None:
            differing = _differing_fields(result_a, result_b)
            report.check(
                "resume bit-identity",
                not differing,
                "resumed result bit-identical to the uninterrupted run"
                if not differing
                else "resumed result differs in " + ", ".join(differing),
            )
            for name, value in report.reference_estimates.items():
                deviation = max(
                    abs(estimates.get(name, float("nan")) - value)
                    for estimates in report.pass_estimates
                )
                report.check(
                    f"reference agreement {name}",
                    deviation <= _REFERENCE_TOLERANCE,
                    f"max |pass - serial reference| = {deviation:.3e}",
                )

        from ..obs.export import read_event_log

        events = read_event_log(events_b)
        report.check(
            "event log readable post-crash",
            len(events) > 0,
            f"{len(events)} events parsed from the crash-torn log",
        )
        leftover = [
            job for job in replay_journal(wal).values() if not job.done
        ]
        report.check(
            "journal settled after resume",
            not leftover,
            "no incomplete jobs remain in the journal"
            if not leftover
            else f"{len(leftover)} job(s) still incomplete",
        )
    finally:
        if proc is not None and proc.poll() is None:
            _kill_serve_group(proc)
            proc.wait()
        if saved_env is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = saved_env
        reset_injector_cache()
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    return report
