"""Persistent worker processes for the simulation scheduler.

Each worker is a long-lived process running :func:`worker_main`: it blocks
on its private task queue, executes one chunk of trajectories at a time,
and pushes the chunk's :class:`StochasticResult` onto its private result
queue.  Between chunks of the *same job* the worker keeps its decision-
diagram backend (unique/compute tables stay populated) and its evaluation
context (the cached noiseless-reference snapshot) warm — the overhead the
old per-call ``ProcessPoolExecutor`` paid on every invocation.

Workers are crash-isolated: the scheduler detects a dead worker, respawns
it with a fresh queue, and requeues the chunk it was holding; a worker
waiting for a chunk exits once its scheduler's process has died.

Fault injection
---------------
Deterministic fault injection is driven by a :class:`~repro.faults.FaultPlan`
shipped through the ``REPRO_FAULT_PLAN`` environment variable (see
:mod:`repro.faults` and docs/ROBUSTNESS.md).  The worker consults the
plan at five sites: ``crash-before`` (die hard before executing the
chunk), ``crash-mid-chunk`` (execute part of the chunk, then die),
``hang`` (sleep past the scheduler's chunk timeout so the reaper fires),
``slow-chunk`` (added latency without death), and ``corrupt-outcome``
(tamper with the reported result so the scheduler's outcome validation
must catch it).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..faults.inject import FaultInjector, get_injector
from ..noise.model import NoiseModel
from ..obs.context import TraceContext
from ..stochastic.properties import PropertySpec
from ..stochastic.results import StochasticResult
from ..stochastic.runner import _EvaluationContext, _make_backend, run_trajectory_span

__all__ = ["ChunkTask", "ChunkOutcome", "worker_main"]

#: Warm (backend, context) pairs kept per worker, LRU-evicted beyond this.
_WARM_CACHE_LIMIT = 4

#: Default sleep for a ``hang`` fault with no ``seconds`` — far beyond any
#: sane chunk timeout, so the scheduler's reaper is what ends the hang.
_DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class ChunkTask:
    """One shard of a job's trajectory range, shipped to a worker."""

    job_key: str
    chunk_index: int
    circuit: QuantumCircuit
    noise_model: NoiseModel
    properties: Tuple[PropertySpec, ...]
    backend_kind: str
    first_trajectory: int
    num_trajectories: int
    master_seed: int
    sample_shots: int
    #: Absolute ``time.monotonic()`` instant shared by every chunk of the
    #: job — one wall-clock budget for the whole job, not per chunk.  The
    #: monotonic clock is system-wide on Linux, so the instant the
    #: scheduler stamps is meaningful inside forked workers.
    deadline: Optional[float]
    #: Span context stamped per dispatch by the scheduler (retries get a
    #: fresh one carrying the attempt number); observational only — it
    #: never participates in the content-addressed job key.
    trace: Optional[TraceContext] = None
    #: Fencing token stamped per dispatch (None until dispatched) and
    #: echoed in the outcome.  The scheduler commits an outcome only with
    #: the token of the chunk's latest dispatch by the same job run, so a
    #: report from a cancelled earlier run of the key never commits.
    fencing_token: Optional[int] = None


@dataclass(frozen=True)
class ChunkOutcome:
    """A worker's report for one chunk (result or error, never both)."""

    worker_id: int
    job_key: str
    chunk_index: int
    first_trajectory: int
    num_trajectories: int
    result: Optional[StochasticResult]
    error: Optional[str]
    #: Echo of :attr:`ChunkTask.fencing_token`.
    fencing_token: Optional[int] = None


def _site_attrs(worker_id: int, task: ChunkTask) -> dict:
    return {
        "job_key": task.job_key,
        "worker_id": worker_id,
        "chunk_index": task.chunk_index,
    }


def _pre_execution_faults(
    injector: Optional[FaultInjector], worker_id: int, task: ChunkTask
) -> bool:
    """Apply faults that strike before the chunk runs.

    Returns True when a ``crash-mid-chunk`` fault is armed for this task
    (the caller executes part of the chunk, then dies).
    """
    if injector is None:
        return False
    attrs = _site_attrs(worker_id, task)
    if injector.fire("crash-before", **attrs):
        os._exit(1)
    slow = injector.fire("slow-chunk", **attrs)
    if slow is not None:
        time.sleep(slow.seconds or 0.05)
    hang = injector.fire("hang", **attrs)
    if hang is not None:
        # Sleep in small slices so a terminate() lands promptly.
        deadline = time.monotonic() + (hang.seconds or _DEFAULT_HANG_SECONDS)
        while time.monotonic() < deadline:
            time.sleep(0.05)
    return injector.fire("crash-mid-chunk", **attrs) is not None


def _corrupt_outcome_fault(
    injector: Optional[FaultInjector],
    worker_id: int,
    task: ChunkTask,
    result: StochasticResult,
) -> StochasticResult:
    """Tamper with a finished chunk's result if a corrupt-outcome fault fires.

    The corruption (a completed-trajectory count exceeding the chunk's
    budget) is exactly the class of inconsistency the scheduler's outcome
    validation rejects, forcing a clean re-execution.
    """
    if injector is None:
        return result
    if injector.fire("corrupt-outcome", **_site_attrs(worker_id, task)):
        corrupted = result.copy()
        corrupted.completed_trajectories = task.num_trajectories + 1
        return corrupted
    return result


def worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker process entry point: loop on tasks until the None sentinel, or
    until the parent's sentinel (:func:`multiprocessing.parent_process`)
    reports that the process that started this worker has died."""
    # A forked worker inherits its parent's handlers; serve's SIGTERM drain
    # handler would make ``Process.terminate()`` a no-op.  SIGINT keeps the
    # parent's disposition, so a terminal Ctrl-C lets serve drain chunks.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    injector = get_injector()
    warm: "OrderedDict[Tuple[str, str], tuple]" = OrderedDict()
    parent_sentinel = multiprocessing.parent_process().sentinel
    while True:
        ready = multiprocessing.connection.wait([task_queue._reader, parent_sentinel])
        if parent_sentinel in ready:
            break
        task = task_queue.get()
        if task is None:
            break
        crash_mid = _pre_execution_faults(injector, worker_id, task)
        try:
            # Keyed by engine too: a resume may ship one job's remaining
            # chunks on the engine its restored trajectories ran on, which
            # need not be the engine of the chunks this worker ran before.
            warm_key = (task.job_key, task.backend_kind)
            entry = warm.get(warm_key)
            if entry is None:
                # The context carries the job's compiled gate plan and
                # prefix-sharing plan (plus the ideal-state snapshot), so
                # chunks after the first skip compilation entirely — the
                # prefix engine rides the warm cache with no extra plumbing,
                # as does an auto chunk's engine choice and dense context.
                backend = _make_backend(task.backend_kind, task.circuit.num_qubits)
                context = _EvaluationContext(task.circuit, task.backend_kind)
                warm[warm_key] = (backend, context)
                while len(warm) > _WARM_CACHE_LIMIT:
                    warm.popitem(last=False)
            else:
                backend, context = entry
                warm.move_to_end(warm_key)
            if crash_mid:
                # Burn part of the chunk so the death is mid-execution,
                # then die hard without reporting; the partial work is
                # discarded and the scheduler re-executes the whole chunk
                # (determinism: per-trajectory seeds make the retry
                # reproduce identical values).
                run_trajectory_span(
                    task.circuit,
                    task.noise_model,
                    task.properties,
                    task.backend_kind,
                    task.first_trajectory,
                    max(1, task.num_trajectories // 2),
                    task.master_seed,
                    sample_shots=task.sample_shots,
                    deadline=task.deadline,
                    backend=backend,
                    context=context,
                )
                os._exit(1)
            result = run_trajectory_span(
                task.circuit,
                task.noise_model,
                task.properties,
                task.backend_kind,
                task.first_trajectory,
                task.num_trajectories,
                task.master_seed,
                sample_shots=task.sample_shots,
                deadline=task.deadline,
                backend=backend,
                context=context,
                trace=task.trace,
            )
            result = _corrupt_outcome_fault(injector, worker_id, task, result)
            outcome = ChunkOutcome(
                worker_id, task.job_key, task.chunk_index,
                task.first_trajectory, task.num_trajectories, result, None,
                fencing_token=task.fencing_token,
            )
        except Exception as exc:  # report, don't kill the worker
            outcome = ChunkOutcome(
                worker_id, task.job_key, task.chunk_index,
                task.first_trajectory, task.num_trajectories, None,
                f"{type(exc).__name__}: {exc}",
                fencing_token=task.fencing_token,
            )
        result_queue.put(outcome)
