"""Span recorder for the traced pass of the end-to-end benchmark.

The tracer measures every layer from outside: :func:`install` replaces the
public callables of the ``repro`` modules listed in :data:`TARGETS` with
wrappers that time each call.  It runs in the benchmark process *before*
the :class:`~repro.service.Scheduler` forks its workers, so the workers
inherit the wrappers.  Module-level functions are patched under every name
a ``repro`` module bound them to (``repro.stochastic.runner.execute_plan``
as well as ``repro.simulators.base.execute_plan``), methods on their class.

Each call adds its duration to a per-thread, per-name tally of
``[count, total seconds, self seconds]``; self time is the duration minus
the time covered by child spans.  Only the coarse spans named in
:data:`KEPT` are also kept individually as ``(name, start, end, parent,
trace_id, thread)`` tuples, where ``trace_id`` is ``job_key[:16]`` and
times come from ``time.monotonic`` (system-wide on Linux, so worker and
client stamps compare).  Keeping every ``dd.multiply`` span would cost
hundreds of megabytes per job.

Worker processes append their tallies to ``spans-<pid>.jsonl`` in the run
directory whenever their call stack empties, i.e. once per chunk; the
benchmark process writes its own file when :meth:`Recorder.flush` is
called after the pass.  :func:`merge` folds all files.  Self times add
up to root-span time by construction, so that says nothing about how much
of a process the wrappers see; :meth:`Merged.coverage_errors` instead
checks, per worker, that the wrapped layers below ``run_trajectory_span``
account for at least :data:`MIN_WORKER_COVERAGE` of its chunk time.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (span name, module, attribute) for every wrapped callable.  Several
#: callables may share one span name; the tallies then add up.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("service.submit", "repro.service.scheduler", "Scheduler.submit"),
    ("service.result", "repro.service.scheduler", "Scheduler.result"),
    ("journal.append", "repro.service.journal", "JobJournal.job_submitted"),
    ("journal.append", "repro.service.journal", "JobJournal.plan_recorded"),
    ("journal.append", "repro.service.journal", "JobJournal.lease_granted"),
    ("journal.append", "repro.service.journal", "JobJournal.chunk_done"),
    ("journal.append", "repro.service.journal", "JobJournal.job_done"),
    ("store.get", "repro.service.store", "ResultStore.get"),
    ("store.get", "repro.service.store", "ResultStore.get_partial"),
    ("store.put", "repro.service.store", "ResultStore.put"),
    ("store.put_partial", "repro.service.store", "ResultStore.put_partial"),
    ("ledger.record", "repro.obs.ledger", "RunLedger.record_run"),
    ("ledger.record", "repro.obs.ledger", "RunLedger.record_fallback"),
    ("ledger.aggregates", "repro.obs.ledger", "RunLedger.aggregates"),
    ("obs.snapshot_merge", "repro.obs.metrics", "merge_snapshots"),
    ("obs.snapshot_merge", "repro.obs.metrics", "delta_snapshots"),
    ("results.merge", "repro.stochastic.results", "StochasticResult.merge"),
    ("circuits.job_key", "repro.service.job", "JobSpec.job_key"),
    ("dispatch.decide", "repro.exact.cost", "estimate_costs"),
    ("dispatch.decide", "repro.exact.cost", "exact_unsupported_reason"),
    ("exact.run", "repro.exact.simulator", "ExactSimulator.run"),
    ("stochastic.span", "repro.stochastic.runner", "run_trajectory_span"),
    ("stochastic.compile", "repro.simulators.gateplan", "compile_plan"),
    ("stochastic.compile", "repro.stochastic.prefix", "compile_prefix_plan"),
    ("stochastic.compile", "repro.stochastic.strata", "StrataPlan.__init__"),
    ("strata.search", "repro.stochastic.strata", "StrataPlan.find_erring_seed"),
    ("prefix.consume", "repro.stochastic.prefix", "PrefixPlan.consume_prefix"),
    ("property.eval", "repro.stochastic.prefix", "PrefixPlan.property_values"),
    ("property.eval", "repro.stochastic.properties", "BasisProbability.evaluate"),
    ("property.eval", "repro.stochastic.properties", "StateFidelity.evaluate"),
    ("property.eval", "repro.stochastic.properties", "IdealFidelity.evaluate"),
    ("property.eval", "repro.stochastic.properties", "ExpectationZ.evaluate"),
    ("property.eval", "repro.stochastic.properties", "PauliExpectation.evaluate"),
    ("property.eval", "repro.stochastic.properties", "ClassicalOutcome.evaluate"),
    ("noise.damping_p1", "repro.simulators.ddsim", "DDBackend.probability_of_one"),
    ("simulators.replay", "repro.simulators.base", "execute_plan"),
    ("simulators.measure", "repro.simulators.ddsim", "DDBackend.measure"),
    ("simulators.sample", "repro.dd.package", "DDPackage.sample_counts"),
    ("dd.multiply", "repro.dd.package", "DDPackage.multiply"),
    ("dd.inner_product", "repro.dd.package", "DDPackage.inner_product"),
    ("dd.gc", "repro.dd.package", "DDPackage.garbage_collect"),
    ("dd.node_count", "repro.dd.package", "DDPackage.node_count"),
)

#: Spans kept individually (one per chunk or per exact job, so cheap).
KEPT = frozenset({"stochastic.span", "exact.run"})

#: Least share of each worker's chunk time (its ``run_trajectory_span``
#: calls) that the wrapped layers below it must account for.  The rest is
#: the runner's own code plus anything the tracer does not wrap.
MIN_WORKER_COVERAGE = 0.9


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "thread")

    def __init__(self) -> None:
        #: Open frames, each ``[child seconds, name]``.
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.thread = threading.get_ident()


class Recorder:
    """Per-process span tallies, written to ``spans-<pid>.jsonl`` files."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _after_fork(self) -> None:
        """A forked worker starts with empty tallies (the parent keeps its own)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in KEPT
        clock = time.monotonic
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = state.totals.get(name)
                if entry is None:
                    entry = state.totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if keep:
                    # run_trajectory_span gets the chunk's TraceContext.
                    context = kwargs.get("trace")
                    state.spans.append(
                        (name, start, end, parent,
                         None if context is None else context.trace_id, state.thread)
                    )
                if not stack and os.getpid() != recorder.pid:
                    recorder.flush()

        return traced

    def flush(self) -> None:
        """Append this process's tallies since the last flush, then reset."""
        with self._lock:
            states = list(self._states)
        totals: Dict[str, List[float]] = {}
        spans: List[tuple] = []
        for state in states:
            if state.stack:
                continue  # still inside a root span; it flushes when done
            for name, (count, total, own) in state.totals.items():
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
            spans.extend(state.spans)
            state.totals = {}
            state.spans = []
        if not totals:
            return
        line = json.dumps({"pid": os.getpid(), "totals": totals, "spans": spans})
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    # -- patching -------------------------------------------------------

    def patch(self) -> None:
        """Wrap every target."""
        wrappers: Dict[int, Callable] = {}
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                self._patch(owner, member, original, self.wrap(name, original))
                continue
            original = getattr(module, member)
            wrapper = wrappers.setdefault(id(original), self.wrap(name, original))
            # Patch the function under every name a repro module bound it to.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for bound_name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, bound_name, original, wrapper)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def install(directory: str) -> Recorder:
    """Create the process's recorder and wrap every target."""
    os.makedirs(directory, exist_ok=True)
    recorder = Recorder(directory)
    recorder.patch()
    return recorder


def uninstall(recorder: Recorder) -> None:
    """Write the benchmark process's tallies and restore the originals."""
    recorder.flush()
    recorder.restore()


class Merged:
    """All processes' tallies and kept spans from one traced pass."""

    def __init__(self, main_pid: int) -> None:
        self.main_pid = main_pid
        #: name -> [count, total seconds, self seconds], all processes.
        self.totals: Dict[str, List[float]] = {}
        #: pid -> name -> same, one process.
        self.by_pid: Dict[int, Dict[str, List[float]]] = {}
        self.spans: List[tuple] = []

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def count(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def worker_total_s(self, name: str) -> float:
        return sum(
            totals.get(name, (0, 0.0, 0.0))[1]
            for pid, totals in self.by_pid.items()
            if pid != self.main_pid
        )

    def worker_coverage(self) -> Dict[int, float]:
        """Per worker pid, the share of its chunk time spent in wrapped
        layers below ``run_trajectory_span`` (1 - the span's self share)."""
        coverage = {}
        for pid, totals in sorted(self.by_pid.items()):
            _, total, own = totals.get("stochastic.span", (0, 0.0, 0.0))
            if pid != self.main_pid and total > 0.0:
                coverage[pid] = 1.0 - own / total
        return coverage

    def coverage_errors(self) -> List[str]:
        """Workers whose wrapped layers cover too little of their chunk time."""
        return [
            f"pid {pid}: wrapped layers cover {share:.1%} of chunk time "
            f"(< {MIN_WORKER_COVERAGE:.0%})"
            for pid, share in self.worker_coverage().items()
            if share < MIN_WORKER_COVERAGE
        ]


def merge(directory: str, main_pid: int) -> Merged:
    """Fold every ``spans-*.jsonl`` file in ``directory``."""
    merged = Merged(main_pid)
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                pid = int(record["pid"])
                process = merged.by_pid.setdefault(pid, {})
                for name, (count, total, own) in record["totals"].items():
                    for table in (process, merged.totals):
                        entry = table.setdefault(name, [0, 0.0, 0.0])
                        entry[0] += count
                        entry[1] += total
                        entry[2] += own
                merged.spans.extend(
                    tuple(span) + (pid,) for span in record["spans"]
                )
    return merged
