"""The Monte-Carlo engine: repeated noisy trajectories, optionally concurrent.

This module implements the paper's two key ideas (Section IV-A):

1. each *individual* simulation run executes on a decision-diagram backend
   (or, for baseline comparison and DD-hostile ``auto`` jobs, the dense
   state-vector backend), and
2. *independent* runs are distributed across worker processes — concurrency
   across runs rather than within the matrix-vector multiplication
   (Section IV-C).  Python processes are used because DD manipulation is
   CPU-bound and the GIL prevents thread-level speed-up, mirroring the
   paper's observation that decision diagrams "can hardly exploit
   concurrency" internally.

Entry points: :func:`simulate_stochastic` (one call) or
:class:`StochasticSimulator` (reusable, keeps a warm DD package between
calls).  Every trajectory gets an independent deterministic RNG derived
from the master seed, so results are reproducible for any worker count —
trajectory ``i`` uses the same seed whether it runs serially or on worker 3.
"""

from __future__ import annotations

import functools
import os
import random
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.operations import MeasureOperation
from ..errors import NumericalDriftError
from ..faults.inject import get_injector
from ..noise.model import NoiseModel
from ..noise.stochastic import StochasticErrorApplier
from ..obs import profile as _profile
from ..obs.context import TraceContext, job_trace_context
from ..obs.metrics import MetricsRegistry, TIME_BUCKETS, delta_snapshots, merge_snapshots
from ..simulators.base import execute_circuit, execute_plan
from ..simulators.ddsim import DDBackend
from ..simulators.gateplan import compile_plan
from ..simulators.statevector import StatevectorBackend
from .prefix import compile_prefix_plan
from .properties import (
    IdealFidelity,
    PropertySpec,
    StateFidelity,
    require_unique_names,
)
from .results import PropertyEstimate, StochasticResult, tally
from .strata import StrataPlan, trajectory_mode

__all__ = [
    "StochasticSimulator",
    "simulate_stochastic",
    "run_trajectory_span",
    "choose_engine",
    "dense_threshold",
    "BACKEND_KINDS",
    "AUTO_ENGINE",
    "NORM_GUARD_ENV",
]

BACKEND_KINDS = ("dd", "statevector")

#: Span ``backend_kind`` that delegates the engine choice to the compile
#: step (what the scheduler ships for ``method="auto"`` DD jobs): the span
#: runs the ideal DD execution the prefix plan needs anyway, stopping it
#: once the DD reaches :func:`dense_threshold`, then keeps its trajectories
#: on ``"dd"`` or moves them to ``"statevector"`` per :func:`choose_engine`.
#: Results always name the engine that ran.
AUTO_ENGINE = "auto"


def dense_threshold(num_qubits: int) -> int:
    """State-DD nodes at which an ``auto`` span goes dense: 2^(n-1).

    A fully dense n-qubit state DD has 2^n - 1 nodes; once the noiseless
    run reaches half of that, the DD has no redundancy left to exploit and
    already outweighs the 2^n x 16-byte array.
    """
    return 2 ** (num_qubits - 1)


def choose_engine(ideal_peak_nodes: int, num_qubits: int) -> str:
    """Trajectory engine for an ``auto`` span, from its ideal run's DD peak.

    At :func:`dense_threshold` nodes or more the dense state-vector engine
    takes the trajectories.  The ideal run stops at that same threshold,
    so ``ideal_peak_nodes`` is either the whole run's peak (below it) or a
    censored lower bound (at or above it); the peak only grows during the
    run, so the choice is the one the whole run's peak would give.
    """
    return "statevector" if ideal_peak_nodes >= dense_threshold(num_qubits) else "dd"

#: Stride between per-trajectory seeds; any constant works, a large odd
#: value keeps derived seeds far apart in the Mersenne sequence space.
_SEED_STRIDE = 0x9E3779B97F4A7C15

#: Salt decoupling the clean-stratum outcome-sampling rng from the erring
#: trajectory's own rng under stratified sampling (splitmix64's mixer
#: constant; any fixed value distinct from the seed strides works).
_CLEAN_SAMPLE_SALT = 0x94D049BB133111EB

#: Environment override for the numerical guard: ``raise`` (default),
#: ``renorm`` (rescale and count ``faults.recovered.renorm``), or ``off``;
#: an optional ``:<tolerance>`` suffix overrides the drift tolerance, e.g.
#: ``REPRO_NORM_GUARD=renorm:1e-9``.  The environment is the only channel
#: that reaches forked worker processes without touching the job spec (and
#: thus the content-addressed job key).
NORM_GUARD_ENV = "REPRO_NORM_GUARD"

#: Allowed |norm² − 1| before the guard treats the state as drifted.  The
#: DD package's sum-of-squares normalisation keeps healthy states at 1.0
#: to within a few ulp, so anything past this is a real defect.
_DEFAULT_NORM_TOLERANCE = 1e-8

_NORM_GUARD_ACTIONS = ("raise", "renorm", "off")


def _resolve_norm_guard(
    on_drift: Optional[str], norm_tolerance: Optional[float]
) -> Tuple[str, float]:
    """Resolve guard (action, tolerance): explicit args beat the env beats
    defaults."""
    env_action: Optional[str] = None
    env_tolerance: Optional[float] = None
    raw = os.environ.get(NORM_GUARD_ENV, "").strip()
    if raw:
        head, _, tail = raw.partition(":")
        if head in _NORM_GUARD_ACTIONS:
            env_action = head
        if tail:
            try:
                env_tolerance = float(tail)
            except ValueError:
                pass
    action = on_drift if on_drift is not None else (env_action or "raise")
    if action not in _NORM_GUARD_ACTIONS:
        raise ValueError(
            f"unknown on_drift action {action!r}; choose from {_NORM_GUARD_ACTIONS}"
        )
    tolerance = norm_tolerance
    if tolerance is None:
        tolerance = env_tolerance if env_tolerance is not None else _DEFAULT_NORM_TOLERANCE
    return action, tolerance


class _EvaluationContext:
    """Per-worker cache of reference-state handles for property evaluation.

    An :data:`AUTO_ENGINE` context caches DD state like a ``"dd"`` one (its
    plans come from the ideal DD run) plus, once that run picks the dense
    engine, the ``"statevector"`` context the trajectories evaluate in.  Its
    prefix plan stops at :func:`dense_threshold`; a stopped plan is cached
    like a whole one, so warm chunks choose without running the DD again.
    """

    def __init__(self, circuit: QuantumCircuit, backend_kind: str) -> None:
        self.circuit = circuit
        self.backend_kind = backend_kind
        self._ideal = None
        self._targets: Dict[str, object] = {}
        self._gate_plan = None
        self._prefix_plan = None
        self._prefix_model: Optional[NoiseModel] = None
        self._strata_plan: Optional[StrataPlan] = None
        self._dense: Optional[_EvaluationContext] = None

    def dense(self) -> "_EvaluationContext":
        """The statevector context an auto job's dense trajectories use
        (built once, so warm chunks keep its gate plan and ideal vector)."""
        if self._dense is None:
            self._dense = _EvaluationContext(self.circuit, "statevector")
        return self._dense

    def gate_plan(self, backend):
        """The circuit compiled into a :class:`~repro.simulators.gateplan.GatePlan`
        (once per worker; gate DDs resolved against the warm package).  An
        :data:`AUTO_ENGINE` plan starts unresolved: the engine-choosing run
        resolves the steps it reaches, and the span resolves the rest only
        if it stays on DD."""
        if self._gate_plan is None:
            self._gate_plan = compile_plan(
                self.circuit,
                package=getattr(backend, "package", None),
                resolve=self.backend_kind != AUTO_ENGINE,
            )
        return self._gate_plan

    def prefix_plan(self, backend, noise_model: NoiseModel):
        """The prefix-sharing plan for (circuit, noise model), compiled once
        per worker via one instrumented ideal execution (stopped at the
        dense threshold on an :data:`AUTO_ENGINE` context)."""
        if self._prefix_plan is None or self._prefix_model != noise_model:
            stop_nodes = None
            if self.backend_kind == AUTO_ENGINE:
                stop_nodes = dense_threshold(self.circuit.num_qubits)
            self._prefix_plan = compile_prefix_plan(
                backend, self.gate_plan(backend), noise_model, stop_nodes
            )
            self._prefix_model = noise_model
            if self._ideal is None and self._prefix_plan.ideal_final is not None:
                # The plan's pinned ideal edge *is* the reference state the
                # IdealFidelity property wants — identical hash-consed edge,
                # so reusing it is bit-identical to a separate execution.
                self._ideal = backend.package.inc_ref(self._prefix_plan.ideal_final)
        return self._prefix_plan

    def strata_plan(self, prefix_plan) -> StrataPlan:
        """Closed-form stratum weights for the cached prefix plan (computed
        once per worker; invalidated with the prefix plan it wraps)."""
        if self._strata_plan is None or self._strata_plan.prefix_plan is not prefix_plan:
            self._strata_plan = StrataPlan(prefix_plan)
        return self._strata_plan

    def ideal_handle(self, backend):
        """Noiseless output state of the circuit (computed once per worker)."""
        if self._ideal is None:
            if any(isinstance(op, MeasureOperation) for op in self.circuit):
                raise ValueError(
                    "IdealFidelity is undefined for circuits with measurements"
                )
            reference = _make_backend(
                self.backend_kind,
                self.circuit.num_qubits,
                package=getattr(backend, "package", None),
            )
            execute_circuit(reference, self.circuit, random.Random(0))
            self._ideal = reference.snapshot()
        return self._ideal

    def target_handle(self, spec: StateFidelity, backend):
        """Backend-native handle for an explicit target state.

        Keyed by the property *name* (the same key the result estimates
        use), so a context that outlives one chunk — the warm worker pool
        re-pickles the specs per chunk — still hits its cache.
        """
        key = spec.name
        handle = self._targets.get(key)
        if handle is None:
            vector = np.asarray(spec.target, dtype=complex)
            if self.backend_kind != "statevector":
                handle = backend.package.inc_ref(backend.package.from_state_vector(vector))
            else:
                handle = vector
            self._targets[key] = handle
        return handle


def _make_backend(backend_kind: str, num_qubits: int, package=None):
    if backend_kind in ("dd", AUTO_ENGINE):
        # An auto span starts on DD: its engine choice needs the ideal run.
        return DDBackend(num_qubits, package=package)
    if backend_kind == "statevector":
        return StatevectorBackend(num_qubits)
    raise ValueError(f"unknown backend kind {backend_kind!r}; choose from {BACKEND_KINDS}")


def run_trajectory_span(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    properties: Sequence[PropertySpec],
    backend_kind: str,
    first_trajectory: int,
    num_trajectories: int,
    master_seed: int,
    sample_shots: int = 0,
    timeout: Optional[float] = None,
    backend=None,
    context: Optional[_EvaluationContext] = None,
    deadline: Optional[float] = None,
    on_drift: Optional[str] = None,
    norm_tolerance: Optional[float] = None,
    trace: Optional[TraceContext] = None,
) -> StochasticResult:
    """Execute trajectories ``first .. first + num - 1`` and aggregate them.

    This is the sharding primitive shared by the in-process runner and the
    persistent worker pool (``repro.service``): seeds are derived from the
    absolute trajectory index, so *any* partition of ``range(M)`` into spans
    produces the same per-trajectory values.  ``backend`` and ``context``
    may be passed in warm (a worker keeps them between chunks of the same
    job, preserving the DD package's unique/compute tables and the cached
    ideal-state snapshot); omitted, fresh ones are built.

    ``timeout`` is a budget relative to span start; ``deadline`` is an
    absolute ``time.monotonic()`` instant shared by every chunk of a job,
    so N parallel chunks cannot each burn the full job budget.  When both
    are given the earlier one wins.  The returned result carries an
    observability snapshot in ``result.metrics`` (trajectory latency and
    property-evaluation histograms, completion/timeout/error counters, and
    — on the DD backend — this span's unique/compute/complex-table deltas).

    ``backend_kind`` may also be :data:`AUTO_ENGINE`: the span then starts
    on a DD backend, compiles the prefix plan (one ideal DD run, stopped
    once the DD reaches :func:`dense_threshold`), and runs its trajectories
    on the engine :func:`choose_engine` picks from that run's peak; the
    result's ``backend_kind`` names the engine that ran.  A dense result's
    ``peak_nodes`` is the stopped run's peak, a censored lower bound.

    On either engine every trajectory's state is checked for norm drift
    *before* any property is evaluated against it: ``on_drift="raise"``
    (default) raises a typed :class:`~repro.errors.NumericalDriftError`,
    ``"renorm"`` rescales the state back to unit norm and counts a
    ``faults.recovered.renorm`` metric, ``"off"`` disables the guard.
    ``on_drift`` / ``norm_tolerance`` default from the ``REPRO_NORM_GUARD``
    environment variable (see :data:`NORM_GUARD_ENV`).

    ``trace`` is an optional :class:`~repro.obs.context.TraceContext` naming
    this span inside a job's trace: when given, one ``chunk.execute`` trace
    event carrying the context's ids is appended to ``result.trace_events``,
    which is how worker-side spans stitch into the per-job tree
    (:func:`repro.obs.context.stitch_trace`).  When the ``REPRO_PROFILE``
    environment variable enables profiling, a hot-loop profiler is installed
    for the duration of the span and its payload rides in ``result.profile``.
    """
    profiler = None
    if _profile.ACTIVE is None and _profile.profiling_enabled():
        profiler = _profile.HotLoopProfiler()
        _profile.ACTIVE = profiler
        profiler.push("span")
    span_started = time.monotonic()
    try:
        result = _run_span_body(
            circuit, noise_model, properties, backend_kind, first_trajectory,
            num_trajectories, master_seed, sample_shots, timeout, backend,
            context, deadline, on_drift, norm_tolerance,
        )
    finally:
        if profiler is not None:
            profiler.pop()
            _profile.ACTIVE = None
    if profiler is not None:
        result.profile = profiler.snapshot()
    if trace is not None:
        result.trace_events.append(
            {
                "name": "chunk.execute",
                "start": span_started,
                "duration": time.monotonic() - span_started,
                "attrs": {
                    "pid": os.getpid(),
                    "first_trajectory": first_trajectory,
                    "num_trajectories": num_trajectories,
                    "completed": result.completed_trajectories,
                },
                "trace_id": trace.trace_id,
                "span_id": trace.span_id,
                "parent_id": trace.parent_id,
            }
        )
    return result


def _run_span_body(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    properties: Sequence[PropertySpec],
    backend_kind: str,
    first_trajectory: int,
    num_trajectories: int,
    master_seed: int,
    sample_shots: int,
    timeout: Optional[float],
    backend,
    context: Optional[_EvaluationContext],
    deadline: Optional[float],
    on_drift: Optional[str],
    norm_tolerance: Optional[float],
) -> StochasticResult:
    # Wall and CPU time cover the same window: compile step plus trajectories.
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = StochasticResult(
        circuit_name=circuit.name,
        backend_kind=backend_kind,
        requested_trajectories=num_trajectories,
    )
    for prop in properties:
        result.estimates[prop.name] = PropertyEstimate(prop.name)

    if backend is None or backend_kind == "statevector":
        backend = _make_backend(backend_kind, circuit.num_qubits)
    else:
        # A warm backend starts every span from |0...0> and a fresh peak:
        # the previous job's state width must not leak into this report.
        backend.reset_all()
        backend.reset_peak_nodes()
    if context is None:
        context = _EvaluationContext(circuit, backend_kind)

    registry = MetricsRegistry()
    trajectory_hist = registry.histogram("trajectory.seconds", TIME_BUCKETS)
    property_hist = registry.histogram("property.eval_seconds", TIME_BUCKETS)
    completed_counter = registry.counter("trajectory.completed")
    evaluation_counter = registry.counter("property.evaluations")
    # The DD package this span starts on ("dd" and auto spans), whose
    # table/GC deltas the span reports whichever engine ends up running.
    package = getattr(backend, "package", None)
    dd_before = package.metrics_snapshot() if package is not None else None
    guard_action, guard_tolerance = _resolve_norm_guard(on_drift, norm_tolerance)
    mode = trajectory_mode()
    injector = get_injector()
    prof = _profile.ACTIVE

    def compile_gate_plan(plan_context, plan_backend):
        """The context's gate plan, and the gate DDs it had compiled before
        this span (``None``: compiled by this span)."""
        cached = plan_context._gate_plan
        plan = plan_context.gate_plan(plan_backend)
        return plan, cached.compiled_gates if cached is not None else None

    def count_compiled(plan, before):
        """Count the gate DDs ``plan`` compiled during this span."""
        if before is None or plan.compiled_gates > before:
            registry.counter("gateplan.compiled").inc(plan.compiled_gates - (before or 0))

    # Compile-once work hoisted out of the Monte-Carlo loop: the gate plan
    # (per-operation matrices / operator DDs) and — on the DD backend outside
    # the naive mode, and always for auto spans — the prefix-sharing plan
    # (one instrumented ideal execution yielding error sites, checkpoints,
    # the shared ideal state and its peak DD size).  Both are cached on the
    # context, so warm workers compile once per job, not once per chunk.
    if prof is not None:
        prof.push("<compile>")
    gate_plan, compiled_before = compile_gate_plan(context, backend)
    prefix_plan = None
    prefix_was_cached = True
    if backend_kind == AUTO_ENGINE or (backend_kind == "dd" and mode != "naive"):
        prefix_was_cached = (
            context._prefix_plan is not None and context._prefix_model == noise_model
        )
        prefix_plan = context.prefix_plan(backend, noise_model)
    ideal_peak_nodes = 0
    if backend_kind == AUTO_ENGINE:
        ideal_peak_nodes = prefix_plan.peak_nodes
        backend_kind = choose_engine(ideal_peak_nodes, circuit.num_qubits)
        result.backend_kind = backend_kind
        if backend_kind == "statevector":
            # From here on the span is an explicit statevector span: same
            # context type, gate plan and loop, hence the same estimates.
            # The DD plan keeps only what the stopped run resolved.
            count_compiled(gate_plan, compiled_before)
            context = context.dense()
            backend = _make_backend(backend_kind, circuit.num_qubits)
            gate_plan, compiled_before = compile_gate_plan(context, backend)
            prefix_plan = None
        else:
            gate_plan.resolve()
            if mode == "naive":
                # The ideal run only picked the engine: restart from
                # |0...0> with a fresh peak, as an explicit naive DD span.
                backend.reset_all()
                backend.reset_peak_nodes()
                prefix_plan = None
    count_compiled(gate_plan, compiled_before)
    # Counted only when the trajectories use the plan, so auto spans count
    # it exactly as often as the explicit DD spans they match.
    if prefix_plan is not None and not prefix_was_cached:
        registry.counter("prefix.checkpoints").inc(len(prefix_plan.checkpoints))
    if prof is not None:
        prof.pop()
    prefix_hits = registry.counter("prefix.hits")
    prefix_replays = registry.counter("prefix.replays")
    prefix_replayed_gates = registry.counter("prefix.replayed_gates")
    prefix_materialized = registry.counter("prefix.materialized")
    # A drifted shared ideal state must face an active guard, not the cache.
    ideal_drifted = prefix_plan is not None and guard_action != "off" and (
        abs(prefix_plan.ideal_norm_squared - 1.0) > guard_tolerance
    )

    # Stratified sampling (see repro.stochastic.strata): when a clean
    # stratum exists, weight it analytically from the shared ideal DD and
    # spend every trajectory slot of this span on erring-conditioned runs.
    # Inactive (no clean stratum, negligible erring mass, another mode, or
    # no prefix plan), the loop runs as in the shared or naive mode.
    strata_plan = None
    if prefix_plan is not None and mode == "stratified":
        candidate = context.strata_plan(prefix_plan)
        if candidate.active:
            strata_plan = candidate
    if strata_plan is not None:
        registry.gauge("strata.p_clean").set(strata_plan.p_clean)
        registry.gauge("strata.variance_ratio").set(
            (1.0 - strata_plan.p_clean) ** 2
        )
        strata_erring = registry.counter("strata.erring_sampled")
        strata_attempts = registry.counter("strata.attempts")
        if properties:
            # Seed every estimate with the closed-form stratum weight and
            # the clean stratum's analytic value (the same cached fold the
            # prefix engine serves to clean trajectories).
            clean_values = prefix_plan.property_values(backend, properties, context)
            for prop in properties:
                estimate = result.estimates[prop.name]
                estimate.p_clean = strata_plan.p_clean
                estimate.clean_value = clean_values[prop.name]

    def finish_trajectory(trajectory, rng, run_result, drift):
        """Guard the trajectory's final state in ``backend``, then evaluate
        the properties on it and sample its outcomes with ``rng``."""
        if drift is not None:
            backend.scale_state(drift.factor)
        if guard_action != "off":
            norm_squared = backend.squared_norm()
            if abs(norm_squared - 1.0) > guard_tolerance:
                if guard_action == "renorm":
                    backend.renormalize()
                    registry.counter("faults.recovered.renorm").inc()
                else:
                    raise NumericalDriftError(
                        f"trajectory {trajectory}: squared norm "
                        f"{norm_squared!r} drifted beyond tolerance "
                        f"{guard_tolerance:g}",
                        trajectory=trajectory,
                        norm_squared=norm_squared,
                        tolerance=guard_tolerance,
                    )
        values = []
        if properties:
            if prof is not None:
                prof.push("<properties>")
            evaluation_started = time.perf_counter()
            values = [prop.evaluate(backend, run_result, context) for prop in properties]
            property_hist.observe(time.perf_counter() - evaluation_started)
            if prof is not None:
                prof.pop()
        counts = {}
        if sample_shots > 0:
            if prof is not None:
                prof.push("<sampling>")
            counts = backend.sample_counts(sample_shots, rng)
            if prof is not None:
                prof.pop()
        return values, counts

    # Property values per estimate, added to the exact sums once the loop
    # ends (one canonicalisation per span rather than per trajectory).
    span_values = [[] for _ in properties]

    def fold(values, counts, fired):
        """Add one trajectory's property values, sampled outcome counts and
        fired-error tallies to the span's result and metrics."""
        for collected, value in zip(span_values, values):
            collected.append(value)
            evaluation_counter.inc()
        tally(result.outcome_counts, counts)
        tally(result.errors_fired, fired)
        for kind, count in fired.items():
            if count:
                registry.counter(f"errors.fired.{kind}").inc(count)

    if timeout is not None:
        relative_deadline = time.monotonic() + timeout
        deadline = relative_deadline if deadline is None else min(deadline, relative_deadline)

    # One kernel for every mode.  A trajectory first picks the plan step
    # where it leaves the ideal run: stratified spans draw their first
    # error from the closed form, shared spans dry-run the index seed
    # (None = clean), and naive and dense spans have no plan and start at
    # step 0 from |0...0>.  A clean trajectory folds the cached ideal-state
    # values; every other one replays once from the latest checkpoint at or
    # before its divergence.
    for index in range(num_trajectories):
        if deadline is not None and time.monotonic() >= deadline:
            result.timed_out = True
            registry.counter("trajectory.timeouts").inc()
            break
        trajectory = first_trajectory + index
        seed = (master_seed + trajectory * _SEED_STRIDE) & (2**63 - 1)
        trajectory_started = time.perf_counter()
        if prof is not None:
            prof.push("trajectory")
        if strata_plan is not None:
            # Erring stratum: one draw from the index seed picks the first
            # error; its rng then carries the rest of the trajectory.
            rng, first_error = strata_plan.find_erring_seed(seed)
            divergence = first_error[0]
            strata_attempts.inc()
            strata_erring.inc()
        elif prefix_plan is not None:
            rng = random.Random(seed)
            applier = StochasticErrorApplier(noise_model, rng)
            divergence = prefix_plan.first_divergence(rng, applier.fired)
        else:
            divergence = 0
        if divergence is None:
            prefix_hits.inc()
        else:
            # Replay from the latest checkpoint at or before the divergence
            # (from step 0 when there is no plan).  A shared trajectory
            # rewinds a fresh rng past the checkpoint's prefix draws; a
            # stratified one runs noiselessly through the first error's
            # gate and applies that slot from its known draw on.
            if strata_plan is None:
                rng = random.Random(seed)
            applier = StochasticErrorApplier(noise_model, rng)
            resume_step = 0
            if prefix_plan is not None:
                prefix_replays.inc()
                resume_step, checkpoint_state = prefix_plan.checkpoint_for(divergence)
                prefix_replayed_gates.inc(len(gate_plan.steps) - resume_step)
                backend.load_state(checkpoint_state)
                if strata_plan is None:
                    prefix_plan.consume_prefix(rng, applier.fired, resume_step)
                else:
                    execute_plan(
                        backend, gate_plan, rng,
                        start_step=resume_step, stop_step=divergence,
                    )
                    index, mechanism, branch = first_error[1:]
                    execute_plan(
                        backend, gate_plan, rng,
                        error_hook=functools.partial(
                            applier.apply_first_error,
                            index=index, mechanism=mechanism, branch=branch,
                        ),
                        start_step=divergence, stop_step=divergence + 1,
                    )
                    resume_step = divergence + 1
            elif index > 0:
                if backend_kind == "dd":
                    backend.reset_all()
                else:
                    backend = _make_backend(backend_kind, circuit.num_qubits)
            run_result = execute_plan(
                backend, gate_plan, rng, error_hook=applier, start_step=resume_step
            )
            if prefix_plan is not None:
                run_result.applied_gates += prefix_plan.executed_before(resume_step)
        drift = injector.fire("drift", trajectory=trajectory) if injector is not None else None
        if divergence is None and drift is None and not ideal_drifted:
            # Clean trajectory: its final state IS the shared ideal DD, so
            # fold the cached values and sample it with the trajectory's rng.
            values = []
            if properties:
                evaluation_started = time.perf_counter()
                cached = prefix_plan.property_values(backend, properties, context)
                values = [cached[prop.name] for prop in properties]
                property_hist.observe(time.perf_counter() - evaluation_started)
            counts = {}
            if sample_shots > 0:
                counts = backend.package.sample_counts(
                    prefix_plan.ideal_final, sample_shots, rng
                )
        else:
            if divergence is None:
                # Rare slow path: an injected drift fault or a drifted ideal
                # state makes this clean trajectory's state differ from the
                # cached evaluation — materialise it and evaluate it.
                prefix_materialized.inc()
                backend.load_state(prefix_plan.ideal_final)
                run_result = prefix_plan.ideal_run_result
            values, counts = finish_trajectory(trajectory, rng, run_result, drift)
        fold(values, counts, applier.fired)
        if strata_plan is not None and sample_shots > 0:
            # One matching clean-stratum draw per erring trajectory, from
            # the shared ideal DD with a decoupled rng, so
            # outcome_distribution() can recombine both pools.
            clean_rng = random.Random((seed ^ _CLEAN_SAMPLE_SALT) & (2**63 - 1))
            counts = backend.package.sample_counts(
                prefix_plan.ideal_final, sample_shots, clean_rng
            )
            tally(result.clean_outcome_counts, counts)
        if prof is not None:
            prof.pop()
        trajectory_hist.observe(time.perf_counter() - trajectory_started)
        result.completed_trajectories += 1
        completed_counter.inc()
    for prop, collected in zip(properties, span_values):
        result.estimates[prop.name].add_all(collected)

    if strata_plan is not None:
        result.strata = {
            "p_clean": strata_plan.p_clean,
            "erring_sampled": result.completed_trajectories,
            "attempts": strata_attempts.value,
        }

    # A dense span's only DD is the engine-choosing run, stopped at the
    # threshold: its peak is a lower bound on the whole run's.
    result.peak_nodes = backend.peak_nodes if backend_kind == "dd" else ideal_peak_nodes
    if package is not None:
        # Span boundary: force one full sweep regardless of the dead-node
        # watermark so a span never hands accumulated garbage to its
        # successor (the per-gate calls inside the loop are paced).
        package.garbage_collect(force=True)
        dd_delta = delta_snapshots(package.metrics_snapshot(), dd_before)
        result.metrics = merge_snapshots(registry.snapshot(), dd_delta)
    else:
        result.metrics = registry.snapshot()
    result.elapsed_seconds = time.perf_counter() - started
    result.cpu_seconds = time.process_time() - cpu_started
    return result


class StochasticSimulator:
    """Stochastic (Monte-Carlo) noisy-circuit simulator.

    Parameters
    ----------
    backend:
        ``"dd"`` (the proposed decision-diagram engine) or ``"statevector"``
        (the dense array baseline standing in for Qiskit/QLM).
    workers:
        Number of worker processes for concurrent trajectory generation;
        1 runs everything in-process.

    With ``workers > 1`` the simulator is a thin client of
    :class:`repro.service.Scheduler`: the first ``run()`` call spins up a
    persistent pool of worker processes (each keeping its DD package and
    evaluation context warm between chunks) and subsequent calls reuse it.
    Call :meth:`close` (or use the instance as a context manager) to tear
    the pool down eagerly; otherwise it is reclaimed at interpreter exit.
    """

    def __init__(self, backend: str = "dd", workers: int = 1) -> None:
        if backend not in BACKEND_KINDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKEND_KINDS}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend_kind = backend
        self.workers = workers
        self._scheduler = None

    def close(self) -> None:
        """Shut down the warm worker pool (no-op if never started)."""
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None

    def trace_events(self) -> list:
        """Scheduler trace events from parallel runs (empty for serial)."""
        if self._scheduler is None:
            return []
        return self._scheduler.trace_events()

    def __enter__(self) -> "StochasticSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _get_scheduler(self):
        """The lazily-created persistent scheduler backing parallel runs."""
        if self._scheduler is None:
            from ..service.scheduler import Scheduler
            from ..service.store import ResultStore

            # Memory-only store: the simulator API must not write to disk
            # behind the caller's back, but identical repeat submissions
            # within a session still short-circuit to the cached result.
            self._scheduler = Scheduler(
                workers=self.workers, store=ResultStore(directory=None)
            )
        return self._scheduler

    def run(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        properties: Sequence[PropertySpec] = (),
        trajectories: int = 1000,
        seed: int = 0,
        sample_shots: int = 1,
        timeout: Optional[float] = None,
    ) -> StochasticResult:
        """Run ``trajectories`` independent noisy simulations and aggregate.

        Parameters
        ----------
        circuit:
            The circuit to simulate.
        noise_model:
            Error rates; defaults to the paper's evaluation configuration.
        properties:
            Quadratic property specifications to estimate (Section III).
        trajectories:
            Monte-Carlo sample count ``M`` (the paper uses 30 000; size via
            :func:`~repro.stochastic.properties.hoeffding_samples`).
        seed:
            Master seed; trajectory ``i`` always gets the same derived RNG
            regardless of worker count, so results are reproducible.
        sample_shots:
            Final-state measurement samples drawn per trajectory for the
            outcome histogram (0 disables sampling).
        timeout:
            Wall-clock budget in seconds; exceeded runs return partial
            results flagged ``timed_out`` (the paper's "> 1 h" entries).
        """
        if noise_model is None:
            noise_model = NoiseModel.paper_defaults()
        if trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        properties = tuple(properties)
        require_unique_names(properties)

        started = time.perf_counter()
        span_started = time.monotonic()
        if self.workers == 1:
            # Serial runs still get a stitched trace: a deterministic root
            # context derived from the run parameters, with the single chunk
            # as its only child (mirroring the scheduler's per-job tree).
            root = job_trace_context(f"{circuit.name}:{seed}:{trajectories}")
            aggregate = run_trajectory_span(
                circuit, noise_model, properties, self.backend_kind,
                0, trajectories, seed, sample_shots=sample_shots,
                timeout=timeout, trace=root.child("chunk", 0, 0),
            )
            aggregate.trace_events.append(
                {
                    "name": "job.run",
                    "start": span_started,
                    "duration": time.monotonic() - span_started,
                    "attrs": {"circuit": circuit.name, "workers": 1},
                    "trace_id": root.trace_id,
                    "span_id": root.span_id,
                    "parent_id": root.parent_id,
                }
            )
        else:
            aggregate = self._run_parallel(
                circuit, noise_model, properties, trajectories, seed, sample_shots, timeout
            )
        aggregate.requested_trajectories = trajectories
        aggregate.elapsed_seconds = time.perf_counter() - started
        aggregate.workers = self.workers
        return aggregate

    def _run_parallel(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel,
        properties: Tuple[PropertySpec, ...],
        trajectories: int,
        seed: int,
        sample_shots: int,
        timeout: Optional[float],
    ) -> StochasticResult:
        from ..service.job import JobSpec
        from ..service.scheduler import JobFailedError

        spec = JobSpec(
            circuit=circuit,
            noise_model=noise_model,
            properties=properties,
            trajectories=trajectories,
            seed=seed,
            backend_kind=self.backend_kind,
            sample_shots=sample_shots,
            timeout=timeout,
        )
        scheduler = self._get_scheduler()
        scheduler_before = scheduler.metrics_snapshot()
        try:
            result = scheduler.run(spec)
        except JobFailedError as error:
            if "refusing" in str(error):
                # Infeasible-backend refusals keep their historical type so
                # the harness can report them as the paper's ">1 h" cells.
                raise ValueError(str(error)) from error
            raise
        # Fold in what the scheduler itself did for this job (retries,
        # respawns, checkpoint writes, store traffic).  The delta keeps a
        # warm scheduler from re-reporting earlier jobs' counters.
        scheduler_delta = delta_snapshots(scheduler.metrics_snapshot(), scheduler_before)
        result.metrics = merge_snapshots(result.metrics, scheduler_delta)
        return result


def simulate_stochastic(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    properties: Sequence[PropertySpec] = (),
    trajectories: int = 1000,
    backend: str = "dd",
    workers: int = 1,
    seed: int = 0,
    sample_shots: int = 1,
    timeout: Optional[float] = None,
) -> StochasticResult:
    """One-call wrapper around :class:`StochasticSimulator` (a parallel
    call's worker pool is shut down before it returns)."""
    with StochasticSimulator(backend=backend, workers=workers) as simulator:
        return simulator.run(
            circuit,
            noise_model=noise_model,
            properties=properties,
            trajectories=trajectories,
            seed=seed,
            sample_shots=sample_shots,
            timeout=timeout,
        )
