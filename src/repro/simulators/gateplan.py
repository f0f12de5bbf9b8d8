"""Compiled gate plans: the per-(backend, circuit) operator schedule.

``execute_circuit`` re-derives every operation's dense matrix (and, on the
DD backend, re-keys the package's gate cache by matrix bytes) on *every*
trajectory.  A :class:`GatePlan` hoists that work out of the Monte-Carlo
loop: each operation is resolved **once** into a :class:`PlanStep` holding
its precomputed matrix and — when compiled against a DD package — its
pinned operator DD, so applying a gate during a trajectory is a single
``multiply`` with no cache-key traffic.

Two further services live here because they share the same operator cache:

* **Single-qubit fusion** (``fuse=True``): maximal runs of uncontrolled,
  unconditioned single-qubit gates are collapsed into one matrix product
  per wire.  Fusion changes floating-point rounding and merges the noise
  layer's per-gate error-insertion slots, so the stochastic runner never
  fuses — the option serves purely-unitary consumers such as
  :func:`repro.simulators.unitary.circuit_unitary_dd`.
* :class:`NoiseOperatorCache`: the tiny Pauli / amplitude-damping Kraus
  operator DDs the stochastic error applier fires, built once per package
  instead of once per firing (counted as ``gateplan.noise_compiled`` /
  ``gateplan.noise_hits``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.operations import (
    BarrierOperation,
    GateOperation,
    MeasureOperation,
    ResetOperation,
)

__all__ = ["PlanStep", "GatePlan", "compile_plan", "NoiseOperatorCache"]

GATE = "gate"
MEASURE = "measure"
RESET = "reset"


class PlanStep:
    """One resolved instruction of a compiled plan."""

    __slots__ = (
        "kind",
        "name",
        "qubits",
        "target",
        "controls",
        "matrix",
        "condition",
        "gate_edge",
        "adjoint_edge",
        "clbit",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        qubits: Tuple[int, ...],
        target: int = 0,
        controls: Optional[Dict[int, int]] = None,
        matrix: Optional[np.ndarray] = None,
        condition=None,
        clbit: int = 0,
    ) -> None:
        self.kind = kind
        self.name = name
        self.qubits = qubits
        self.target = target
        self.controls = controls if controls is not None else {}
        self.matrix = matrix
        self.condition = condition
        #: Operator DD pinned in the compiling package (DD plans only).
        self.gate_edge = None
        #: Adjoint operator DD (``U^dagger``), resolved only for plans
        #: compiled with ``adjoints=True`` — the density-matrix backend
        #: needs both sides of ``U rho U^dagger`` per step.
        self.adjoint_edge = None
        self.clbit = clbit


class GatePlan:
    """A circuit compiled into an executable step schedule.

    ``package`` records which DD package the ``gate_edge`` fields belong
    to; the executor falls back to the matrix path when run against a
    backend with a different (or no) package.  Only the first
    ``resolved_steps`` steps hold their operator DDs: all of them unless
    the plan was compiled with ``resolve=False``, whose caller resolves
    steps with :meth:`resolve` before running them.
    """

    def __init__(self, circuit: QuantumCircuit, fused: bool) -> None:
        self.circuit_name = circuit.name
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.fused = fused
        self.steps: List[PlanStep] = []
        self.package = None
        self.adjoints = False
        self.resolved_steps = 0
        #: Gate DDs freshly built for this plan (cache misses during compile).
        self.compiled_gates = 0
        #: Source gates absorbed into another step by single-qubit fusion.
        self.fused_gates = 0

    def gate_step_count(self) -> int:
        return sum(1 for step in self.steps if step.kind == GATE)

    def resolve(self, stop: Optional[int] = None) -> None:
        """Resolve the operator DDs of the steps before ``stop`` (default:
        all) in ``package``, counting fresh builds in ``compiled_gates``."""
        stop = len(self.steps) if stop is None else stop
        package = self.package
        if package is None or stop <= self.resolved_steps:
            return
        before = package.gate_cache_size()
        for step in self.steps[self.resolved_steps:stop]:
            if step.kind != GATE:
                continue
            step.gate_edge = package.gate(
                step.matrix, step.target, step.controls, self.num_qubits
            )
            if self.adjoints:
                step.adjoint_edge = package.gate(
                    np.ascontiguousarray(step.matrix.conj().T),
                    step.target,
                    step.controls,
                    self.num_qubits,
                )
        self.resolved_steps = stop
        self.compiled_gates += package.gate_cache_size() - before


def _flush_pending(
    pending: "Dict[int, Tuple[np.ndarray, List[str]]]", steps: List[PlanStep]
) -> int:
    """Emit pending fused runs (ascending wire order) and count absorptions."""
    absorbed = 0
    for qubit in sorted(pending):
        matrix, names = pending[qubit]
        name = names[0] if len(names) == 1 else "fused[" + ".".join(names) + "]"
        steps.append(
            PlanStep(GATE, name, (qubit,), target=qubit, matrix=matrix)
        )
        absorbed += len(names) - 1
    pending.clear()
    return absorbed


def compile_plan(
    circuit: QuantumCircuit,
    package=None,
    fuse: bool = False,
    adjoints: bool = False,
    resolve: bool = True,
) -> GatePlan:
    """Compile ``circuit`` into a :class:`GatePlan`.

    ``package`` — a :class:`~repro.dd.package.DDPackage` — additionally
    resolves every gate step to its operator DD (pinned by the package's
    gate cache); with ``resolve=False`` none yet, for a caller that may
    run only a prefix on the package (:meth:`GatePlan.resolve`).  Barriers
    are dropped from the schedule but, under ``fuse=True``, still act as
    fusion fences: gates are never merged across one.

    ``adjoints=True`` additionally resolves each gate step's
    ``adjoint_edge``: the adjoint of a controlled gate is the same
    controlled structure around ``U^dagger`` (controls project onto
    diagonal blocks), so both edges share the package's gate cache and
    its pinning.  Density-matrix consumers apply each step as
    ``gate_edge @ rho @ adjoint_edge`` without any per-step adjoint
    recomputation.
    """
    plan = GatePlan(circuit, fused=fuse)
    steps = plan.steps
    pending: Dict[int, Tuple[np.ndarray, List[str]]] = {}
    for operation in circuit:
        if isinstance(operation, BarrierOperation):
            plan.fused_gates += _flush_pending(pending, steps)
            continue
        if isinstance(operation, MeasureOperation):
            plan.fused_gates += _flush_pending(pending, steps)
            steps.append(
                PlanStep(
                    MEASURE,
                    "measure",
                    (operation.qubit,),
                    target=operation.qubit,
                    clbit=operation.clbit,
                )
            )
            continue
        if isinstance(operation, ResetOperation):
            plan.fused_gates += _flush_pending(pending, steps)
            steps.append(
                PlanStep(RESET, "reset", (operation.qubit,), target=operation.qubit)
            )
            continue
        assert isinstance(operation, GateOperation)
        matrix = np.ascontiguousarray(operation.matrix(), dtype=complex)
        controls = operation.control_dict()
        fusable = fuse and not controls and operation.condition is None
        if fusable:
            entry = pending.get(operation.target)
            if entry is None:
                pending[operation.target] = (matrix, [operation.name])
            else:
                pending[operation.target] = (
                    np.ascontiguousarray(matrix @ entry[0]),
                    entry[1] + [operation.name],
                )
            continue
        if not fuse or controls or operation.condition is not None:
            # Any op we cannot fuse fences every pending run: conditions
            # read classical state and multi-qubit gates order against both
            # of their wires, so commuting past them is not attempted.
            plan.fused_gates += _flush_pending(pending, steps)
        steps.append(
            PlanStep(
                GATE,
                operation.name,
                operation.qubits,
                target=operation.target,
                controls=controls,
                matrix=matrix,
                condition=operation.condition,
            )
        )
    plan.fused_gates += _flush_pending(pending, steps)
    if package is not None:
        plan.package = package
        plan.adjoints = adjoints
        if resolve:
            plan.resolve()
    return plan


class NoiseOperatorCache:
    """Per-package cache of the noise layer's tiny operator DDs.

    The stochastic error applier historically passed raw numpy matrices to
    ``backend.apply_gate`` / ``apply_kraus_branch`` on every firing, paying
    the gate-cache keying (``tobytes`` + dict hash) each time.  This cache
    resolves each (operator, qubit) pair to its DD once; the returned edges
    are pinned by the package's gate cache, so a fired error costs exactly
    one DD multiply.
    """

    def __init__(self, package, num_qubits: int) -> None:
        self.package = package
        self.num_qubits = num_qubits
        self._ops: Dict[tuple, object] = {}
        self._compiled = package.metrics.counter("gateplan.noise_compiled")
        self._hits = package.metrics.counter("gateplan.noise_hits")

    def operator(self, key: tuple, matrix: np.ndarray):
        edge = self._ops.get(key)
        if edge is None:
            qubit = key[-1]
            edge = self.package.gate(
                np.asarray(matrix, dtype=complex), qubit, None, self.num_qubits
            )
            self._ops[key] = edge
            self._compiled.inc()
        else:
            self._hits.inc()
        return edge

    def single_qubit(self, name: str, matrix: np.ndarray, qubit: int):
        """Cached DD for an uncontrolled single-qubit operator on ``qubit``."""
        return self.operator((name, qubit), matrix)

    def kraus_pair(self, name: str, operators, qubit: int) -> tuple:
        """Cached DDs for a Kraus operator list (keyed per branch index)."""
        return tuple(
            self.operator((name, index, qubit), kraus)
            for index, kraus in enumerate(operators)
        )

    def operator_pair(self, key: tuple, matrix: np.ndarray) -> tuple:
        """Cached ``(K, K^dagger)`` operator-DD pair for one Kraus branch.

        The adjoint shares the cache under a ``"dag"``-marked key (the
        marker sits before the qubit — :meth:`operator` reads the target
        qubit from ``key[-1]``), so a channel applied after every gate of
        a circuit compiles each side exactly once per package.
        """
        matrix = np.asarray(matrix, dtype=complex)
        dag_key = key[:-1] + ("dag", key[-1])
        return (
            self.operator(key, matrix),
            self.operator(dag_key, np.ascontiguousarray(matrix.conj().T)),
        )

    def kraus_pairs_with_adjoints(self, name: str, operators, qubit: int) -> tuple:
        """Cached ``(K, K^dagger)`` pairs for a whole Kraus operator list.

        The superoperator consumer (``repro.exact``) applies each branch as
        ``K rho K^dagger`` — two DD multiplications per pair.
        """
        return tuple(
            self.operator_pair((name, index, qubit), kraus)
            for index, kraus in enumerate(operators)
        )
