"""Circuit optimisation passes.

The paper's reference [37] (Zulehner/Wille, DATE 2019) studies trading
matrix-vector against matrix-matrix DD multiplications; the circuit-level
counterpart implemented here is **single-qubit gate fusion**: maximal runs
of uncontrolled, unconditioned single-qubit gates on one qubit are composed
into a single ``u3`` (every SU(2) element, up to an irrelevant global
phase, is a ``u3``).  Fewer gate applications mean fewer DD multiplications
and fewer noise-insertion slots, so the pass exists in two flavours:

* :func:`fuse_single_qubit_runs` — semantics-preserving for *noiseless*
  simulation; under a noise model it also changes the physics (one fused
  gate attracts one error slot instead of ``k``), a faithful model of
  hardware that compiles runs into single pulses.

Fusion never crosses measurements, resets, barriers, controlled gates, or
classically conditioned gates.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .circuit import QuantumCircuit
from .operations import BarrierOperation, GateOperation, Operation

__all__ = ["fuse_single_qubit_runs", "matrix_to_u3_params", "insert_idle_identities"]


def matrix_to_u3_params(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Decompose a 2x2 unitary into ``u3(theta, phi, lam)`` parameters.

    The result reproduces ``matrix`` up to a global phase, which is
    unobservable in both simulators (states are compared through quadratic
    properties).
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("u3 decomposition needs a 2x2 matrix")
    # U = e^{i alpha} * [[cos, -e^{i lam} sin], [e^{i phi} sin, e^{i(phi+lam)} cos]]
    theta = 2.0 * math.atan2(abs(matrix[1, 0]), abs(matrix[0, 0]))
    if abs(matrix[1, 0]) < 1e-12:
        # Diagonal (theta = 0): only phi + lam is defined; pick phi = 0.
        alpha = cmath.phase(matrix[0, 0])
        return 0.0, 0.0, cmath.phase(matrix[1, 1]) - alpha
    if abs(matrix[0, 0]) < 1e-12:
        # Anti-diagonal (theta = pi): pick alpha = 0.
        return math.pi, cmath.phase(matrix[1, 0]), cmath.phase(-matrix[0, 1])
    alpha = cmath.phase(matrix[0, 0])
    phi = cmath.phase(matrix[1, 0]) - alpha
    lam = cmath.phase(-matrix[0, 1]) - alpha
    return theta, phi, lam


def _is_fusable(operation: Operation) -> bool:
    return (
        isinstance(operation, GateOperation)
        and not operation.controls
        and operation.condition is None
    )


def fuse_single_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse maximal runs of single-qubit gates per qubit into one ``u3``.

    Returns a new circuit; the input is untouched.  Runs of length one are
    kept verbatim (no pointless ``h`` -> ``u3`` rewrites).
    """
    fused = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, f"{circuit.name}_fused")
    #: Pending run per qubit: list of GateOperations awaiting fusion.
    pending: Dict[int, List[GateOperation]] = {}

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, None)
        if not run:
            return
        if len(run) == 1:
            fused.append(run[0])
            return
        matrix = np.eye(2, dtype=complex)
        for gate in run:
            matrix = gate.matrix() @ matrix
        theta, phi, lam = matrix_to_u3_params(matrix)
        fused.u3(theta, phi, lam, qubit)

    def flush_all() -> None:
        for qubit in sorted(pending):
            flush(qubit)

    for operation in circuit:
        if _is_fusable(operation):
            pending.setdefault(operation.target, []).append(operation)
            continue
        if isinstance(operation, BarrierOperation):
            flush_all()
            fused.append(operation)
            continue
        # Controlled / conditioned gates, measures, resets: flush every
        # qubit the operation touches, then emit it.
        for qubit in operation.qubits:
            flush(qubit)
        if isinstance(operation, GateOperation) and operation.condition is not None:
            # Classical conditions depend on measurement order; flush all
            # pending work to preserve program order conservatively.
            flush_all()
        fused.append(operation)
    flush_all()
    return fused


def insert_idle_identities(circuit: QuantumCircuit) -> QuantumCircuit:
    """Insert explicit ``id`` gates on idle qubits, one per time layer.

    The paper's predecessor work (reference [20], ICCAD 2020) applies
    decoherence errors per *time step* to every qubit — idle qubits decay
    too, which the per-gate error insertion misses.  This pass makes idle
    windows explicit: the circuit is scheduled into layers (the same greedy
    rule as :meth:`QuantumCircuit.depth`), and every qubit not touched in a
    layer receives an ``id`` gate.  Because the stochastic applier attaches
    errors to every gate — identities included — the transformed circuit
    models idle decoherence with no simulator changes.

    Measurements, resets, and barriers end their layer like gates do.  The
    output circuit's gate count grows by (number of layers) x (idle slots).
    """
    from .operations import GateOperation, MeasureOperation, ResetOperation

    result = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, f"{circuit.name}_idle"
    )
    # Assign each operation to a layer.
    level: Dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
    layers: List[List[Operation]] = []
    for operation in circuit:
        touched = operation.qubits
        if isinstance(operation, BarrierOperation):
            # Barriers synchronise every qubit to a common layer boundary.
            boundary = max(level.values(), default=0)
            for qubit in level:
                level[qubit] = boundary
            continue
        if not touched:
            continue
        layer_index = max(level[q] for q in touched)
        while len(layers) <= layer_index:
            layers.append([])
        layers[layer_index].append(operation)
        for qubit in touched:
            level[qubit] = layer_index + 1

    for layer in layers:
        busy = set()
        for operation in layer:
            result.append(operation)
            busy.update(operation.qubits)
        for qubit in range(circuit.num_qubits):
            if qubit not in busy:
                result.i(qubit)
    return result
