"""Simulator backend protocol and the shared circuit-execution engine.

Both simulators — the proposed decision-diagram engine and the dense
state-vector baseline — expose the same primitive operations
(:class:`StateBackend`), so one executor (:func:`execute_circuit`) runs
circuits on either, including measurements, resets, classically-conditioned
gates, and the stochastic error hook the noise layer plugs in after every
gate (paper Section III).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..obs import profile as _profile
from ..circuits.operations import (
    BarrierOperation,
    GateOperation,
    MeasureOperation,
    ResetOperation,
)

__all__ = ["StateBackend", "RunResult", "ErrorHook", "execute_circuit", "execute_plan"]


class StateBackend(Protocol):
    """Primitive state operations every simulator backend provides."""

    num_qubits: int

    def apply_gate(self, matrix: np.ndarray, target: int, controls: Dict[int, int]) -> None:
        """Apply a (controlled) single-qubit unitary to the state."""

    def probability_of_one(self, qubit: int) -> float:
        """Probability that measuring ``qubit`` yields 1."""

    def measure(self, qubit: int, rng: random.Random) -> int:
        """Projective measurement with collapse; returns the outcome bit."""

    def reset(self, qubit: int, rng: random.Random) -> None:
        """Reset ``qubit`` to |0> (measure, flip on outcome 1)."""

    def apply_kraus_branch(
        self, kraus_operators: Sequence[np.ndarray], qubit: int, rng: random.Random
    ) -> int:
        """Stochastically select and apply one Kraus branch (normalised).

        Branch probabilities are the squared norms of the candidate states
        (the state-dependent selection of paper Example 6).  Returns the
        selected branch index.
        """

    def probability_of_basis(self, bits: Sequence[int]) -> float:
        """Squared amplitude of one computational basis state."""

    def snapshot(self):
        """An immutable handle to the current state (for later fidelity)."""

    def fidelity(self, handle) -> float:
        """Quadratic overlap ``|<handle|state>|^2`` with a snapshot handle."""

    def statevector(self) -> np.ndarray:
        """Dense copy of the state (exponential; tests and small circuits)."""

    def sample_counts(self, shots: int, rng: random.Random) -> Dict[str, int]:
        """Sample measurement outcomes of all qubits without collapsing."""


#: Called after every executed gate with the backend and the touched qubits;
#: the stochastic noise layer uses this to inject errors.
ErrorHook = Callable[["StateBackend", Tuple[int, ...], str], None]


@dataclass
class RunResult:
    """Outcome of a single circuit execution (one trajectory)."""

    classical_bits: List[int]
    measured_qubits: Dict[int, int] = field(default_factory=dict)
    applied_gates: int = 0

    def classical_value(self) -> int:
        """Classical register interpreted as an integer (bit 0 = LSB)."""
        value = 0
        for position, bit in enumerate(self.classical_bits):
            if bit:
                value |= 1 << position
        return value

    def bitstring(self) -> str:
        """Classical bits as a string, most significant (highest index) first."""
        return "".join(str(bit) for bit in reversed(self.classical_bits))


def execute_circuit(
    backend: StateBackend,
    circuit: QuantumCircuit,
    rng: random.Random,
    error_hook: Optional[ErrorHook] = None,
) -> RunResult:
    """Run ``circuit`` on ``backend``, returning the classical outcome.

    ``error_hook`` — when given — is invoked after every unitary gate with
    the qubits the gate touched, implementing the paper's per-gate/per-qubit
    stochastic error insertion.  Measurements and resets also trigger the
    hook (hardware readout is noisy too), matching the treatment in the
    authors' stochastic simulator.
    """
    if circuit.num_qubits != backend.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits but backend has {backend.num_qubits}"
        )
    classical_bits = [0] * circuit.num_clbits
    result = RunResult(classical_bits)
    for operation in circuit:
        if isinstance(operation, BarrierOperation):
            continue
        if isinstance(operation, MeasureOperation):
            before_measure = getattr(error_hook, "before_measure", None)
            if before_measure is not None:
                before_measure(backend, operation.qubit)
            outcome = backend.measure(operation.qubit, rng)
            classical_bits[operation.clbit] = outcome
            result.measured_qubits[operation.qubit] = outcome
            if error_hook is not None:
                error_hook(backend, (operation.qubit,), "measure")
            continue
        if isinstance(operation, ResetOperation):
            backend.reset(operation.qubit, rng)
            if error_hook is not None:
                error_hook(backend, (operation.qubit,), "reset")
            continue
        assert isinstance(operation, GateOperation)
        if operation.condition is not None and not operation.condition.is_satisfied(
            classical_bits
        ):
            continue
        backend.apply_gate(operation.matrix(), operation.target, operation.control_dict())
        result.applied_gates += 1
        if error_hook is not None:
            error_hook(backend, operation.qubits, operation.name)
    return result


def execute_plan(
    backend: StateBackend,
    plan,
    rng: random.Random,
    error_hook: Optional[ErrorHook] = None,
    start_step: int = 0,
    stop_step: Optional[int] = None,
) -> RunResult:
    """Run a compiled :class:`~repro.simulators.gateplan.GatePlan`.

    Semantically identical to :func:`execute_circuit` on the source circuit
    (same hook call sequence, same rng consumption, same classical-bit
    handling) but with all matrix derivation hoisted to compile time; on a
    backend sharing the plan's DD package each gate is one pre-resolved
    operator-DD multiply.  ``start_step`` resumes mid-schedule from a
    prefix checkpoint — the caller is responsible for the backend holding
    the state *after* ``plan.steps[:start_step]`` and for the rng/hook
    having consumed that prefix's draws (see :mod:`repro.stochastic.prefix`).
    ``stop_step`` ends the run before that step (default: the plan's end).
    """
    if plan.num_qubits != backend.num_qubits:
        raise ValueError(
            f"plan has {plan.num_qubits} qubits but backend has {backend.num_qubits}"
        )
    use_edges = plan.package is not None and plan.package is getattr(
        backend, "package", None
    )
    classical_bits = [0] * plan.num_clbits
    result = RunResult(classical_bits)
    # Per-gate profiler frames (g<step>:<name>): when profiling is off this
    # is one module-attribute read per plan, plus one None test per step.
    prof = _profile.ACTIVE
    for index, step in enumerate(plan.steps[start_step:stop_step], start=start_step):
        if prof is not None:
            prof.push(f"g{index}:{step.name or step.kind}")
        try:
            if step.kind == "measure":
                before_measure = getattr(error_hook, "before_measure", None)
                if before_measure is not None:
                    before_measure(backend, step.target)
                outcome = backend.measure(step.target, rng)
                classical_bits[step.clbit] = outcome
                result.measured_qubits[step.target] = outcome
                if error_hook is not None:
                    error_hook(backend, step.qubits, "measure")
                continue
            if step.kind == "reset":
                backend.reset(step.target, rng)
                if error_hook is not None:
                    error_hook(backend, step.qubits, "reset")
                continue
            if step.condition is not None and not step.condition.is_satisfied(
                classical_bits
            ):
                continue
            if use_edges:
                backend.apply_gate_edge(step.gate_edge)
            else:
                backend.apply_gate(step.matrix, step.target, step.controls)
            result.applied_gates += 1
            if error_hook is not None:
                error_hook(backend, step.qubits, step.name)
        finally:
            if prof is not None:
                prof.pop()
    return result
