"""Exact density-matrix simulator — the correctness oracle.

The paper contrasts stochastic simulation with the exact mixed-state
formalism ("quantum channels and mixed states", Section III): tracking the
full ``2**n x 2**n`` density matrix makes an exponentially hard problem even
harder, but for small registers it yields the *exact* output distribution.
This module implements that formalism so the test suite can validate the
Monte-Carlo estimates against ground truth (Theorem 1's guarantee).

The density matrix is held as a ``(2,) * 2n`` tensor — row (ket) axes
``0..n-1``, column (bra) axes ``n..2n-1`` — and every operator application
is a pair of tensor contractions (``rho -> K rho K^dagger``), with control
qubits handled by sub-view slicing on both sides, mirroring the
state-vector backend.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.operations import (
    BarrierOperation,
    GateOperation,
    MeasureOperation,
    ResetOperation,
)
from ..errors import ResourceLimitError

__all__ = ["DensityMatrixSimulator"]

_MAX_QUBITS = 13  # 2^13 x 2^13 complex doubles = 1 GiB; a hard safety cap


class DensityMatrixSimulator:
    """Exact noisy simulator evolving the full density matrix."""

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_qubits > _MAX_QUBITS:
            estimated_bytes = (2**num_qubits) ** 2 * 16
            raise ResourceLimitError(
                f"a dense density matrix over {num_qubits} qubits needs "
                f"2^{num_qubits} x 2^{num_qubits} complex doubles "
                f"(~{estimated_bytes / 2**30:.1f} GiB), past the "
                f"{_MAX_QUBITS}-qubit safety cap; use the decision-diagram "
                f"exact backend (repro.exact.ExactSimulator) instead — it "
                f"represents rho structurally and has no fixed qubit cap",
                qubits=num_qubits,
                estimated_bytes=estimated_bytes,
            )
        self.num_qubits = num_qubits
        rho = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
        rho[0, 0] = 1.0
        self._rho = rho.reshape((2,) * (2 * num_qubits))

    # ------------------------------------------------------------------
    # Operator application
    # ------------------------------------------------------------------

    def _apply_one_side(
        self,
        matrix: np.ndarray,
        target: int,
        controls: Dict[int, int],
        bra_side: bool,
    ) -> None:
        """Apply ``matrix`` (or its conjugate on the bra side) to one index."""
        offset = self.num_qubits if bra_side else 0
        operator = np.conj(matrix) if bra_side else matrix
        index: List = [slice(None)] * (2 * self.num_qubits)
        for qubit, polarity in controls.items():
            index[offset + qubit] = polarity
        index_tuple = tuple(index)
        view = self._rho[index_tuple]
        # Integer-indexed control axes before the target (on this side only)
        # shift the target's axis position within the reduced view.
        consumed = sum(1 for qubit in controls if qubit < target)
        axis = offset + target - consumed
        updated = np.tensordot(operator, view, axes=([1], [axis]))
        updated = np.moveaxis(updated, 0, axis)
        if controls:
            self._rho[index_tuple] = updated
        else:
            self._rho = np.ascontiguousarray(updated)

    def apply_gate(self, matrix: np.ndarray, target: int, controls: Dict[int, int]) -> None:
        """Unitary conjugation ``rho -> U rho U^dagger``."""
        matrix = np.asarray(matrix, dtype=complex)
        self._apply_one_side(matrix, target, controls, bra_side=False)
        self._apply_one_side(matrix, target, controls, bra_side=True)

    def apply_channel(self, kraus_operators: Sequence[np.ndarray], qubit: int) -> None:
        """Single-qubit channel ``rho -> sum_k K rho K^dagger``."""
        total = None
        original = self._rho
        for kraus in kraus_operators:
            kraus = np.asarray(kraus, dtype=complex)
            self._rho = original
            self._apply_one_side(kraus, qubit, {}, bra_side=False)
            self._apply_one_side(kraus, qubit, {}, bra_side=True)
            term = self._rho
            total = term if total is None else total + term
        assert total is not None
        self._rho = total

    def apply_correlated_pauli_channel(
        self, probability: float, qubit_a: int, qubit_b: int
    ) -> None:
        """Two-qubit correlated depolarization (crosstalk).

        ``rho -> (1 - p) rho + (p/16) sum_{i,j} (P_i (x) P_j) rho (...)``,
        the channel induced by applying a uniformly random two-qubit Pauli
        with probability ``p`` (the stochastic crosstalk mechanism).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("crosstalk probability must lie in [0, 1]")
        if probability == 0.0:
            return
        from ..noise.channels import DEPOLARIZING_PAULIS

        original = self._rho
        total = (1.0 - probability) * original
        for first in DEPOLARIZING_PAULIS:
            for second in DEPOLARIZING_PAULIS:
                self._rho = original
                self._apply_one_side(first, qubit_a, {}, bra_side=False)
                self._apply_one_side(first, qubit_a, {}, bra_side=True)
                self._apply_one_side(second, qubit_b, {}, bra_side=False)
                self._apply_one_side(second, qubit_b, {}, bra_side=True)
                total = total + (probability / 16.0) * self._rho
        self._rho = total

    # ------------------------------------------------------------------
    # Measurement statistics
    # ------------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Diagonal of the density matrix: all basis-state probabilities."""
        dense = self._rho.reshape(2**self.num_qubits, 2**self.num_qubits)
        return np.real(np.diag(dense)).copy()

    def probability_of_basis(self, bits: Sequence[int]) -> float:
        """Probability of one computational basis outcome."""
        index = tuple(int(b) for b in bits) * 2
        return float(np.real(self._rho[index]))

    def probability_of_one(self, qubit: int) -> float:
        """Marginal probability that ``qubit`` reads 1."""
        probs = self.probabilities()
        total = 0.0
        shift = self.num_qubits - 1 - qubit
        for basis_index, probability in enumerate(probs):
            if (basis_index >> shift) & 1:
                total += probability
        return total

    def fidelity_with_pure(self, statevector: np.ndarray) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        psi = np.asarray(statevector, dtype=complex).reshape(-1)
        dense = self._rho.reshape(2**self.num_qubits, 2**self.num_qubits)
        return float(np.real(np.vdot(psi, dense @ psi)))

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli Z on ``qubit``."""
        return 1.0 - 2.0 * self.probability_of_one(qubit)

    def density_matrix(self) -> np.ndarray:
        """Dense copy of the density matrix."""
        return self._rho.reshape(2**self.num_qubits, 2**self.num_qubits).copy()

    def purity(self) -> float:
        """``Tr(rho^2)`` — 1 for pure states, 1/2^n for maximally mixed."""
        dense = self._rho.reshape(2**self.num_qubits, 2**self.num_qubits)
        return float(np.real(np.trace(dense @ dense)))

    # ------------------------------------------------------------------
    # Non-unitary circuit operations (deterministic ensemble semantics)
    # ------------------------------------------------------------------

    def dephase_measure(self, qubit: int) -> None:
        """Non-selective measurement: kill coherences of ``qubit``.

        The exact-ensemble counterpart of a mid-circuit measurement whose
        outcome is immediately averaged over (valid for circuits that do not
        classically condition on the result).
        """
        projectors = (
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, 1]], dtype=complex),
        )
        self.apply_channel(projectors, qubit)

    def reset_qubit(self, qubit: int) -> None:
        """Trace-out-and-reprepare reset channel."""
        kraus = (
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, 1], [0, 0]], dtype=complex),
        )
        self.apply_channel(kraus, qubit)

    def run_circuit(
        self,
        circuit: QuantumCircuit,
        channel_factory=None,
    ) -> None:
        """Execute a circuit exactly, applying noise channels after gates.

        ``channel_factory(gate_name, qubit)`` returns a list of Kraus-operator
        lists to apply to ``qubit`` after each gate (empty/None for noiseless).
        Classically conditioned gates are rejected — in the ensemble picture
        there is no single classical record to condition on.
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width does not match the simulator")
        for operation in circuit:
            if isinstance(operation, BarrierOperation):
                continue
            if isinstance(operation, MeasureOperation):
                # Readout misassignment acts before the measurement itself.
                self._post_gate_noise(channel_factory, "readout", operation.qubits)
                self.dephase_measure(operation.qubit)
                self._post_gate_noise(channel_factory, "measure", operation.qubits)
                continue
            if isinstance(operation, ResetOperation):
                self.reset_qubit(operation.qubit)
                self._post_gate_noise(channel_factory, "reset", operation.qubits)
                continue
            assert isinstance(operation, GateOperation)
            if operation.condition is not None:
                raise ValueError(
                    "density-matrix oracle cannot run classically conditioned gates"
                )
            self.apply_gate(operation.matrix(), operation.target, operation.control_dict())
            self._post_gate_noise(channel_factory, operation.name, operation.qubits)

    def _post_gate_noise(self, channel_factory, gate_name: str, qubits) -> None:
        if channel_factory is None:
            return
        for qubit in qubits:
            for kraus_operators in channel_factory(gate_name, qubit):
                self.apply_channel(kraus_operators, qubit)

    def run_circuit_with_model(self, circuit: QuantumCircuit, noise_model) -> None:
        """Execute a circuit exactly under a :class:`NoiseModel`.

        Equivalent to :meth:`run_circuit` with
        :func:`~repro.noise.stochastic.exact_channel_factory`, plus the
        pairwise crosstalk channel on multi-qubit gates (which the per-qubit
        factory interface cannot express).
        """
        from ..noise.stochastic import exact_channel_factory

        factory = exact_channel_factory(noise_model)
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width does not match the simulator")
        for operation in circuit:
            if isinstance(operation, BarrierOperation):
                continue
            if isinstance(operation, MeasureOperation):
                self._post_gate_noise(factory, "readout", operation.qubits)
                self.dephase_measure(operation.qubit)
                self._post_gate_noise(factory, "measure", operation.qubits)
                continue
            if isinstance(operation, ResetOperation):
                self.reset_qubit(operation.qubit)
                self._post_gate_noise(factory, "reset", operation.qubits)
                continue
            assert isinstance(operation, GateOperation)
            if operation.condition is not None:
                raise ValueError(
                    "density-matrix oracle cannot run classically conditioned gates"
                )
            self.apply_gate(operation.matrix(), operation.target, operation.control_dict())
            self._post_gate_noise(factory, operation.name, operation.qubits)
            touched = operation.qubits
            if len(touched) >= 2:
                for pair in zip(touched, touched[1:]):
                    rate = noise_model.rates_for(operation.name, pair[1]).crosstalk
                    if rate > 0.0:
                        self.apply_correlated_pauli_channel(rate, pair[0], pair[1])
