"""Dense state-vector backend (the array-based baseline).

This is the reproduction's stand-in for the paper's comparison simulators —
Qiskit's ``statevector`` simulator and Atos QLM's ``LinAlg`` engine (both
closed to this offline environment).  Like them it stores all ``2**n``
amplitudes in a flat array and pays O(2**n) work per gate, which is exactly
the scaling behaviour Tables Ia-Ic measure against.

Gates are applied in-place through NumPy tensor views: the state is held as
an ``(2,) * n`` array whose axis ``q`` is qubit ``q`` (qubit 0 most
significant, the paper's convention), controls select sub-views, and the
2x2 matrix contracts against the target axis.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["StatevectorBackend"]


class StatevectorBackend:
    """Array-based simulator backend implementing :class:`StateBackend`."""

    def __init__(self, num_qubits: int, initial_state: Optional[np.ndarray] = None) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_qubits > 30:
            raise ValueError(
                f"a dense state vector over {num_qubits} qubits needs "
                f"{(2 ** num_qubits * 16) / 2 ** 30:.0f} GiB — refusing"
            )
        self.num_qubits = num_qubits
        if initial_state is None:
            state = np.zeros(2**num_qubits, dtype=complex)
            state[0] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).reshape(-1)
            if state.shape[0] != 2**num_qubits:
                raise ValueError("initial state has wrong dimension")
        self._state = state.reshape((2,) * num_qubits)

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------

    def apply_gate(self, matrix: np.ndarray, target: int, controls: Dict[int, int]) -> None:
        """Apply a controlled single-qubit unitary in place.

        Diagonal gates (phase rotations — the bulk of QFT-style circuits)
        take a fast path: an in-place scalar multiply of the two target
        slices instead of a tensor contraction.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix[0, 1] == 0 and matrix[1, 0] == 0:
            self._apply_diagonal(matrix, target, controls)
            return
        view, view_target = self._control_view(target, controls)
        updated = np.tensordot(matrix, view, axes=([1], [view_target]))
        updated = np.moveaxis(updated, 0, view_target)
        if controls:
            index = self._control_index(controls)
            self._state[index] = updated
        else:
            self._state = np.ascontiguousarray(updated)

    def _apply_diagonal(
        self, matrix: np.ndarray, target: int, controls: Dict[int, int]
    ) -> None:
        for bit in range(2):
            factor = matrix[bit, bit]
            if factor == 1:
                continue
            index = [slice(None)] * self.num_qubits
            for qubit, polarity in controls.items():
                index[qubit] = polarity
            index[target] = bit
            self._state[tuple(index)] *= factor

    def _control_index(self, controls: Dict[int, int]):
        index = [slice(None)] * self.num_qubits
        for qubit, polarity in controls.items():
            index[qubit] = polarity
        return tuple(index)

    def _control_view(self, target: int, controls: Dict[int, int]):
        """Sub-view selected by the controls plus the target's axis there."""
        if not controls:
            return self._state, target
        index = self._control_index(controls)
        view = self._state[index]
        # Axes before `target` that were consumed by integer indexing shift
        # the target's position in the reduced view.
        consumed = sum(1 for qubit in controls if qubit < target)
        return view, target - consumed

    # ------------------------------------------------------------------
    # Probabilities and measurement
    # ------------------------------------------------------------------

    def probability_of_one(self, qubit: int) -> float:
        index = [slice(None)] * self.num_qubits
        index[qubit] = 1
        slice_one = self._state[tuple(index)]
        return float(np.vdot(slice_one, slice_one).real) / self.squared_norm()

    def measure(self, qubit: int, rng: random.Random) -> int:
        p_one = self.probability_of_one(qubit)
        outcome = 1 if rng.random() < p_one else 0
        index = [slice(None)] * self.num_qubits
        index[qubit] = 1 - outcome
        self._state[tuple(index)] = 0.0
        self.renormalize()
        return outcome

    def reset(self, qubit: int, rng: random.Random) -> None:
        outcome = self.measure(qubit, rng)
        if outcome == 1:
            x_matrix = np.array([[0, 1], [1, 0]], dtype=complex)
            self.apply_gate(x_matrix, qubit, {})

    def apply_kraus_branch(
        self, kraus_operators: Sequence[np.ndarray], qubit: int, rng: random.Random
    ) -> int:
        """State-dependent Kraus branch selection (paper Example 6)."""
        candidates = []
        probabilities = []
        for kraus in kraus_operators:
            view, view_target = self._control_view(qubit, {})
            candidate = np.tensordot(np.asarray(kraus, dtype=complex), view, axes=([1], [view_target]))
            candidate = np.moveaxis(candidate, 0, view_target)
            weight = float(np.vdot(candidate, candidate).real)
            candidates.append(candidate)
            probabilities.append(weight)
        total = sum(probabilities)
        if total <= 0.0:
            raise ValueError("Kraus branch probabilities sum to zero")
        pick = rng.random() * total
        cumulative = 0.0
        chosen = len(candidates) - 1
        for index, weight in enumerate(probabilities):
            cumulative += weight
            if pick < cumulative:
                chosen = index
                break
        state = candidates[chosen]
        self._state = np.ascontiguousarray(state / math.sqrt(probabilities[chosen]))
        return chosen

    # ------------------------------------------------------------------
    # Properties and sampling
    # ------------------------------------------------------------------

    def probability_of_basis(self, bits: Sequence[int]) -> float:
        amplitude = self._state[tuple(int(b) for b in bits)]
        return float(abs(amplitude) ** 2)

    def squared_norm(self) -> float:
        """Squared norm of the current state (the runner's drift guard)."""
        return float(np.vdot(self._state, self._state).real)

    def scale_state(self, factor: complex) -> None:
        """Multiply the state by a scalar (breaks normalisation on purpose;
        the drift-fault injection site and numerical-guard tests use this)."""
        self._state *= factor

    def renormalize(self) -> None:
        """Rescale the state back to unit norm."""
        self._state /= math.sqrt(self.squared_norm())

    def snapshot(self) -> np.ndarray:
        return self._state.reshape(-1).copy()

    def fidelity(self, handle: np.ndarray) -> float:
        overlap = np.vdot(handle, self._state.reshape(-1))
        return float(abs(overlap) ** 2)

    def statevector(self) -> np.ndarray:
        return self._state.reshape(-1).copy()

    def pauli_expectation(self, pauli: str) -> float:
        """Expectation value ``<psi| P |psi>`` of a Pauli string.

        ``pauli`` has one letter (I/X/Y/Z) per qubit, qubit 0 leftmost.
        """
        if len(pauli) != self.num_qubits:
            raise ValueError(
                f"Pauli string must have {self.num_qubits} letters, got {len(pauli)}"
            )
        matrices = {
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        transformed = self._state
        for qubit, letter in enumerate(pauli.upper()):
            if letter == "I":
                continue
            if letter not in matrices:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            transformed = np.moveaxis(
                np.tensordot(matrices[letter], transformed, axes=([1], [qubit])),
                0,
                qubit,
            )
        return float(np.vdot(self._state, transformed).real)

    def sample_counts(self, shots: int, rng: random.Random) -> Dict[str, int]:
        probabilities = np.abs(self._state.reshape(-1)) ** 2
        probabilities = probabilities / probabilities.sum()
        # Use the provided rng for reproducibility across backends.
        counts: Dict[str, int] = {}
        cumulative = np.cumsum(probabilities)
        for _ in range(shots):
            index = int(np.searchsorted(cumulative, rng.random(), side="right"))
            index = min(index, len(probabilities) - 1)
            key = format(index, f"0{self.num_qubits}b")
            counts[key] = counts.get(key, 0) + 1
        return counts
