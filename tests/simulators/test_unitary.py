"""Tests for whole-circuit unitary DDs and DD-based equivalence checking."""

import math
import random

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.library import ghz, qft, random_circuit
from repro.circuits.optimize import fuse_single_qubit_runs
from repro.simulators import (
    DDBackend,
    circuit_unitary_dd,
    circuit_unitary_matrix,
    circuits_equivalent,
    execute_circuit,
)


class TestUnitaryConstruction:
    def test_empty_circuit_is_identity(self):
        circuit = QuantumCircuit(3)
        assert np.allclose(circuit_unitary_matrix(circuit), np.eye(8))

    def test_single_gate(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(circuit_unitary_matrix(circuit), expected)

    def test_gate_order(self):
        """Later gates multiply from the left."""
        circuit = QuantumCircuit(1)
        circuit.x(0).s(0)  # S @ X
        expected = np.diag([1, 1j]) @ np.array([[0, 1], [1, 0]])
        assert np.allclose(circuit_unitary_matrix(circuit), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuit_matches_gate_product(self, seed):
        circuit = random_circuit(3, 8, seed=seed)
        expected = np.eye(8, dtype=complex)
        from tests.dd.test_package_matrices import dense_controlled

        for gate in circuit.gate_operations():
            expected = dense_controlled(
                gate.matrix(), gate.target, gate.control_dict(), 3
            ) @ expected
        assert np.allclose(circuit_unitary_matrix(circuit), expected, atol=1e-9)

    def test_unitary_dd_of_qft_is_unitary(self):
        matrix = circuit_unitary_matrix(qft(4))
        assert np.allclose(matrix @ matrix.conj().T, np.eye(16), atol=1e-9)

    @pytest.mark.parametrize(
        "circuit", [ghz(10), qft(10, do_swaps=False)], ids=["ghz10", "qft10"]
    )
    def test_matrix_matrix_state_equals_matrix_vector_state(self, circuit):
        """The two DD simulation regimes of Zulehner/Wille (DATE 2019):
        compose the circuit unitary, then apply it once, or apply each
        gate to the state.  Both give the same state."""
        n = circuit.num_qubits
        backend = DDBackend(n)
        execute_circuit(backend, circuit, random.Random(0))
        package, unitary = circuit_unitary_dd(circuit)
        state = package.multiply(unitary, package.zero_state(n))
        assert package.get_amplitude(state, [0] * n) != 0
        assert np.allclose(
            package.to_state_vector(state, n), backend.statevector(), atol=1e-9
        )

    def test_measurement_rejected(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(ValueError, match="non-unitary"):
            circuit_unitary_matrix(circuit)

    def test_conditioned_gate_rejected(self):
        from repro.circuits.operations import ClassicalCondition

        circuit = QuantumCircuit(1, 1)
        circuit.gate("x", 0, condition=ClassicalCondition((0,), 1))
        with pytest.raises(ValueError, match="conditioned"):
            circuit_unitary_matrix(circuit)

    def test_barriers_ignored(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().cx(0, 1)
        reference = QuantumCircuit(2)
        reference.h(0).cx(0, 1)
        assert np.allclose(
            circuit_unitary_matrix(circuit), circuit_unitary_matrix(reference)
        )


class TestEquivalenceChecking:
    def test_identical_circuits(self):
        assert circuits_equivalent(qft(4), qft(4))

    def test_different_circuits(self):
        assert not circuits_equivalent(qft(3), ghz(3))

    def test_width_mismatch(self):
        assert not circuits_equivalent(ghz(3), ghz(4))

    def test_circuit_vs_inverse_composition(self):
        circuit = random_circuit(3, 10, seed=5)
        identity_like = circuit.copy()
        identity_like.extend(circuit.inverse())
        assert circuits_equivalent(identity_like, QuantumCircuit(3))

    def test_swap_decompositions_equivalent(self):
        """swap == reversed-direction swap (three CNOTs either way)."""
        a = QuantumCircuit(2)
        a.swap(0, 1)
        b = QuantumCircuit(2)
        b.cx(1, 0).cx(0, 1).cx(1, 0)
        assert circuits_equivalent(a, b)

    def test_fused_circuit_equivalent_up_to_phase(self):
        circuit = random_circuit(3, 12, seed=7, two_qubit_probability=0.3)
        fused = fuse_single_qubit_runs(circuit)
        assert circuits_equivalent(circuit, fused)

    def test_global_phase_detected_in_strict_mode(self):
        a = QuantumCircuit(1)
        a.rz(math.pi, 0)  # = -i Z
        b = QuantumCircuit(1)
        b.z(0)
        assert circuits_equivalent(a, b, up_to_global_phase=True)
        assert not circuits_equivalent(a, b, up_to_global_phase=False)

    def test_detects_single_gate_difference(self):
        a = qft(4)
        b = qft(4)
        b.z(2)  # sneak in one extra gate
        assert not circuits_equivalent(a, b)

    def test_detects_parameter_perturbation(self):
        a = QuantumCircuit(2)
        a.h(0).crz(0.5, 0, 1)
        b = QuantumCircuit(2)
        b.h(0).crz(0.5001, 0, 1)
        assert not circuits_equivalent(a, b)

    def test_ghz_preparations_equivalent(self):
        """Chain CNOTs vs fan-out CNOTs build the same unitary?  They do
        not (different unitaries, same action on |0...0> only) — the check
        must distinguish state-preparation equality from unitary equality."""
        chain = ghz(3)
        fanout = QuantumCircuit(3)
        fanout.h(0).cx(0, 1).cx(0, 2)
        assert not circuits_equivalent(chain, fanout)
        # But both prepare the same state from |000>:
        import random as random_module

        from repro.simulators import DDBackend, execute_circuit

        s1, s2 = DDBackend(3), DDBackend(3)
        execute_circuit(s1, chain, random_module.Random(0))
        execute_circuit(s2, fanout, random_module.Random(0))
        assert np.allclose(s1.statevector(), s2.statevector())
