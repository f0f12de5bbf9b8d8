"""Tests for the single-qubit gate-fusion pass."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import QuantumCircuit, gates
from repro.circuits.library import basis_trotter, random_circuit
from repro.circuits.optimize import fuse_single_qubit_runs, matrix_to_u3_params
from repro.noise import NoiseModel
from repro.simulators import DDBackend, execute_circuit
from repro.stochastic import BasisProbability, simulate_stochastic

from ..conftest import random_unitary


def states_equal_up_to_phase(a, b, atol=1e-9):
    overlap = np.vdot(a, b)
    return abs(abs(overlap) - 1.0) < atol


def simulate(circuit, seed=0):
    backend = DDBackend(circuit.num_qubits)
    execute_circuit(backend, circuit, random.Random(seed))
    return backend.statevector()


class TestU3Decomposition:
    @pytest.mark.parametrize(
        "matrix",
        [gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.T, gates.SX,
         gates.rx(0.7), gates.ry(-1.3), gates.rz(2.2), gates.u2(0.4, -0.9)],
        ids=["x", "y", "z", "h", "s", "t", "sx", "rx", "ry", "rz", "u2"],
    )
    def test_standard_gates_round_trip(self, matrix):
        theta, phi, lam = matrix_to_u3_params(matrix)
        rebuilt = gates.u3(theta, phi, lam)
        # Equal up to global phase.
        ratio = None
        for row in range(2):
            for col in range(2):
                if abs(matrix[row, col]) > 1e-9:
                    ratio = rebuilt[row, col] / matrix[row, col]
                    break
            if ratio is not None:
                break
        assert ratio is not None
        assert np.allclose(rebuilt, ratio * matrix, atol=1e-9)
        assert abs(abs(ratio) - 1.0) < 1e-9

    def test_random_unitaries_round_trip(self, np_rng):
        for _ in range(20):
            matrix = random_unitary(np_rng)
            theta, phi, lam = matrix_to_u3_params(matrix)
            rebuilt = gates.u3(theta, phi, lam)
            product = rebuilt @ matrix.conj().T
            # Must be a global phase times identity.
            assert abs(abs(product[0, 0]) - 1.0) < 1e-9
            assert np.allclose(product, product[0, 0] * np.eye(2), atol=1e-9)

    def test_identity(self):
        theta, phi, lam = matrix_to_u3_params(np.eye(2))
        assert theta == 0.0

    def test_non_2x2_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_u3_params(np.eye(4))


class TestFusion:
    def test_run_fuses_to_single_u3(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).t(0).h(0).s(0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.num_gates() == 1
        assert fused.gate_operations()[0].name == "u3"

    def test_singleton_runs_kept_verbatim(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        fused = fuse_single_qubit_runs(circuit)
        assert [op.name for op in fused.gate_operations()] == ["h", "x", "h"]

    def test_fusion_blocked_by_controlled_gate(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).t(0)
        fused = fuse_single_qubit_runs(circuit)
        # h and t cannot merge across the CX on qubit 0.
        assert fused.num_gates() == 3

    def test_fusion_blocked_by_measurement(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0).measure(0, 0).h(0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.num_gates() == 2

    def test_independent_qubits_fuse_separately(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).t(0).t(1)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.num_gates() == 2
        targets = {op.target for op in fused.gate_operations()}
        assert targets == {0, 1}

    def test_barrier_flushes(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).barrier().t(0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.num_gates() == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_fusion_preserves_noiseless_semantics(self, seed):
        circuit = random_circuit(4, 15, seed=seed, two_qubit_probability=0.25)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.num_gates() <= circuit.num_gates()
        assert states_equal_up_to_phase(simulate(circuit), simulate(fused))

    def test_original_untouched(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).t(0)
        before = len(circuit)
        fuse_single_qubit_runs(circuit)
        assert len(circuit) == before

    def test_fused_circuit_name(self):
        circuit = QuantumCircuit(1, name="foo")
        assert fuse_single_qubit_runs(circuit).name == "foo_fused"

    def test_deep_rotation_chain_collapses(self):
        circuit = QuantumCircuit(1)
        for k in range(50):
            circuit.rz(0.1, 0)
            circuit.rx(0.05, 0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.num_gates() == 1
        assert states_equal_up_to_phase(simulate(circuit), simulate(fused))

    @pytest.mark.parametrize(
        "noise", [NoiseModel.noiseless(), NoiseModel.paper_defaults()],
        ids=["noiseless", "noisy"],
    )
    def test_fused_basis_trotter_runs_stochastically(self, noise):
        """Both arms of the fusion ablation run through the stochastic
        simulator.  Noiseless, the fused circuit estimates what the original
        does; under noise it has fewer error slots, so its estimate differs."""
        original = basis_trotter(4, layers=40)
        fused = fuse_single_qubit_runs(original)
        assert fused.num_gates() < original.num_gates()
        results = [
            simulate_stochastic(
                circuit, noise, [BasisProbability("0101")], trajectories=5,
                seed=0, sample_shots=0,
            )
            for circuit in (original, fused)
        ]
        assert [r.completed_trajectories for r in results] == [5, 5]
        if noise.is_noiseless:
            assert results[0].mean("P(|0101>)") == pytest.approx(0.479, abs=1e-3)
            assert results[1].mean("P(|0101>)") == pytest.approx(
                results[0].mean("P(|0101>)"), abs=1e-9
            )
