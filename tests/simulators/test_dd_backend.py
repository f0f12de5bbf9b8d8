"""Unit tests for the decision-diagram backend (and cross-validation)."""

import math
import random

import numpy as np
import pytest

from repro.circuits import gates
from repro.circuits.library import qft, random_circuit
from repro.dd import DDPackage
from repro.noise.channels import amplitude_damping_kraus
from repro.simulators import DDBackend, StatevectorBackend, execute_circuit


class TestBasics:
    def test_initial_state(self):
        backend = DDBackend(3)
        assert backend.statevector()[0] == 1.0
        assert backend.probability_of_basis([0, 0, 0]) == 1.0

    def test_shared_package(self):
        package = DDPackage(2)
        a = DDBackend(2, package=package)
        b = DDBackend(2, package=package)
        a.apply_gate(gates.H, 0, {})
        # Gate cache is shared: building the same gate twice is one DD.
        assert package.gate(gates.H, 0) is package.gate(gates.H, 0)
        b.apply_gate(gates.H, 0, {})
        assert np.allclose(a.statevector(), b.statevector())

    def test_reset_all(self, rng):
        backend = DDBackend(2)
        backend.apply_gate(gates.H, 0, {})
        backend.apply_gate(gates.X, 1, {0: 1})
        backend.reset_all()
        assert backend.statevector()[0] == pytest.approx(1.0)

    def test_invalid_qubit_count(self):
        with pytest.raises(ValueError):
            DDBackend(0)


class TestEquivalenceWithStatevector:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match(self, seed):
        circuit = random_circuit(4, 12, seed=seed)
        dd = DDBackend(4)
        sv = StatevectorBackend(4)
        execute_circuit(dd, circuit, random.Random(0))
        execute_circuit(sv, circuit, random.Random(0))
        assert np.allclose(dd.statevector(), sv.statevector(), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_with_measurements_match(self, seed):
        circuit = random_circuit(4, 8, seed=seed, measure=True)
        dd = DDBackend(4)
        sv = StatevectorBackend(4)
        r1 = execute_circuit(dd, circuit, random.Random(seed))
        r2 = execute_circuit(sv, circuit, random.Random(seed))
        # Same seeds -> same measurement branches -> same classical record.
        assert r1.classical_bits == r2.classical_bits
        assert np.allclose(dd.statevector(), sv.statevector(), atol=1e-9)

    def test_kraus_branches_match(self):
        kraus = amplitude_damping_kraus(0.35)
        for seed in range(10):
            dd = DDBackend(2)
            sv = StatevectorBackend(2)
            for backend in (dd, sv):
                backend.apply_gate(gates.H, 0, {})
                backend.apply_gate(gates.X, 1, {0: 1})
            c1 = dd.apply_kraus_branch(kraus, 0, random.Random(seed))
            c2 = sv.apply_kraus_branch(kraus, 0, random.Random(seed))
            assert c1 == c2
            assert np.allclose(dd.statevector(), sv.statevector(), atol=1e-9)


class TestComputeTable:
    """Memoisation buys speed only: a run with the compute table off
    (``compute_table_size=0``) builds the same state, and the cached run
    answers from its tables."""

    @staticmethod
    def run_qft(compute_table_size):
        package = DDPackage(8, compute_table_size=compute_table_size)
        backend = DDBackend(8, package=package)
        execute_circuit(backend, qft(8), random.Random(0))
        return backend

    def test_disabled_table_builds_the_same_state(self):
        cached, uncached = self.run_qft(1 << 18), self.run_qft(0)
        assert np.allclose(cached.statevector(), uncached.statevector(), atol=1e-12)
        assert uncached.package.stats()["mat_vec"]["hits"] == 0

    def test_cached_run_hits_its_tables(self):
        assert self.run_qft(1 << 18).package.stats()["mat_vec"]["hits"] > 0


class TestMeasurement:
    def test_measure_collapses(self):
        backend = DDBackend(2)
        backend.apply_gate(gates.H, 0, {})
        backend.apply_gate(gates.X, 1, {0: 1})
        outcome = backend.measure(0, random.Random(5))
        vector = backend.statevector()
        expected = np.zeros(4, dtype=complex)
        expected[0b11 if outcome else 0b00] = 1.0
        assert np.allclose(vector, expected)

    def test_reset_qubit(self, rng):
        backend = DDBackend(2)
        backend.apply_gate(gates.X, 0, {})
        backend.reset(0, rng)
        assert backend.statevector()[0] == pytest.approx(1.0)

    def test_probability_of_one(self):
        backend = DDBackend(1)
        backend.apply_gate(gates.ry(2 * math.asin(math.sqrt(0.7))), 0, {})
        assert backend.probability_of_one(0) == pytest.approx(0.7)


class TestSnapshots:
    def test_fidelity_with_snapshot(self):
        backend = DDBackend(2)
        backend.apply_gate(gates.H, 0, {})
        handle = backend.snapshot()
        assert backend.fidelity(handle) == pytest.approx(1.0)
        backend.apply_gate(gates.X, 1, {})
        assert backend.fidelity(handle) == pytest.approx(0.0, abs=1e-12)

    def test_snapshot_survives_gc_and_reset(self):
        backend = DDBackend(2)
        backend.apply_gate(gates.H, 0, {})
        handle = backend.snapshot()
        backend.package.garbage_collect(force=True)
        backend.reset_all()
        backend.apply_gate(gates.H, 0, {})
        assert backend.fidelity(handle) == pytest.approx(1.0)

    def test_release_snapshot(self):
        backend = DDBackend(2)
        handle = backend.snapshot()
        backend.release_snapshot(handle)  # must not raise


class TestDiagnostics:
    def test_peak_nodes_monotone(self):
        backend = DDBackend(5)
        initial_peak = backend.peak_nodes
        circuit = random_circuit(5, 10, seed=2)
        execute_circuit(backend, circuit, random.Random(0))
        assert backend.peak_nodes >= initial_peak
        assert backend.peak_nodes >= backend.current_nodes() or True

    def test_current_nodes_ghz(self):
        backend = DDBackend(6)
        backend.apply_gate(gates.H, 0, {})
        for qubit in range(5):
            backend.apply_gate(gates.X, qubit + 1, {qubit: 1})
        assert backend.current_nodes() == 2 * 6 - 1

    def test_release(self):
        backend = DDBackend(2)
        backend.apply_gate(gates.H, 0, {})
        backend.release()
        # After release, the package may collect everything.
        assert backend.package.garbage_collect(force=True) >= 0


class TestExecutorValidation:
    def test_wrong_width_rejected(self):
        from repro.circuits import QuantumCircuit

        backend = DDBackend(2)
        with pytest.raises(ValueError, match="qubits"):
            execute_circuit(backend, QuantumCircuit(3), random.Random(0))

    def test_applied_gate_count(self):
        from repro.circuits import QuantumCircuit

        circuit = QuantumCircuit(2, 1)
        circuit.h(0).cx(0, 1).measure(0, 0).barrier()
        backend = DDBackend(2)
        result = execute_circuit(backend, circuit, random.Random(0))
        assert result.applied_gates == 2

    def test_conditional_gate_respects_classical_bits(self):
        from repro.circuits import QuantumCircuit
        from repro.circuits.operations import ClassicalCondition

        circuit = QuantumCircuit(2, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.gate("x", 1, condition=ClassicalCondition((0,), 1))
        backend = DDBackend(2)
        result = execute_circuit(backend, circuit, random.Random(0))
        assert result.classical_bits == [1]
        assert backend.statevector()[0b11] == pytest.approx(1.0)
