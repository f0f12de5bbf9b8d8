"""Tests for Pauli-string expectation values on both backends."""

import math
import random

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, gates
from repro.circuits.library import ghz, random_circuit
from repro.simulators import DDBackend, StatevectorBackend, execute_circuit
from repro.stochastic import PauliExpectation, simulate_stochastic
from repro.noise import NoiseModel

from ..conftest import random_state


def dense_pauli(pauli: str) -> np.ndarray:
    matrices = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
    }
    result = np.array([[1.0]], dtype=complex)
    for letter in pauli:
        result = np.kron(result, matrices[letter])
    return result


class TestBackendsAgree:
    @pytest.mark.parametrize(
        "pauli", ["ZIII", "XXII", "IYZI", "ZZZZ", "XYZX", "IIII"]
    )
    def test_matches_dense_on_random_state(self, np_rng, pauli):
        vector = random_state(np_rng, 4)
        dd = DDBackend(4)
        dd._replace_state(dd.package.from_state_vector(vector))
        sv = StatevectorBackend(4, initial_state=vector)
        expected = float(np.real(np.vdot(vector, dense_pauli(pauli) @ vector)))
        assert dd.pauli_expectation(pauli) == pytest.approx(expected, abs=1e-9)
        assert sv.pauli_expectation(pauli) == pytest.approx(expected, abs=1e-9)

    def test_ghz_parity(self):
        """GHZ: <ZZ...Z> = 1 for even n... actually <Z^n> = 0 for odd-n
        amplitudes?  For GHZ_n: Z^{(x)n}|GHZ> = (|0..0> + (-1)^n |1..1>)/sqrt2,
        so the expectation is 1 for even n and 0 for odd n."""
        for n, expected in ((2, 1.0), (3, 0.0), (4, 1.0)):
            backend = DDBackend(n)
            execute_circuit(backend, ghz(n), random.Random(0))
            assert backend.pauli_expectation("Z" * n) == pytest.approx(expected, abs=1e-9)

    def test_ghz_xx_coherence(self):
        """<X^n> on GHZ is 1 (the coherence witness)."""
        backend = DDBackend(3)
        execute_circuit(backend, ghz(3), random.Random(0))
        assert backend.pauli_expectation("XXX") == pytest.approx(1.0)

    def test_validation(self):
        backend = DDBackend(2)
        with pytest.raises(ValueError):
            backend.pauli_expectation("Z")
        with pytest.raises(ValueError):
            backend.pauli_expectation("ZW")
        sv = StatevectorBackend(2)
        with pytest.raises(ValueError):
            sv.pauli_expectation("ZZZ")


class TestPauliExpectationProperty:
    def test_name_and_validation(self):
        assert PauliExpectation("zzi").name == "<ZZI>"
        with pytest.raises(ValueError):
            PauliExpectation("ABC")
        with pytest.raises(ValueError):
            PauliExpectation("")

    def test_noisy_estimate_decays_toward_zero(self):
        """Under depolarizing noise the GHZ coherence witness <XXX> decays
        from 1; the stochastic estimate must land between."""
        result = simulate_stochastic(
            ghz(3),
            NoiseModel.uniform(depolarizing=0.1),
            [PauliExpectation("XXX")],
            trajectories=800,
            seed=3,
        )
        value = result.mean("<XXX>")
        assert 0.3 < value < 0.98

    def test_noiseless_estimate_exact(self):
        result = simulate_stochastic(
            ghz(3),
            NoiseModel.noiseless(),
            [PauliExpectation("XXX"), PauliExpectation("ZZZ")],
            trajectories=10,
        )
        assert result.mean("<XXX>") == pytest.approx(1.0)
        assert result.mean("<ZZZ>") == pytest.approx(0.0, abs=1e-9)

    def test_backends_identical(self, monkeypatch):
        # Stratified sampling engages only on the DD backend; pin it off so
        # both backends run the identical naive estimator (the stratified
        # equivalence gate lives in tests/stochastic/test_strata.py).
        monkeypatch.setenv("REPRO_TRAJECTORY_MODE", "shared")
        kwargs = dict(
            noise_model=NoiseModel.paper_defaults().scaled(10),
            properties=[PauliExpectation("ZZII"), PauliExpectation("XXXX")],
            trajectories=80,
            seed=5,
        )
        dd = simulate_stochastic(ghz(4), backend="dd", **kwargs)
        sv = simulate_stochastic(ghz(4), backend="statevector", **kwargs)
        for name in dd.estimates:
            assert dd.mean(name) == pytest.approx(sv.mean(name), abs=1e-9)
