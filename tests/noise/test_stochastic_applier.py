"""Unit tests for the stochastic error insertion hook."""

import random

import numpy as np
import pytest

from repro.circuits import gates
from repro.circuits.library import ghz
from repro.noise import ErrorRates, NoiseModel, StochasticErrorApplier
from repro.noise.stochastic import (
    CROSSTALK,
    DAMPING,
    DEPOLARIZING,
    MECHANISMS,
    PHASE_FLIP,
)
from repro.simulators import DDBackend, StatevectorBackend, execute_circuit


class TestNoiselessPassthrough:
    def test_no_errors_no_state_change(self, rng):
        backend = DDBackend(2)
        backend.apply_gate(gates.H, 0, {})
        before = backend.statevector()
        applier = StochasticErrorApplier(NoiseModel.noiseless(), rng)
        applier(backend, (0, 1), "h")
        assert np.allclose(backend.statevector(), before)
        assert all(count == 0 for count in applier.fired.values())


class TestDepolarizing:
    def test_fire_rate_statistics(self):
        model = NoiseModel.uniform(depolarizing=0.25)
        fired = 0
        trials = 1000
        for seed in range(trials):
            backend = DDBackend(1)
            applier = StochasticErrorApplier(model, random.Random(seed))
            applier(backend, (0,), "h")
            fired += applier.fired["depolarizing"]
        assert fired / trials == pytest.approx(0.25, abs=0.04)

    def test_uniform_pauli_choice(self):
        """Conditioned on firing, X/Y/Z each occur ~1/4 of the time (I is a
        no-op and also counts as fired, per paper Example 3)."""
        model = NoiseModel.uniform(depolarizing=1.0)
        changed = 0
        trials = 800
        for seed in range(trials):
            backend = DDBackend(1)
            applier = StochasticErrorApplier(model, random.Random(seed))
            applier(backend, (0,), "h")
            # X or Y moves |0> off itself; Z and I leave P(|0>) = 1.
            if backend.probability_of_basis([0]) < 0.5:
                changed += 1
        assert changed / trials == pytest.approx(0.5, abs=0.06)


class TestAmplitudeDamping:
    def test_ground_state_unaffected(self, rng):
        model = NoiseModel.uniform(amplitude_damping=0.9)
        backend = DDBackend(1)
        applier = StochasticErrorApplier(model, rng)
        applier(backend, (0,), "x")
        assert backend.probability_of_basis([0]) == pytest.approx(1.0)
        assert applier.fired["amplitude_damping"] == 0

    def test_excited_state_decay_statistics(self):
        p = 0.35
        model = NoiseModel.uniform(amplitude_damping=p)
        decays = 0
        trials = 800
        for seed in range(trials):
            backend = DDBackend(1)
            backend.apply_gate(gates.X, 0, {})
            applier = StochasticErrorApplier(model, random.Random(seed))
            applier(backend, (0,), "x")
            decays += applier.fired["amplitude_damping"]
        assert decays / trials == pytest.approx(p, abs=0.05)

    def test_superposition_branch_probability(self):
        """On |+>, the decay branch fires with probability p/2 (Example 6
        logic on a single qubit)."""
        p = 0.5
        model = NoiseModel.uniform(amplitude_damping=p)
        decays = 0
        trials = 1000
        for seed in range(trials):
            backend = DDBackend(1)
            backend.apply_gate(gates.H, 0, {})
            applier = StochasticErrorApplier(model, random.Random(seed))
            applier(backend, (0,), "h")
            decays += applier.fired["amplitude_damping"]
        assert decays / trials == pytest.approx(p / 2, abs=0.05)


class TestPhaseFlip:
    def test_phase_flip_applies_z(self):
        model = NoiseModel.build(
            default=ErrorRates(phase_flip=1.0), noisy_measure=True
        )
        backend = DDBackend(1)
        backend.apply_gate(gates.H, 0, {})
        applier = StochasticErrorApplier(model, random.Random(0))
        applier(backend, (0,), "h")
        vector = backend.statevector()
        # |+> -> |->
        assert vector[0] * vector[1] < 0 or abs(vector[0] + vector[1]) < 1e-9

    def test_invisible_on_basis_states(self, rng):
        model = NoiseModel.uniform(phase_flip=1.0)
        backend = DDBackend(1)
        applier = StochasticErrorApplier(model, rng)
        applier(backend, (0,), "x")
        assert backend.probability_of_basis([0]) == pytest.approx(1.0)


class TestMeasurementNoiseFlag:
    def test_noisy_measure_disabled(self, rng):
        model = NoiseModel.build(
            default=ErrorRates(1.0, 1.0, 1.0), noisy_measure=False
        )
        backend = DDBackend(1)
        applier = StochasticErrorApplier(model, rng)
        applier(backend, (0,), "measure")
        assert all(count == 0 for count in applier.fired.values())

    def test_noisy_measure_enabled_by_default(self, rng):
        model = NoiseModel.uniform(depolarizing=1.0)
        backend = DDBackend(1)
        applier = StochasticErrorApplier(model, rng)
        applier(backend, (0,), "measure")
        assert applier.fired["depolarizing"] == 1


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        model = NoiseModel.paper_defaults().scaled(50)
        circuit = ghz(4)
        states = []
        for _ in range(2):
            rng = random.Random(123)
            backend = DDBackend(4)
            applier = StochasticErrorApplier(model, rng)
            execute_circuit(backend, circuit, rng, error_hook=applier)
            states.append(backend.statevector())
        assert np.allclose(states[0], states[1])

    def test_backends_agree_given_same_seed(self):
        model = NoiseModel.paper_defaults().scaled(50)
        circuit = ghz(4)
        results = {}
        for kind, backend in (("dd", DDBackend(4)), ("sv", StatevectorBackend(4))):
            rng = random.Random(7)
            applier = StochasticErrorApplier(model, rng)
            execute_circuit(backend, circuit, rng, error_hook=applier)
            results[kind] = backend.statevector()
        assert np.allclose(results["dd"], results["sv"], atol=1e-9)


class _ScriptedRandom(random.Random):
    """Serves ``script`` first (floats to ``random()``, ints to
    ``randrange()``), then the seeded stream untouched."""

    def __init__(self, seed, script=()):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        return self.script.pop(0) if self.script else super().random()

    def randrange(self, *args):
        return self.script.pop(0) if self.script else super().randrange(*args)


class TestApplyFirstError:
    """``apply_first_error`` continues a slot exactly as ``__call__`` does
    once that slot's first state-changing draw has fired."""

    MODEL = NoiseModel(
        default=ErrorRates(
            depolarizing=0.1, amplitude_damping=0.2, phase_flip=0.1, crosstalk=0.1
        )
    )
    QUBITS = (2, 0, 1)

    def _backend(self):
        backend = DDBackend(3)
        for qubit in range(3):
            backend.apply_gate(gates.H, qubit, {})  # P(1) > 0: damping draws
        return backend

    @pytest.mark.parametrize(
        "index, mechanism, branch",
        [
            *[(index, DEPOLARIZING, 2) for index in range(3)],
            *[(index, DAMPING, 0) for index in range(3)],
            *[(index, PHASE_FLIP, 0) for index in range(3)],
            (0, CROSSTALK, 7),
            (1, CROSSTALK, 13),
        ],
    )
    def test_matches_the_applier_after_that_draw(self, index, mechanism, branch):
        # Script every earlier draw of the slot not to fire and this one
        # to fire with ``branch``; everything after comes from seed 99.
        if mechanism == CROSSTALK:
            earlier = 3 * len(self.QUBITS) + index
        else:
            earlier = 3 * index + mechanism
        script = [0.999] * earlier + [0.0]
        if mechanism in (DEPOLARIZING, CROSSTALK):
            script.append(branch)
        whole, resumed = self._backend(), self._backend()
        applier = StochasticErrorApplier(self.MODEL, _ScriptedRandom(99, script))
        applier(whole, self.QUBITS, "ccx")
        assert not applier.rng.script
        first = StochasticErrorApplier(self.MODEL, _ScriptedRandom(99))
        first.apply_first_error(resumed, self.QUBITS, "ccx", index, mechanism, branch)
        assert np.array_equal(whole.statevector(), resumed.statevector())
        assert first.fired == applier.fired
        assert first.fired[MECHANISMS[mechanism]] >= 1
        assert first.rng.getstate() == applier.rng.getstate()
