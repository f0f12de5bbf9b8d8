"""Tests for the content-addressed job model."""

import pytest

from repro.circuits.library import ghz, qft
from repro.noise import ErrorRates, NoiseModel
from repro.service import JobSpec
from repro.service.job import (
    noise_from_dict,
    noise_to_dict,
    property_from_dict,
    property_to_dict,
)
from repro.stochastic import (
    BasisProbability,
    ClassicalOutcome,
    ExpectationZ,
    IdealFidelity,
    PauliExpectation,
    StateFidelity,
)

ALL_PROPERTIES = (
    BasisProbability("010"),
    StateFidelity.from_vector([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], label="ghz"),
    IdealFidelity(),
    ExpectationZ(1),
    PauliExpectation("ZZI"),
    ClassicalOutcome(3),
)


def spec(**overrides) -> JobSpec:
    defaults = dict(
        circuit=ghz(3),
        noise_model=NoiseModel.paper_defaults(),
        properties=(BasisProbability("000"),),
        trajectories=50,
        seed=7,
        backend_kind="dd",
        sample_shots=1,
        timeout=None,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobKey:
    def test_key_is_deterministic(self):
        assert spec().job_key() == spec().job_key()

    def test_key_is_hex_sha256(self):
        key = spec().job_key()
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_key_survives_serialisation_round_trip(self):
        original = spec(properties=ALL_PROPERTIES)
        restored = JobSpec.from_dict(original.to_dict())
        assert restored.job_key() == original.job_key()

    @pytest.mark.parametrize(
        "change",
        [
            dict(trajectories=51),
            dict(seed=8),
            dict(backend_kind="statevector"),
            dict(sample_shots=0),
            dict(timeout=1.0),
            dict(circuit=qft(3)),
            dict(noise_model=NoiseModel.noiseless()),
            dict(properties=(BasisProbability("111"),)),
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert spec(**change).job_key() != spec().job_key()

    def test_equivalent_circuits_same_key(self):
        # Two independently built but identical circuits hash equally:
        # the key addresses content, not object identity.
        assert spec(circuit=ghz(3)).job_key() == spec(circuit=ghz(3)).job_key()


class TestSerialisation:
    def test_round_trip_preserves_fields(self):
        original = spec(properties=ALL_PROPERTIES, timeout=2.5)
        restored = JobSpec.from_dict(original.to_dict())
        assert restored.trajectories == 50
        assert restored.seed == 7
        assert restored.backend_kind == "dd"
        assert restored.timeout == 2.5
        assert restored.circuit.num_qubits == 3
        assert [p.name for p in restored.properties] == [
            p.name for p in original.properties
        ]

    def test_unknown_version_rejected(self):
        data = spec().to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            JobSpec.from_dict(data)

    def test_invalid_trajectories_rejected(self):
        with pytest.raises(ValueError, match="trajectories"):
            spec(trajectories=0)

    def test_duplicate_property_names_rejected(self):
        # Chunk results key estimates by name: a scheduled job with two
        # "F(target)" properties would fail every chunk's outcome check.
        targets = [
            StateFidelity.from_vector([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            StateFidelity.from_vector([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        ]
        with pytest.raises(ValueError, match=r"duplicate property name 'F\(target\)'"):
            spec(properties=targets)
        with pytest.raises(ValueError, match=r"'P\(\|000>\)'"):
            spec(properties=[BasisProbability("000"), BasisProbability("000")])

    @pytest.mark.parametrize("prop", ALL_PROPERTIES, ids=lambda p: type(p).__name__)
    def test_property_round_trip(self, prop):
        restored = property_from_dict(property_to_dict(prop))
        assert restored == prop

    def test_unknown_property_type_rejected(self):
        with pytest.raises(ValueError, match="unknown property"):
            property_from_dict({"type": "entropy"})

    def test_noise_round_trip_with_overrides(self):
        model = NoiseModel.build(
            default=ErrorRates(depolarizing=0.01),
            gate_overrides={"cx": ErrorRates(depolarizing=0.02, phase_flip=0.003)},
            qubit_overrides={2: ErrorRates(amplitude_damping=0.05)},
            noisy_measure=False,
            damping_mode="exact",
        )
        restored = noise_from_dict(noise_to_dict(model))
        assert restored == model
