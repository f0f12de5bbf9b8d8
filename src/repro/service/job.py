"""Job model: canonically serialised, content-addressed simulation work.

A :class:`JobSpec` captures everything that determines a stochastic
simulation's output — circuit (as OpenQASM 2.0 text), noise model,
property list, trajectory budget ``M``, master seed, backend kind, sampling
shots, and wall-clock budget.  Its canonical JSON form is hashed (SHA-256)
into a *job key*: two submissions with byte-identical canonical forms are
the same job, which is what lets the result store answer resubmissions
without running a single trajectory.

The per-trajectory seeds are derived from the master seed and the absolute
trajectory index (see ``repro.stochastic.runner``), so a job's result is a
pure function of its spec — the foundation the cache relies on.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.qasm import parse_qasm
from ..noise.model import ErrorRates, NoiseModel
from ..stochastic.properties import (
    BasisProbability,
    ClassicalOutcome,
    ExpectationZ,
    IdealFidelity,
    PauliExpectation,
    PropertySpec,
    StateFidelity,
    require_unique_names,
)
from ..stochastic.runner import AUTO_ENGINE, BACKEND_KINDS

__all__ = ["JobSpec", "JobState", "JobStatus", "StreamingEstimate", "job_engine"]

#: Canonical-format version; bump when the serialised layout changes so
#: stale cache entries can never be misread as current ones.
SPEC_VERSION = 1


class JobState(str, enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


def _rates_to_dict(rates: ErrorRates) -> Dict[str, float]:
    return {name: getattr(rates, name) for name in ErrorRates._FIELDS}


def _rates_from_dict(data: Dict[str, float]) -> ErrorRates:
    return ErrorRates(**{name: float(data.get(name, 0.0)) for name in ErrorRates._FIELDS})


def noise_to_dict(model: NoiseModel) -> Dict[str, object]:
    """Canonical plain-JSON form of a noise model."""
    return {
        "default": _rates_to_dict(model.default),
        "gate_overrides": [
            [name, _rates_to_dict(rates)]
            for name, rates in sorted(model.gate_overrides)
        ],
        "qubit_overrides": [
            [qubit, _rates_to_dict(rates)]
            for qubit, rates in sorted(model.qubit_overrides)
        ],
        "noisy_measure": model.noisy_measure,
        "damping_mode": model.damping_mode,
    }


def noise_from_dict(data: Dict[str, object]) -> NoiseModel:
    """Inverse of :func:`noise_to_dict`."""
    return NoiseModel(
        default=_rates_from_dict(data["default"]),
        gate_overrides=tuple(
            (str(name), _rates_from_dict(rates)) for name, rates in data["gate_overrides"]
        ),
        qubit_overrides=tuple(
            (int(qubit), _rates_from_dict(rates)) for qubit, rates in data["qubit_overrides"]
        ),
        noisy_measure=bool(data["noisy_measure"]),
        damping_mode=str(data["damping_mode"]),
    )


def property_to_dict(prop: PropertySpec) -> Dict[str, object]:
    """Canonical plain-JSON form of one property specification."""
    if isinstance(prop, BasisProbability):
        return {"type": "basis_probability", "bits": prop.bits}
    if isinstance(prop, StateFidelity):
        return {
            "type": "state_fidelity",
            "label": prop.label,
            "target": [[value.real, value.imag] for value in prop.target],
        }
    if isinstance(prop, IdealFidelity):
        return {"type": "ideal_fidelity"}
    if isinstance(prop, ExpectationZ):
        return {"type": "expectation_z", "qubit": prop.qubit}
    if isinstance(prop, PauliExpectation):
        return {"type": "pauli_expectation", "pauli": prop.pauli}
    if isinstance(prop, ClassicalOutcome):
        return {"type": "classical_outcome", "value": prop.value}
    raise TypeError(f"unsupported property specification: {prop!r}")


def property_from_dict(data: Dict[str, object]) -> PropertySpec:
    """Inverse of :func:`property_to_dict`."""
    kind = data["type"]
    if kind == "basis_probability":
        return BasisProbability(str(data["bits"]))
    if kind == "state_fidelity":
        return StateFidelity(
            target=tuple(complex(re, im) for re, im in data["target"]),
            label=str(data["label"]),
        )
    if kind == "ideal_fidelity":
        return IdealFidelity()
    if kind == "expectation_z":
        return ExpectationZ(int(data["qubit"]))
    if kind == "pauli_expectation":
        return PauliExpectation(str(data["pauli"]))
    if kind == "classical_outcome":
        return ClassicalOutcome(int(data["value"]))
    raise ValueError(f"unknown property type {kind!r}")


@dataclass(frozen=True)
class JobSpec:
    """Complete, content-addressable description of one simulation job."""

    circuit: QuantumCircuit
    noise_model: NoiseModel
    properties: Tuple[PropertySpec, ...] = ()
    trajectories: int = 1000
    seed: int = 0
    backend_kind: str = "dd"
    sample_shots: int = 1
    timeout: Optional[float] = None
    #: Execution-method request: ``"stochastic"`` (Monte-Carlo sampling),
    #: ``"exact"`` (forced density-matrix DD), or ``"auto"`` (the
    #: scheduler's cost model decides; see :mod:`repro.exact.cost`).
    method: str = "stochastic"

    def __post_init__(self) -> None:
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.method not in ("stochastic", "exact", "auto"):
            raise ValueError(
                f"method must be 'stochastic', 'exact', or 'auto', got {self.method!r}"
            )
        if self.backend_kind not in BACKEND_KINDS:
            # The engine selector is reachable only through method="auto".
            raise ValueError(
                f"backend_kind must be one of {BACKEND_KINDS}, got {self.backend_kind!r}"
            )
        object.__setattr__(self, "properties", tuple(self.properties))
        require_unique_names(self.properties)

    @classmethod
    def build(
        cls,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        properties: Sequence[PropertySpec] = (),
        trajectories: int = 1000,
        seed: int = 0,
        backend_kind: str = "dd",
        sample_shots: int = 1,
        timeout: Optional[float] = None,
        method: str = "stochastic",
    ) -> "JobSpec":
        """Convenience constructor mirroring ``simulate_stochastic``."""
        return cls(
            circuit=circuit,
            noise_model=noise_model or NoiseModel.paper_defaults(),
            properties=tuple(properties),
            trajectories=trajectories,
            seed=seed,
            backend_kind=backend_kind,
            sample_shots=sample_shots,
            timeout=timeout,
            method=method,
        )

    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-JSON form (the input to the content hash)."""
        payload = {
            "version": SPEC_VERSION,
            "circuit_name": self.circuit.name,
            "qasm": self.circuit.to_qasm(),
            "noise": noise_to_dict(self.noise_model),
            "properties": [property_to_dict(prop) for prop in self.properties],
            "trajectories": self.trajectories,
            "seed": self.seed,
            "backend": self.backend_kind,
            "sample_shots": self.sample_shots,
            "timeout": self.timeout,
        }
        # Omitted when default: pre-hybrid specs keep byte-identical
        # canonical forms, so existing job keys (and cached results) stay
        # valid without a SPEC_VERSION bump.
        if self.method != "stochastic":
            payload["method"] = self.method
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        """Inverse of :meth:`to_dict`."""
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported job spec version {version!r}")
        circuit = parse_qasm(str(data["qasm"]), name=str(data["circuit_name"]))
        return cls(
            circuit=circuit,
            noise_model=noise_from_dict(data["noise"]),
            properties=tuple(property_from_dict(p) for p in data["properties"]),
            trajectories=int(data["trajectories"]),
            seed=int(data["seed"]),
            backend_kind=str(data["backend"]),
            sample_shots=int(data["sample_shots"]),
            timeout=None if data["timeout"] is None else float(data["timeout"]),
            method=str(data.get("method", "stochastic")),
        )

    @property
    def chunk_backend(self) -> str:
        """``backend_kind`` this job's chunks run under: ``method="auto"``
        DD jobs leave the trajectory engine to each span's compile step
        (:data:`~repro.stochastic.runner.AUTO_ENGINE`); every other spec
        runs on the backend it names."""
        if self.method == "auto" and self.backend_kind == "dd":
            return AUTO_ENGINE
        return self.backend_kind

    def canonical_json(self) -> str:
        """Deterministic serialisation: sorted keys, no whitespace."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def job_key(self) -> str:
        """SHA-256 content address of the canonical form."""
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


def job_engine(spec: Optional[JobSpec], ran_on: Optional[str] = None) -> str:
    """Trajectory engine to report for a job: ``ran_on``, the engine of the
    trajectories it already holds, when known; else the spec's
    :attr:`JobSpec.chunk_backend` (``auto`` until an auto job's first span
    has picked); else ``"?"``."""
    if ran_on:
        return ran_on
    return "?" if spec is None else spec.chunk_backend


@dataclass(frozen=True)
class StreamingEstimate:
    """Point-in-time view of one property's running estimate."""

    name: str
    mean: float
    halfwidth: float  #: 95 % Hoeffding confidence half-width
    count: int

    @property
    def interval(self) -> Tuple[float, float]:
        return self.mean - self.halfwidth, self.mean + self.halfwidth


@dataclass
class JobStatus:
    """Snapshot of a job's progress, pollable while it runs."""

    key: str
    state: JobState
    circuit_name: str = ""
    requested_trajectories: int = 0
    completed_trajectories: int = 0
    estimates: Dict[str, StreamingEstimate] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    retries: int = 0
    cached: bool = False
    #: The *resolved* execution method ("stochastic" or "exact") — for
    #: ``method="auto"`` specs this records what the cost model chose.
    method: str = "stochastic"
    #: Trajectory engine of a stochastic job (see :func:`job_engine`):
    #: ``dd`` or ``statevector``, or ``auto`` before an auto job's first
    #: chunk has chosen; empty when unknown.
    engine: str = ""
    error: Optional[str] = None
    #: Observability snapshot merged from the chunk results seen so far
    #: (see :mod:`repro.obs`); empty until the first chunk reports.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def progress(self) -> float:
        """Fraction of the trajectory budget completed, in [0, 1]."""
        if self.requested_trajectories <= 0:
            return 0.0
        return min(1.0, self.completed_trajectories / self.requested_trajectories)

    def render(self) -> str:
        """Human-readable multi-line report (used by ``repro status``)."""
        lines = [
            f"job {self.key[:16]}… [{self.state.value}]"
            + (" (cache hit)" if self.cached else ""),
            f"  circuit: {self.circuit_name}",
            f"  method: {self.method}",
        ]
        if self.method != "exact" and self.engine:
            lines.append(f"  engine: {self.engine}")
        if self.method != "exact":
            lines.append(
                f"  trajectories: {self.completed_trajectories}/"
                f"{self.requested_trajectories} ({100.0 * self.progress:.1f}%)"
            )
        lines.append(
            f"  elapsed: {self.elapsed_seconds:.3f} s"
            + (f", chunk retries: {self.retries}" if self.retries else "")
        )
        for name, estimate in sorted(self.estimates.items()):
            low, high = estimate.interval
            lines.append(
                f"  {name}: {estimate.mean:.6f} "
                f"(95% Hoeffding [{low:.6f}, {high:.6f}], n={estimate.count})"
            )
        if self.error:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)
