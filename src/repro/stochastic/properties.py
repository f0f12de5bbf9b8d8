"""Quadratic property estimators and the Theorem 1 sample-size bound.

The paper's estimation targets are quadratic functions of the state,
``o_l = |<omega_l | psi>|^2`` (Section III, Eq. 1): basis-state outcome
probabilities, fidelities with reference states, and derived quantities.
Every property below is a picklable *specification* evaluated against a
backend after each trajectory; the Monte-Carlo average of the per-trajectory
values estimates the ensemble property.

Theorem 1 (Hoeffding + union bound) gives the number of trajectories needed
to estimate ``L`` such properties to accuracy ``epsilon`` with confidence
``1 - delta``.  Note a discrepancy in the paper: the theorem states
``M = log(2L/delta) / (2 epsilon)^2``, but the standard Hoeffding bound for
[0, 1]-valued samples requires ``M = log(2L/delta) / (2 epsilon^2)`` — a
factor 2 more.  (The paper's own numeric example — M = 30 000 for L = 1000,
epsilon = 0.01, delta = 0.05 — matches its printed formula, 26 492.)  Both
conventions are provided; the conservative one is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "hoeffding_samples",
    "hoeffding_epsilon",
    "BasisProbability",
    "StateFidelity",
    "IdealFidelity",
    "ExpectationZ",
    "PauliExpectation",
    "ClassicalOutcome",
    "PropertySpec",
    "require_unique_names",
]


def hoeffding_samples(
    num_properties: int,
    epsilon: float,
    delta: float,
    paper_convention: bool = False,
) -> int:
    """Samples sufficient for ``max_l |o_hat_l - o_l| <= epsilon`` w.p. >= 1 - delta.

    Parameters
    ----------
    num_properties:
        Number ``L`` of simultaneously estimated quadratic properties.
    epsilon:
        Target accuracy in (0, 1).
    delta:
        Failure probability in (0, 1).
    paper_convention:
        Use the paper's printed ``(2 epsilon)^2`` denominator instead of
        the standard Hoeffding ``2 epsilon^2`` (which is twice as many
        samples and is the rigorous bound for [0, 1]-valued estimates).
    """
    if num_properties < 1:
        raise ValueError("num_properties must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    numerator = math.log(2.0 * num_properties / delta)
    denominator = (2.0 * epsilon) ** 2 if paper_convention else 2.0 * epsilon**2
    return int(math.ceil(numerator / denominator))


def hoeffding_epsilon(
    num_properties: int,
    num_samples: int,
    delta: float,
    paper_convention: bool = False,
) -> float:
    """Accuracy guaranteed by ``num_samples`` trajectories (Theorem 1 inverted)."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    numerator = math.log(2.0 * num_properties / delta)
    if paper_convention:
        return 0.5 * math.sqrt(numerator / num_samples)
    return math.sqrt(numerator / (2.0 * num_samples))


@dataclass(frozen=True)
class BasisProbability:
    """Outcome probability of one computational basis state.

    ``bits`` is the basis label with qubit 0 (most significant) leftmost,
    e.g. ``"000"`` for |000>.
    """

    bits: str

    def __post_init__(self) -> None:
        if not self.bits or any(b not in "01" for b in self.bits):
            raise ValueError(f"invalid basis label {self.bits!r}")

    @property
    def name(self) -> str:
        return f"P(|{self.bits}>)"

    def evaluate(self, backend, run_result, context) -> float:
        return backend.probability_of_basis([int(b) for b in self.bits])


@dataclass(frozen=True)
class StateFidelity:
    """Fidelity ``|<target|psi>|^2`` with an explicit pure reference state.

    The target is stored as a dense vector (picklable); workers convert it
    into their backend's native representation once.
    """

    target: Tuple[complex, ...]
    label: str = "target"

    @classmethod
    def from_vector(cls, vector: Sequence[complex], label: str = "target") -> "StateFidelity":
        array = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(array)
        if norm == 0.0:
            raise ValueError("target state must be non-zero")
        array = array / norm
        return cls(tuple(complex(x) for x in array), label)

    @property
    def name(self) -> str:
        return f"F({self.label})"

    def evaluate(self, backend, run_result, context) -> float:
        handle = context.target_handle(self, backend)
        return backend.fidelity(handle)


@dataclass(frozen=True)
class IdealFidelity:
    """Fidelity with the circuit's noiseless output state.

    Each worker simulates the circuit once without noise (on its own
    backend) and reuses that snapshot for every trajectory.  Only valid for
    measurement-free circuits — the ideal output of a circuit with
    mid-circuit measurements is itself random.
    """

    @property
    def name(self) -> str:
        return "F(ideal)"

    def evaluate(self, backend, run_result, context) -> float:
        handle = context.ideal_handle(backend)
        return backend.fidelity(handle)


@dataclass(frozen=True)
class ExpectationZ:
    """Pauli-Z expectation value on one qubit.

    Derived from the quadratic marginal ``p_1``: ``<Z> = 1 - 2 p_1``.  Note
    the range is [-1, 1]; when budgeting samples through Theorem 1 treat it
    as two properties (or halve epsilon).
    """

    qubit: int

    @property
    def name(self) -> str:
        return f"<Z_{self.qubit}>"

    def evaluate(self, backend, run_result, context) -> float:
        return 1.0 - 2.0 * backend.probability_of_one(self.qubit)


@dataclass(frozen=True)
class PauliExpectation:
    """Expectation value of a multi-qubit Pauli string, e.g. ``"ZZI"``.

    One letter per qubit, qubit 0 leftmost.  Values lie in [-1, 1]; when
    budgeting samples through Theorem 1 use ``value_range = 2``.
    """

    pauli: str

    def __post_init__(self) -> None:
        if not self.pauli or any(c not in "IXYZ" for c in self.pauli.upper()):
            raise ValueError(f"invalid Pauli string {self.pauli!r}")

    @property
    def name(self) -> str:
        return f"<{self.pauli.upper()}>"

    def evaluate(self, backend, run_result, context) -> float:
        return backend.pauli_expectation(self.pauli.upper())


@dataclass(frozen=True)
class ClassicalOutcome:
    """Probability that the classical register equals ``value``.

    Estimated from the per-trajectory indicator — the natural property for
    circuits that measure (where collapse randomness is part of the
    ensemble, e.g. the counterfeit-coin readout).
    """

    value: int

    @property
    def name(self) -> str:
        return f"P(c={self.value})"

    def evaluate(self, backend, run_result, context) -> float:
        return 1.0 if run_result.classical_value() == self.value else 0.0


PropertySpec = Union[
    BasisProbability,
    StateFidelity,
    IdealFidelity,
    ExpectationZ,
    PauliExpectation,
    ClassicalOutcome,
]


def require_unique_names(properties: Sequence[PropertySpec]) -> None:
    """Raise ``ValueError`` if two properties share a name.

    Estimates and evaluation caches are keyed by name, so two properties
    with one name (e.g. two ``StateFidelity`` targets that both keep the
    default label) would share one estimate holding two values per
    trajectory, and the second target would never be evaluated."""
    seen = set()
    for prop in properties:
        if prop.name in seen:
            raise ValueError(
                f"duplicate property name {prop.name!r}: give each property "
                f"a distinct name (e.g. a StateFidelity label)"
            )
        seen.add(prop.name)
