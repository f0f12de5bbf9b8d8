"""Exact circuit evaluation over the density-matrix DD backend.

:class:`ExactSimulator` runs a noisy circuit *once* — no trajectories, no
shots — and evaluates the same :class:`~repro.stochastic.properties.PropertySpec`
objects the stochastic runner estimates, returning a
:class:`~repro.stochastic.results.StochasticResult` whose estimates are
marked ``exact`` (zero variance, zero Hoeffding half-width) and whose
``method`` field reads ``"exact"``.  Result consumers — the CLI summary,
the service store, the benchmark harness — need no special casing.

The execution schedule mirrors the dense oracle's
:meth:`~repro.simulators.density_matrix.DensityMatrixSimulator.run_circuit_with_model`
step for step (same channels, same order, same crosstalk pairing), so the
two exact backends agree to numerical tolerance and either can stand in as
the CI oracle for the other.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..noise.stochastic import exact_channel_factory
from ..obs import MetricsRegistry, delta_snapshots, merge_snapshots
from ..simulators.gateplan import GATE, MEASURE, RESET, compile_plan
from ..stochastic.properties import PropertySpec
from ..stochastic.results import PropertyEstimate, StochasticResult
from ..stochastic.runner import _EvaluationContext
from .backend import _MEASURE_PROJECTORS, _RESET_KRAUS, DensityDDBackend
from .cost import exact_unsupported_reason

__all__ = ["ExactSimulator", "simulate_exact", "default_node_ceiling"]

#: Environment override for the rho-DD node ceiling (the hybrid
#: scheduler's fallback trigger); unset or empty means "no ceiling".
NODE_CEILING_ENV = "REPRO_EXACT_NODE_CEILING"


def default_node_ceiling() -> Optional[int]:
    """Node ceiling from :data:`NODE_CEILING_ENV`, or ``None``."""
    raw = os.environ.get(NODE_CEILING_ENV, "").strip()
    if not raw:
        return None
    ceiling = int(raw)
    if ceiling < 1:
        raise ValueError(f"{NODE_CEILING_ENV} must be a positive integer, got {raw!r}")
    return ceiling


def _superop_matrix(kraus_operators) -> np.ndarray:
    """Liouville (superoperator) form ``sum_k K_k (x) K_k*`` of a channel."""
    total = np.zeros((4, 4), dtype=complex)
    for kraus in kraus_operators:
        kraus = np.asarray(kraus, dtype=complex)
        total += np.kron(kraus, kraus.conj())
    return total


def _compose_superops(channel_stack) -> tuple:
    """Fold an ordered stack of Kraus channels into one 4x4 superoperator.

    Returns ``(matrix, kraus_terms)`` or ``(None, 0)`` for an empty stack.
    Channels compose left-to-right in application order (later channels
    multiply on the left), exactly matching sequential application.
    """
    matrix = None
    terms = 0
    for kraus_operators in channel_stack:
        step = _superop_matrix(kraus_operators)
        matrix = step if matrix is None else step @ matrix
        terms += len(kraus_operators)
    return matrix, terms


class ExactSimulator:
    """One-pass exact evaluator with the stochastic runner's result shape."""

    def __init__(
        self, node_ceiling: Optional[int] = None, channel_mode: str = "superop"
    ) -> None:
        #: Rho-DD node budget; ``None`` defers to :data:`NODE_CEILING_ENV`.
        self.node_ceiling = (
            node_ceiling if node_ceiling is not None else default_node_ceiling()
        )
        if channel_mode not in ("superop", "kraus"):
            raise ValueError(
                f"channel_mode must be 'superop' or 'kraus', got {channel_mode!r}"
            )
        #: How noise channels hit rho: ``"superop"`` folds each site's
        #: channel stack into one 4x4 superoperator applied in a single DD
        #: traversal (the fast default); ``"kraus"`` applies every Kraus
        #: term as two DD multiplications (the paper-literal reference
        #: path).  The two are exactly the same linear map; tests pin them
        #: against each other.
        self.channel_mode = channel_mode

    def run(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        properties: Sequence[PropertySpec] = (),
    ) -> StochasticResult:
        """Evolve rho through ``circuit`` and evaluate every property exactly.

        Raises :class:`ValueError` for jobs the ensemble picture cannot
        express (classically conditioned gates, :class:`ClassicalOutcome`
        properties) and :class:`~repro.errors.ResourceLimitError` when the
        rho DD outgrows the node ceiling mid-flight.
        """
        reason = exact_unsupported_reason(circuit, properties)
        if reason is not None:
            raise ValueError(f"exact simulation unsupported: {reason}")
        started = time.perf_counter()
        metrics = MetricsRegistry()
        backend = DensityDDBackend(
            circuit.num_qubits, node_ceiling=self.node_ceiling
        )
        package = backend.package
        dd_before = package.metrics_snapshot()
        factory = exact_channel_factory(noise_model) if noise_model is not None else None
        try:
            plan = compile_plan(circuit, package=package, adjoints=True)
            self._evolve(backend, plan, factory, noise_model)
            # Reference states go into rho's package, so fidelities can
            # mix them with rho; the package goes with the backend.
            context = _EvaluationContext(circuit, "dd")
            estimates = {}
            for spec in properties:
                value = spec.evaluate(backend, None, context)
                estimate = PropertyEstimate(spec.name, exact=True)
                estimate.add(float(value))
                estimates[spec.name] = estimate
            elapsed = time.perf_counter() - started
            result = StochasticResult(
                circuit_name=circuit.name,
                backend_kind="dd",
                method="exact",
                requested_trajectories=0,
                completed_trajectories=0,
                estimates=estimates,
                elapsed_seconds=elapsed,
                cpu_seconds=elapsed,
                peak_nodes=backend.peak_nodes,
                workers=1,
            )
            dd_delta = delta_snapshots(package.metrics_snapshot(), dd_before)
            result.metrics = merge_snapshots(metrics.snapshot(), dd_delta)
            return result
        finally:
            backend.release()

    def _evolve(self, backend, plan, factory, noise_model) -> None:
        """Run the compiled schedule, mirroring the dense oracle's flow.

        The channel *order* is the dense oracle's
        ``run_circuit_with_model`` order exactly — gate, per-qubit noise
        stack, pairwise crosstalk; readout noise, dephasing, measure
        noise; reset, reset noise — in both channel modes (superoperator
        composition preserves sequential-application semantics).
        """
        superops: dict = {}  # (site, name, qubit) -> (matrix | None, terms)
        for step in plan.steps:
            if step.kind == GATE:
                # ``exact_unsupported_reason`` already rejected conditions;
                # this guards direct callers that skip the cost layer.
                if step.condition is not None:
                    raise ValueError(
                        "exact simulation cannot run classically conditioned gates"
                    )
                backend.apply_operator_pair(step.gate_edge, step.adjoint_edge)
                for qubit in step.qubits:
                    self._apply_site(
                        backend, superops, factory, "gate", step.name, qubit
                    )
                if noise_model is not None and len(step.qubits) >= 2:
                    touched = step.qubits
                    for pair in zip(touched, touched[1:]):
                        rate = noise_model.rates_for(step.name, pair[1]).crosstalk
                        if rate > 0.0:
                            backend.apply_crosstalk(rate, pair[0], pair[1])
                continue
            if step.kind == MEASURE:
                self._apply_site(
                    backend, superops, factory, "measure", "measure", step.target
                )
                continue
            assert step.kind == RESET
            self._apply_site(
                backend, superops, factory, "reset", "reset", step.target
            )

    def _site_channels(self, factory, site: str, name: str, qubit: int) -> list:
        """Ordered Kraus-channel stack for one noise site (oracle order)."""
        if site == "gate":
            return list(factory(name, qubit)) if factory is not None else []
        if site == "measure":
            stack = list(factory("readout", qubit)) if factory is not None else []
            stack.append(_MEASURE_PROJECTORS)
            if factory is not None:
                stack.extend(factory("measure", qubit))
            return stack
        assert site == "reset"
        stack = [_RESET_KRAUS]
        if factory is not None:
            stack.extend(factory("reset", qubit))
        return stack

    def _apply_site(
        self, backend, superops: dict, factory, site: str, name: str, qubit: int
    ) -> None:
        """Apply one site's full channel stack in the configured mode."""
        if self.channel_mode == "kraus":
            for index, kraus_operators in enumerate(
                self._site_channels(factory, site, name, qubit)
            ):
                backend.apply_channel(
                    kraus_operators, qubit, f"exact:{site}:{name}:{index}"
                )
            return
        key = (site, name, qubit)
        entry = superops.get(key)
        if entry is None:
            entry = _compose_superops(self._site_channels(factory, site, name, qubit))
            superops[key] = entry
        matrix, terms = entry
        if matrix is not None:
            backend.apply_single_qubit_superop(matrix, qubit, kraus_terms=terms)


def simulate_exact(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    properties: Sequence[PropertySpec] = (),
    node_ceiling: Optional[int] = None,
    channel_mode: str = "superop",
) -> StochasticResult:
    """One-call wrapper around :class:`ExactSimulator`."""
    return ExactSimulator(node_ceiling=node_ceiling, channel_mode=channel_mode).run(
        circuit, noise_model=noise_model, properties=properties
    )
