"""Regeneration of the paper's Table Ia, Ib, and Ic.

Each function sweeps the corresponding workload across the proposed DD
simulator and the dense state-vector baseline, at a configurable scale:

* ``trajectories`` replaces the paper's M = 30 000 (runtime is linear in M,
  so simulator *ratios* are scale-invariant — see DESIGN.md),
* ``timeout`` replaces the paper's one-hour limit,
* the default qubit sweep (circuit selection, for Table Ic) is the one
  sweep per table: ``repro table`` and ``repro report`` run it, and
  EXPERIMENTS.md records it.

The returned :class:`TableReport` carries structured rows plus a renderer
producing the paper's layout (``n | baseline [s] | proposed [s]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.library import QASMBENCH_CIRCUITS, ghz, qft
from ..noise.model import NoiseModel
from ..obs.metrics import derive_rates
from ..stochastic.properties import BasisProbability
from ..stochastic.runner import StochasticSimulator
from .runner import TimedRun, timed_stochastic_run
from .tables import format_cell, render_table

__all__ = ["TableReport", "run_table1a", "run_table1b", "run_table1c"]


@dataclass
class TableReport:
    """Structured result of one table regeneration."""

    title: str
    headers: Tuple[str, ...]
    #: row label -> backend -> TimedRun
    rows: List[Tuple[str, Dict[str, TimedRun]]] = field(default_factory=list)
    timeout: Optional[float] = None
    trajectories: int = 0

    def render(self) -> str:
        """Paper-layout plain-text table."""
        body = []
        for label, runs in self.rows:
            cells = [label]
            for backend in self.headers[1:]:
                run = runs.get(backend.split()[0])
                if run is None:
                    cells.append("-")
                elif run.infeasible:
                    cells.append("mem")
                else:
                    cells.append(format_cell(run.seconds, self.timeout))
            body.append(cells)
        return render_table(
            f"{self.title}  (M={self.trajectories}, timeout={self.timeout}s)",
            self.headers,
            body,
        )

    def metrics_sidecar(self) -> Dict[str, object]:
        """JSON-able observability companion to the rendered table.

        For every (row, backend) cell that produced a result: seconds,
        trajectory counts, CPU time, peak DD nodes, the raw metrics
        snapshot, and derived hit rates.  Written next to benchmark JSON by
        ``repro-sim table --metrics`` so a perf regression can be traced to
        the table behaviour that caused it.
        """
        rows: Dict[str, Dict[str, object]] = {}
        for label, runs in self.rows:
            entry: Dict[str, object] = {}
            for backend, run in runs.items():
                result = run.result
                if result is None:
                    entry[backend] = {
                        "seconds": run.seconds,
                        "infeasible": run.infeasible,
                    }
                    continue
                entry[backend] = {
                    "seconds": run.seconds,
                    "timed_out": result.timed_out,
                    "completed_trajectories": result.completed_trajectories,
                    "cpu_seconds": result.cpu_seconds,
                    "peak_nodes": result.peak_nodes,
                    "metrics": result.metrics,
                    "rates": derive_rates(result.metrics),
                }
            rows[label] = entry
        return {
            "schema": "repro.table-metrics/v1",
            "title": self.title,
            "trajectories": self.trajectories,
            "timeout": self.timeout,
            "rows": rows,
        }

    def speedups(self) -> Dict[str, Optional[float]]:
        """Baseline/proposed runtime ratio per row (None when incomparable)."""
        ratios: Dict[str, Optional[float]] = {}
        for label, runs in self.rows:
            baseline = runs.get("statevector")
            proposed = runs.get("dd")
            if (
                baseline is not None
                and proposed is not None
                and baseline.seconds
                and proposed.seconds
            ):
                ratios[label] = baseline.seconds / proposed.seconds
            else:
                ratios[label] = None
        return ratios


def _sweep(
    title: str,
    cases: Sequence[Tuple[str, QuantumCircuit]],
    backends: Sequence[str],
    trajectories: int,
    timeout: Optional[float],
    noise_model: Optional[NoiseModel],
    workers: int,
    properties_for: Callable[[QuantumCircuit], Sequence],
    skip_backend_after_timeout: bool = True,
) -> TableReport:
    report = TableReport(
        title=title,
        headers=("n",) + tuple(f"{b} [s]" for b in backends),
        timeout=timeout,
        trajectories=trajectories,
    )
    dead_backends = set()
    # One reusable simulator per backend: with workers > 1 its persistent
    # worker pool (repro.service.Scheduler) stays warm across every cell
    # of the sweep instead of being recreated per (circuit, backend) pair.
    simulators = {
        backend: StochasticSimulator(backend=backend, workers=workers)
        for backend in backends
    }
    try:
        for label, circuit in cases:
            runs: Dict[str, TimedRun] = {}
            for backend in backends:
                if backend in dead_backends:
                    runs[backend] = TimedRun(circuit.name, backend, None, None)
                    continue
                run = timed_stochastic_run(
                    circuit,
                    backend,
                    trajectories,
                    noise_model=noise_model,
                    properties=properties_for(circuit),
                    timeout=timeout,
                    workers=workers,
                    simulator=simulators[backend],
                )
                runs[backend] = run
                # Once a backend times out on a monotone sweep it will time
                # out on every larger instance; skip them like the paper's
                # ">3600" ellipsis rows.
                if skip_backend_after_timeout and not run.completed:
                    dead_backends.add(backend)
            report.rows.append((label, runs))
    finally:
        for simulator in simulators.values():
            simulator.close()
    return report


def run_table1a(
    qubit_range: Sequence[int] = (4, 8, 12, 16, 20, 24, 32, 48, 64),
    trajectories: int = 50,
    timeout: Optional[float] = 30.0,
    backends: Sequence[str] = ("statevector", "dd"),
    noise_model: Optional[NoiseModel] = None,
    workers: int = 1,
) -> TableReport:
    """Table Ia: the Entanglement (GHZ) scaling sweep."""
    cases = [(str(n), ghz(n)) for n in qubit_range]
    return _sweep(
        "Table Ia — Entanglement circuits",
        cases,
        backends,
        trajectories,
        timeout,
        noise_model,
        workers,
        properties_for=lambda circuit: (BasisProbability("0" * circuit.num_qubits),),
    )


def run_table1b(
    qubit_range: Sequence[int] = (4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64),
    trajectories: int = 50,
    timeout: Optional[float] = 30.0,
    backends: Sequence[str] = ("statevector", "dd"),
    noise_model: Optional[NoiseModel] = None,
    workers: int = 1,
) -> TableReport:
    """Table Ib: the QFT scaling sweep.

    Uses the swap-free QFT: under noise, the final qubit-reversal swap
    network acts on per-qubit states carrying O(eps) error tilts, and
    normalisation by eps-sized factors amplifies float noise past the
    canonicalisation tolerance — decision diagrams then fail to re-merge
    and grow exponentially (DESIGN.md, reproduction finding #2).  The
    paper's per-trajectory QFT runtimes are only consistent with the
    swap-free variant, which is also what most benchmark suites emit.
    """
    cases = [(str(n), qft(n, do_swaps=False)) for n in qubit_range]
    return _sweep(
        "Table Ib — QFT circuits",
        cases,
        backends,
        trajectories,
        timeout,
        noise_model,
        workers,
        properties_for=lambda circuit: (BasisProbability("0" * circuit.num_qubits),),
    )


def run_table1c(
    names: Optional[Sequence[str]] = None,
    trajectories: int = 20,
    timeout: Optional[float] = 60.0,
    backends: Sequence[str] = ("statevector", "dd"),
    noise_model: Optional[NoiseModel] = None,
    workers: int = 1,
) -> TableReport:
    """Table Ic: the QASMBench circuit selection.

    Rows are not a monotone sweep, so a timeout on one circuit does not
    skip the remaining rows.
    """
    if names is None:
        names = tuple(QASMBENCH_CIRCUITS)
    cases = []
    for name in names:
        qubits, generator = QASMBENCH_CIRCUITS[name]
        cases.append((f"{name} ({qubits})", generator()))
    return _sweep(
        "Table Ic — QASMBench circuits",
        cases,
        backends,
        trajectories,
        timeout,
        noise_model,
        workers,
        properties_for=lambda circuit: (),
        skip_backend_after_timeout=False,
    )
