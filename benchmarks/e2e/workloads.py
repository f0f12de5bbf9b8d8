"""Workloads of the end-to-end benchmark and the oracle that checks them.

Every workload is an endless sequence of :class:`~repro.service.JobSpec`
submissions, driven closed-loop through ``Scheduler(workers=2)`` for a
fixed number of seconds (rounded up to a whole round of the service mix):
each client thread submits its next job only after the previous result
came back.  The circuits and accuracy targets
are fixed; ``--seed`` derives only the job seeds and the order of the
service mix, so the same seed always yields the same jobs in the same
order.  Every ``fresh`` job of a compute workload has the same trajectory
budget, so job latencies of different runs compare directly.

Why each workload exists (see README.md for the metric table):

* ``ghz-strata`` -- paper Table Ia (GHZ-15, IdealFidelity, here at
  eps=0.025).  Stratified sampling is fully engaged (p_clean ~ 0.92), so
  worker time goes to the rejection search, damping P(1) and per-gate
  node-count walks rather than to ``dd.multiply``.
* ``bv-measured`` -- paper Table Ic (BV-19 with terminal measurement,
  ClassicalOutcome of the hidden string and its complement, eps=0.04).
  It cannot be stratified and exact simulation cannot run it, so it
  bypasses ``strata`` and the exact arm; measurement collapse dominates.
* ``qaoa-hostile`` -- QAOA-7 without measurement, a dense 127-node state:
  ``dd.multiply`` dominates, the dense statevector backend is far faster
  per trajectory, and worker memory is highest.  Any dense engine or
  dispatch arm shows here.
* ``service-mix`` -- many small jobs from 2 client threads: fresh ``auto``
  jobs, explicit ``method="exact"`` jobs (they run in the submitting
  thread), and resubmissions that are answered from the result store.
  The service layer (journal, store, ledger, dispatch) is most of the
  latency here and close to nothing in the other three.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

#: Failure probability of every accuracy target (paper Section V).
DELTA = 0.05

#: Confidence level of the oracle comparison for stochastic estimates:
#: ``|mean - ref| <= hw(ORACLE_DELTA) + ref_hw`` fails by chance with
#: probability below 1e-6 per property.
ORACLE_DELTA = 1e-6

#: Tolerance for exact (density-matrix) results against an exact reference.
EXACT_TOLERANCE = 1e-9

WORKERS = 2


def _bv_value(num_qubits: int) -> int:
    """Hidden string of ``bernstein_vazirani(n)``'s default secret, as the
    integer the classical register reads (bit 0 = LSB)."""
    return sum(((i + 1) % 2) << i for i in range(num_qubits - 1))


def build_circuit(circuit_id: str):
    """Circuit for an id such as ``"ghz:15"``."""
    from repro import bernstein_vazirani, ghz, qaoa_maxcut, qft

    family, _, size = circuit_id.partition(":")
    n = int(size)
    if family == "ghz":
        return ghz(n)
    if family == "qft":
        return qft(n)
    if family == "bv":
        return bernstein_vazirani(n)
    if family == "qaoa":
        return qaoa_maxcut(n, measure=False)
    raise ValueError(f"unknown circuit id {circuit_id!r}")


def build_properties(circuit_id: str) -> tuple:
    """Properties each circuit is estimated for."""
    from repro import BasisProbability, ClassicalOutcome, IdealFidelity

    family, _, size = circuit_id.partition(":")
    n = int(size)
    if family == "bv":
        hidden = _bv_value(n)
        return (ClassicalOutcome(hidden), ClassicalOutcome(hidden ^ ((1 << (n - 1)) - 1)))
    if family == "qaoa":
        return (IdealFidelity(), BasisProbability(("01" * n)[:n]))
    return (IdealFidelity(),)


@dataclass(frozen=True)
class Job:
    """One submission of a workload."""

    #: ``fresh`` (epsilon-targeted, new key), ``exact`` (method="exact"), or
    #: ``resubmit`` (an earlier job's spec again: a result-store hit).
    kind: str
    circuit_id: str
    spec: object
    #: Accuracy the trajectory budget carries at ``DELTA`` (None for exact).
    epsilon: Optional[float]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    smoke: bool
    clients: int
    #: Jobs per round: a pass stops taking jobs only at a round boundary,
    #: so every run holds whole rounds of the same make-up.
    round_size: int
    #: In-process baseline: circuit and trajectory count for the DD and
    #: statevector backends (traced pass only).
    baseline_circuit: str
    baseline_trajectories: int

    def jobs(self) -> Iterator[Job]:
        """The workload's endless job sequence, the same for the same seed."""
        if self.name == "service-mix":
            return _mix_jobs(self.seed, self.smoke)
        return _compute_jobs(self.name, self.seed, self.smoke)


#: Compute workloads: (circuit, epsilon, smoke epsilon, baseline trajectories).
_COMPUTE = {
    "ghz-strata": ("ghz:15", 0.025, 0.1, 400),
    "bv-measured": ("bv:19", 0.04, 0.15, 10),
    "qaoa-hostile": ("qaoa:7", 0.3, 0.6, 8),
}

#: Service mix: fresh ``auto`` circuits and budgets, explicit-exact circuits.
#: Every round of the mix holds each (fresh circuit, budget) pair once, each
#: exact circuit once, and ``len(pairs) // 3`` resubmissions, i.e. 65 %
#: fresh, 13 % exact and 22 % resubmitted jobs in a seed-shuffled order.
#: A run takes whole rounds, so every run has exactly this make-up.
_MIX_FRESH = ("ghz:10", "ghz:12", "qft:6", "qft:8", "bv:11")
_MIX_BUDGETS = (100, 200, 400)
_MIX_SMOKE_BUDGETS = (20, 40)
_MIX_EXACT = ("ghz:4", "ghz:6", "qft:5")
#: A resubmission repeats a job at least this many places earlier, so with
#: two closed-loop clients the original has always completed.
_RESUBMIT_DISTANCE = 10

NAMES = tuple(_COMPUTE) + ("service-mix",)


def _seed_stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


@functools.lru_cache(maxsize=None)
def _circuit(circuit_id: str):
    return build_circuit(circuit_id)


def _spec(circuit_id: str, trajectories: int, seed: int, method: str):
    from repro import JobSpec, NoiseModel

    return JobSpec.build(
        _circuit(circuit_id),
        NoiseModel.paper_defaults(),
        build_properties(circuit_id),
        trajectories=trajectories,
        seed=seed,
        method=method,
    )


def _mix_pairs(smoke: bool) -> List[tuple]:
    """Every (fresh circuit, trajectory budget) pair of one mix round."""
    budgets = _MIX_SMOKE_BUDGETS if smoke else _MIX_BUDGETS
    return [(c, m) for c in _MIX_FRESH for m in budgets]


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """One workload for one seed."""
    if name in _COMPUTE:
        circuit_id, _, _, baseline = _COMPUTE[name]
        if smoke:
            baseline = max(2, baseline // 8)
        return Workload(name, seed, smoke, 1, 1, circuit_id, baseline)
    if name != "service-mix":
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    pairs = len(_mix_pairs(smoke))
    round_size = pairs + len(_MIX_EXACT) + pairs // 3
    return Workload(name, seed, smoke, 2, round_size, "qft:8", 10 if smoke else 100)


def _compute_jobs(name: str, seed: int, smoke: bool) -> Iterator[Job]:
    from repro import hoeffding_samples

    rng = _seed_stream(seed, name)
    circuit_id, epsilon, smoke_epsilon, _ = _COMPUTE[name]
    if smoke:
        epsilon = smoke_epsilon
    trajectories = hoeffding_samples(len(build_properties(circuit_id)), epsilon, DELTA)
    while True:
        yield Job("fresh", circuit_id,
                  _spec(circuit_id, trajectories, rng.getrandbits(31), "auto"), epsilon)


def _mix_jobs(seed: int, smoke: bool) -> Iterator[Job]:
    from repro import hoeffding_epsilon

    rng = _seed_stream(seed, "service-mix")
    pairs = _mix_pairs(smoke)
    resubmits = len(pairs) // 3
    size = len(pairs) + len(_MIX_EXACT) + resubmits
    emitted: List[Job] = []
    while True:
        base: List[Job] = []
        for circuit_id, trajectories in pairs:
            epsilon = hoeffding_epsilon(len(build_properties(circuit_id)), trajectories, DELTA)
            base.append(Job("fresh", circuit_id,
                            _spec(circuit_id, trajectories, rng.getrandbits(31), "auto"),
                            epsilon))
        for circuit_id in _MIX_EXACT:
            base.append(Job("exact", circuit_id,
                            _spec(circuit_id, 1, rng.getrandbits(31), "exact"), None))
        rng.shuffle(base)
        first = _RESUBMIT_DISTANCE if not emitted else 0
        slots = set(rng.sample(range(first, size), resubmits))
        placed = iter(base)
        for offset in range(size):
            if offset in slots:
                position = len(emitted)
                earlier = [job for job in emitted[: position - _RESUBMIT_DISTANCE + 1]
                           if job.kind != "resubmit"]
                source = rng.choice(earlier)
                job = Job("resubmit", source.circuit_id, source.spec, source.epsilon)
            else:
                job = next(placed)
            emitted.append(job)
            yield job


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def load_references() -> Dict[str, dict]:
    with open(REFERENCES_PATH, encoding="utf-8") as handle:
        return json.load(handle)["values"]


def check_job(job: Job, result, references: Dict[str, dict]) -> List[str]:
    """Reasons ``result`` fails the oracle (empty when it passes)."""
    problems = []
    props = job.spec.properties
    if result.completed_trajectories < job.spec.trajectories and result.method != "exact":
        problems.append(
            f"ran {result.completed_trajectories}/{job.spec.trajectories} trajectories"
        )
    for prop in props:
        estimate = result.estimates.get(prop.name)
        reference = references.get(f"{job.circuit_id}|{prop.name}")
        if estimate is None or estimate.count == 0:
            problems.append(f"{prop.name}: no estimate")
            continue
        if reference is None:
            problems.append(f"{prop.name}: no reference for {job.circuit_id}")
            continue
        error = abs(estimate.mean - reference["value"])
        if result.method == "exact":
            if reference["halfwidth"] == 0.0 and error > EXACT_TOLERANCE:
                problems.append(
                    f"{prop.name}: exact {estimate.mean!r} vs reference "
                    f"{reference['value']!r}"
                )
            elif error > reference["halfwidth"] + EXACT_TOLERANCE:
                problems.append(f"{prop.name}: exact value outside reference interval")
            continue
        # Theorem 1 with a union bound over the job's L properties.
        promised = estimate.hoeffding_halfwidth(DELTA / len(props))
        if job.epsilon is not None and promised > job.epsilon * (1 + 1e-12):
            problems.append(
                f"{prop.name}: half-width {promised:.6g} exceeds eps {job.epsilon:.6g}"
            )
        allowed = estimate.hoeffding_halfwidth(ORACLE_DELTA) + reference["halfwidth"]
        if error > allowed:
            problems.append(
                f"{prop.name}: |{estimate.mean:.6f} - {reference['value']:.6f}| "
                f"> {allowed:.6f}"
            )
    return problems


def canonical_payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Reference generation (run.py --refresh-references)
# ----------------------------------------------------------------------

#: Circuits whose references come from a long stochastic run, with its
#: trajectory count; exact methods cannot evaluate ClassicalOutcome.
_LONG_RUNS = {"bv:19": 30000, "bv:11": 60000}
_LONG_RUN_SEED = 20210201
#: Circuits small enough for the dense density-matrix simulator.
_DENSE = ("qaoa:7", "qft:8")


def _circuit_ids() -> List[str]:
    ids = {_COMPUTE[name][0] for name in _COMPUTE}
    ids.update(_MIX_FRESH)
    ids.update(_MIX_EXACT)
    return sorted(ids)


def refresh_references(log) -> Dict[str, object]:
    """Recompute every reference value (minutes; outside any timed path)."""
    import random as _random

    import repro
    from repro import (
        DensityMatrixSimulator,
        JobSpec,
        NoiseModel,
        Scheduler,
        StatevectorBackend,
        execute_circuit,
        simulate_exact,
    )

    noise = NoiseModel.paper_defaults()
    values: Dict[str, dict] = {}
    for circuit_id in _circuit_ids():
        circuit = build_circuit(circuit_id)
        props = build_properties(circuit_id)
        started = time.perf_counter()
        if circuit_id in _LONG_RUNS:
            trajectories = _LONG_RUNS[circuit_id]
            with Scheduler(workers=WORKERS) as scheduler:
                result = scheduler.run(JobSpec.build(
                    circuit, noise, props, trajectories=trajectories,
                    seed=_LONG_RUN_SEED, method="stochastic",
                ))
            for prop in props:
                estimate = result.estimates[prop.name]
                values[f"{circuit_id}|{prop.name}"] = {
                    "value": estimate.mean,
                    "halfwidth": estimate.hoeffding_halfwidth(ORACLE_DELTA),
                    "source": "stochastic",
                    "provenance": (
                        f"Scheduler(workers={WORKERS}) method=stochastic, "
                        f"M={trajectories}, seed={_LONG_RUN_SEED}; halfwidth is "
                        f"the Hoeffding half-width at delta={ORACLE_DELTA:g}"
                    ),
                }
        elif circuit_id in _DENSE:
            simulator = DensityMatrixSimulator(circuit.num_qubits)
            simulator.run_circuit_with_model(circuit, noise)
            ideal = StatevectorBackend(circuit.num_qubits)
            execute_circuit(ideal, circuit, _random.Random(0))
            for prop in props:
                if prop.name == "F(ideal)":
                    value = simulator.fidelity_with_pure(ideal.statevector())
                else:
                    value = simulator.probability_of_basis([int(b) for b in prop.bits])
                values[f"{circuit_id}|{prop.name}"] = {
                    "value": value,
                    "halfwidth": 0.0,
                    "source": "dense",
                    "provenance": (
                        "DensityMatrixSimulator.run_circuit_with_model "
                        "(exact channels, dense rho)"
                    ),
                }
        else:
            result = simulate_exact(circuit, noise_model=noise, properties=props)
            for prop in props:
                values[f"{circuit_id}|{prop.name}"] = {
                    "value": result.estimates[prop.name].mean,
                    "halfwidth": 0.0,
                    "source": "exact",
                    "provenance": "simulate_exact (density-matrix DD)",
                }
        log(f"  {circuit_id}: {time.perf_counter() - started:.1f} s")
    return {
        "schema": "repro.e2e-references/v1",
        "noise_model": "NoiseModel.paper_defaults()",
        "repro_version": repro.__version__,
        "note": (
            "Exact references use the true amplitude-damping channel; the "
            "default event-mode unravelling deviates from it at first order "
            "in the damping rate, well inside the oracle's 1e-6 half-widths "
            "at these budgets."
        ),
        "values": dict(sorted(values.items())),
    }
