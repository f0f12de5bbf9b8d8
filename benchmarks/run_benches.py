"""Benchmark harness: prefix sharing, the exact DD backend, strata.

Three series share this entry point:

* ``prefix`` (PR 4) — the paper's stochastic workload (GHZ and QFT under
  the default noise configuration) run twice, ``REPRO_TRAJECTORY_MODE=naive``
  (every trajectory re-executes the whole circuit) and ``shared`` (clean
  trajectories served from the shared ideal DD, erring ones replayed from
  checkpoints); asserts the two modes are **bit identical**.  Neither mode
  stratifies, so the series keeps measuring the naive estimator it has
  always measured.
* ``exact`` (PR 6) — the exact density-matrix DD backend
  (:mod:`repro.exact`) over GHZ/QFT at growing qubit counts with paper
  noise, recording peak rho-DD nodes (machine-independent, gated by
  ``trend.py``) and wall time per one-pass evaluation.
* ``stratified`` (PR 9) — the post-stratified estimator
  (:mod:`repro.stochastic.strata`): a ``shared`` run and a ``stratified``
  run of the same workload, recording the closed-form ``p_clean``, the erring
  trajectory count, and ``effective_traj_per_sec`` — effective
  trajectories (``erring / (1 - p_clean)^2``) per wall second, the
  variance-matched throughput.  Asserts the two estimators agree within
  their combined 99% Hoeffding half-widths on the same master seed.

Usage::

    PYTHONPATH=src python benchmarks/run_benches.py                 # full, writes BENCH_PR4.json
    PYTHONPATH=src python benchmarks/run_benches.py --quick         # CI-sized
    PYTHONPATH=src python benchmarks/run_benches.py --quick \
        --check-against BENCH_PR4.json                              # perf-smoke gate
    PYTHONPATH=src python benchmarks/run_benches.py --series exact \
        -o BENCH_PR6.json                                           # exact series only
    PYTHONPATH=src python benchmarks/run_benches.py \
        --series stratified                                         # writes BENCH_PR9.json

``--check-against`` compares the measured ratios against the committed
report and fails (exit 1) when any circuit regresses to below half its
recorded value — prefix reports gate the shared-vs-naive ``speedup``,
stratified reports the ``effective_speedup`` — machine-independent
ratios, so CI hardware differences do not produce false alarms.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.circuits.library import ghz, qasmbench_circuit, qft  # noqa: E402
from repro.noise import NoiseModel  # noqa: E402
from repro.stochastic import IdealFidelity, simulate_stochastic  # noqa: E402
from repro.stochastic.strata import TRAJECTORY_MODE_ENV  # noqa: E402

FULL_CASES = (
    ("ghz-15", lambda: ghz(15), 2000),
    ("qft-10", lambda: qft(10), 400),
)
QUICK_CASES = (
    ("ghz-10", lambda: ghz(10), 300),
    ("qft-6", lambda: qft(6), 120),
)

#: Exact-series workload: one-pass density-matrix evaluations vs qubit
#: count.  GHZ's rho stays near-pure (few noise sites), QFT's saturates
#: toward the 4^n/3 dense bound — the two ends of the DD trade-off.
EXACT_FULL_CASES = (
    ("ghz-4", lambda: ghz(4)),
    ("ghz-6", lambda: ghz(6)),
    ("ghz-8", lambda: ghz(8)),
    ("ghz-10", lambda: ghz(10)),
    ("qft-4", lambda: qft(4)),
    ("qft-5", lambda: qft(5)),
    ("qft-6", lambda: qft(6)),
)
EXACT_QUICK_CASES = (
    ("ghz-4", lambda: ghz(4)),
    ("ghz-6", lambda: ghz(6)),
    ("qft-4", lambda: qft(4)),
)

#: Stratified-series workload: (name, factory, naive trajectories for the
#: baseline leg, erring trajectories for the stratified leg).  The erring
#: budget is deliberately smaller — at paper noise the clean stratum
#: dominates, so a few hundred erring-conditioned trajectories already
#: carry more effective samples than the full naive budget.
STRATIFIED_FULL_CASES = (
    ("ghz-15", lambda: ghz(15), 2000, 400),
    ("qft-10", lambda: qft(10), 400, 150),
    # The one QASMBench row without terminal measurements that stays
    # affordable: 512 gates on 4 qubits — a low-p_clean stress case.
    ("basis-trotter-4", lambda: qasmbench_circuit("basis_trotter"), 400, 150),
)
STRATIFIED_QUICK_CASES = (
    ("ghz-10", lambda: ghz(10), 300, 80),
    ("qft-6", lambda: qft(6), 120, 40),
)


def run_mode(circuit, trajectories, mode, seed=7):
    # This series benchmarks (and bit-compares) the naive estimator in the
    # naive and shared modes; stratified sampling is a different estimator
    # with its own series below.
    os.environ[TRAJECTORY_MODE_ENV] = mode
    started = time.perf_counter()
    result = simulate_stochastic(
        circuit,
        noise_model=NoiseModel.paper_defaults(),
        properties=(IdealFidelity(),),
        trajectories=trajectories,
        backend="dd",
        workers=1,
        seed=seed,
        sample_shots=1,
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def assert_bit_identical(name, shared, naive):
    for prop, estimate in shared.estimates.items():
        other = naive.estimates[prop]
        if (estimate.total, estimate.count) != (other.total, other.count):
            raise AssertionError(
                f"{name}: estimate {prop} diverged — "
                f"shared total {estimate.total!r} vs naive {other.total!r}"
            )
    if shared.errors_fired != naive.errors_fired:
        raise AssertionError(f"{name}: errors_fired diverged")
    if shared.outcome_counts != naive.outcome_counts:
        raise AssertionError(f"{name}: outcome_counts diverged")


def bench_case(name, factory, trajectories):
    circuit = factory()
    naive_result, naive_elapsed = run_mode(circuit, trajectories, "naive")
    shared_result, shared_elapsed = run_mode(circuit, trajectories, "shared")
    assert_bit_identical(name, shared_result, naive_result)
    counters = shared_result.metrics.get("counters", {})
    entry = {
        "circuit": name,
        "num_qubits": circuit.num_qubits,
        "trajectories": trajectories,
        "naive_seconds": round(naive_elapsed, 4),
        "shared_seconds": round(shared_elapsed, 4),
        "naive_traj_per_sec": round(trajectories / naive_elapsed, 1),
        "shared_traj_per_sec": round(trajectories / shared_elapsed, 1),
        "speedup": round(naive_elapsed / shared_elapsed, 2),
        "bit_identical": True,
        "estimates": {
            prop: estimate.mean
            for prop, estimate in shared_result.estimates.items()
        },
        "errors_fired": shared_result.errors_fired,
        "prefix": {
            key: counters.get(f"prefix.{key}", 0)
            for key in ("hits", "replays", "replayed_gates", "materialized", "checkpoints")
        },
        "gateplan_compiled": counters.get("gateplan.compiled", 0),
        "gc_skipped": counters.get("dd.gc.skipped", 0),
    }
    print(
        f"{name}: naive {entry['naive_traj_per_sec']}/s, "
        f"shared {entry['shared_traj_per_sec']}/s "
        f"({entry['speedup']}x), "
        f"{entry['prefix']['hits']} clean / {entry['prefix']['replays']} replayed"
    )
    return entry


def bench_exact_case(name, factory):
    """One exact density-matrix DD evaluation: nodes + wall time."""
    from repro.exact import simulate_exact
    from repro.stochastic import BasisProbability

    circuit = factory()
    n = circuit.num_qubits
    properties = (BasisProbability("0" * n), IdealFidelity())
    started = time.perf_counter()
    result = simulate_exact(
        circuit, NoiseModel.paper_defaults(), properties
    )
    elapsed = time.perf_counter() - started
    counters = result.metrics.get("counters", {})
    entry = {
        "circuit": name,
        "num_qubits": n,
        "method": "exact",
        "seconds": round(elapsed, 4),
        "peak_rho_nodes": result.peak_nodes,
        "superop_applications": counters.get("exact.superop_applications", 0),
        "kraus_terms_folded": counters.get("exact.kraus_applications", 0),
        "estimates": {
            prop: estimate.mean for prop, estimate in result.estimates.items()
        },
    }
    print(
        f"{name}: exact pass {entry['seconds']} s, "
        f"peak rho nodes {entry['peak_rho_nodes']} "
        f"(dense bound {4**n // 3}), F = "
        f"{entry['estimates']['F(ideal)']:.6f}"
    )
    return entry


def run_stratified_mode(circuit, trajectories, stratified, seed=7):
    """One stochastic run in the stratified or the shared mode."""
    os.environ[TRAJECTORY_MODE_ENV] = "stratified" if stratified else "shared"
    started = time.perf_counter()
    result = simulate_stochastic(
        circuit,
        noise_model=NoiseModel.paper_defaults(),
        properties=(IdealFidelity(),),
        trajectories=trajectories,
        backend="dd",
        workers=1,
        seed=seed,
        sample_shots=1,
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def bench_stratified_case(name, factory, naive_trajectories, erring_trajectories):
    """Plain vs stratified estimator on the same workload and master seed.

    The comparison axis is *effective* throughput: a stratified erring
    trajectory is worth ``1 / (1 - p_clean)^2`` naive ones (equal-variance
    exchange rate, see :mod:`repro.stochastic.strata`), so
    ``effective_traj_per_sec`` is the number the naive estimator would
    need to sustain to match the stratified half-width per wall second.
    """
    circuit = factory()
    naive_result, naive_elapsed = run_stratified_mode(
        circuit, naive_trajectories, stratified=False
    )
    strat_result, strat_elapsed = run_stratified_mode(
        circuit, erring_trajectories, stratified=True
    )
    strata = strat_result.strata
    if not strata:
        raise AssertionError(
            f"{name}: stratified sampling did not engage (no strata metadata)"
        )
    p_clean = strata["p_clean"]
    # Unbiasedness gate: both estimators target the same expectation, so
    # on any seed their means must agree within the combined 99% bounds.
    for prop, naive_estimate in naive_result.estimates.items():
        strat_estimate = strat_result.estimates[prop]
        slack = naive_estimate.halfwidth(0.01) + strat_estimate.halfwidth(0.01)
        drift = abs(naive_estimate.mean - strat_estimate.mean)
        if drift > slack:
            raise AssertionError(
                f"{name}: estimate {prop} diverged — naive "
                f"{naive_estimate.mean:.6f} vs stratified "
                f"{strat_estimate.mean:.6f} (drift {drift:.6f} > "
                f"combined 99% bound {slack:.6f})"
            )
    effective = strat_result.effective_trajectories()
    naive_rate = naive_trajectories / naive_elapsed
    effective_rate = effective / strat_elapsed
    entry = {
        "circuit": name,
        "num_qubits": circuit.num_qubits,
        "naive_trajectories": naive_trajectories,
        "erring_trajectories": erring_trajectories,
        "p_clean": round(p_clean, 6),
        "rejected_clean": int(strata["rejected_clean"]),
        "dry_run_attempts": int(strata["attempts"]),
        "naive_seconds": round(naive_elapsed, 4),
        "stratified_seconds": round(strat_elapsed, 4),
        "naive_traj_per_sec": round(naive_rate, 1),
        "effective_trajectories": round(effective, 1),
        "effective_traj_per_sec": round(effective_rate, 1),
        "effective_speedup": round(effective_rate / naive_rate, 2),
        "agreement": True,
        "estimates": {
            prop: estimate.mean
            for prop, estimate in strat_result.estimates.items()
        },
        "naive_estimates": {
            prop: estimate.mean
            for prop, estimate in naive_result.estimates.items()
        },
        "halfwidths_99": {
            prop: estimate.halfwidth(0.01)
            for prop, estimate in strat_result.estimates.items()
        },
    }
    print(
        f"{name}: p_clean {entry['p_clean']}, "
        f"{erring_trajectories} erring -> {entry['effective_trajectories']} "
        f"effective, {entry['effective_traj_per_sec']}/s effective vs "
        f"{entry['naive_traj_per_sec']}/s naive "
        f"({entry['effective_speedup']}x)"
    )
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument(
        "--series", choices=("all", "prefix", "exact", "stratified"), default="all",
        help="which benchmark series to run; 'all' covers the legacy "
        "prefix+exact series, 'stratified' is its own series/artifact "
        "(default: all)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="report path (default: BENCH_PR4.json at the repo root, or "
        "BENCH_PR9.json for --series stratified; quick runs default to "
        "not writing)",
    )
    parser.add_argument(
        "--check-against", default=None, metavar="REPORT",
        help="fail when any circuit's speedup (prefix series) or "
        "effective_speedup (stratified series) falls below half the "
        "committed report's (per-circuit-name match)",
    )
    args = parser.parse_args(argv)

    # The full report also records the quick cases so the CI perf-smoke job
    # (which only runs --quick) finds its per-circuit baselines in it.
    cases = QUICK_CASES if args.quick else FULL_CASES + QUICK_CASES
    exact_cases = EXACT_QUICK_CASES if args.quick else EXACT_FULL_CASES
    stratified_cases = (
        STRATIFIED_QUICK_CASES
        if args.quick
        else STRATIFIED_FULL_CASES + STRATIFIED_QUICK_CASES
    )
    report = {
        "schema": (
            "repro.bench-pr9/v1"
            if args.series == "stratified"
            else "repro.bench-pr4/v1"
        ),
        "mode": "quick" if args.quick else "full",
        "noise": "paper_defaults",
    }
    if args.series in ("all", "prefix"):
        report["cases"] = [bench_case(*case) for case in cases]
    if args.series in ("all", "exact"):
        report["exact_cases"] = [bench_exact_case(*case) for case in exact_cases]
    if args.series == "stratified":
        report["stratified_cases"] = [
            bench_stratified_case(*case) for case in stratified_cases
        ]

    output = args.output
    if output is None and not args.quick:
        default_name = (
            "BENCH_PR9.json" if args.series == "stratified" else "BENCH_PR4.json"
        )
        output = os.path.join(os.path.dirname(__file__), "..", default_name)
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.abspath(output)}")

    if args.check_against:
        with open(args.check_against) as handle:
            committed = json.load(handle)
        failures = []
        checked = []
        committed_speedups = {
            case["circuit"]: case["speedup"]
            for case in committed.get("cases", [])
        }
        for case in report.get("cases", []):
            baseline = committed_speedups.get(case["circuit"])
            if baseline is None:
                continue
            floor = baseline / 2.0
            checked.append(f"{case['circuit']} {case['speedup']}x")
            if case["speedup"] < floor:
                failures.append(
                    f"{case['circuit']}: speedup {case['speedup']}x fell below "
                    f"{floor:.2f}x (half the committed {baseline}x)"
                )
        committed_effective = {
            case["circuit"]: case["effective_speedup"]
            for case in committed.get("stratified_cases", [])
        }
        for case in report.get("stratified_cases", []):
            baseline = committed_effective.get(case["circuit"])
            if baseline is None:
                continue
            floor = baseline / 2.0
            checked.append(
                f"{case['circuit']} {case['effective_speedup']}x effective"
            )
            if case["effective_speedup"] < floor:
                failures.append(
                    f"{case['circuit']}: effective_speedup "
                    f"{case['effective_speedup']}x fell below {floor:.2f}x "
                    f"(half the committed {baseline}x)"
                )
        if failures:
            print("PERF REGRESSION:\n" + "\n".join(failures), file=sys.stderr)
            return 1
        print("perf check OK: " + ", ".join(checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
