"""Command-line interface: ``repro-sim`` / ``python -m repro``.

Subcommands:

* ``run`` — stochastically simulate an OpenQASM 2.0 file or a library
  circuit under a noise model and print property estimates and the sampled
  outcome histogram;
* ``submit`` / ``status`` / ``result`` / ``serve`` / ``jobs`` / ``monitor``
  — the job-service mode: spool content-addressed jobs into a store, drain
  them with a persistent worker pool (crash-safe via the write-ahead
  journal every ``serve`` resumes from), and poll streaming estimates while
  they run — live, with ``monitor`` and the ``serve --metrics-port``
  OpenMetrics endpoint (docs/SERVICE.md, docs/OBSERVABILITY.md,
  docs/ROBUSTNESS.md);
* ``history`` — per-circuit-family run-ledger telemetry: methods, peak DD
  node counts, throughput trend vs the ledger baseline — the history the
  measured dispatch cost model routes on (docs/OBSERVABILITY.md);
* ``cache`` — inspect or clear the content-addressed result store;
* ``stats`` — run a circuit and report engine observability: table hit
  rates, per-trajectory latency histograms, scheduler counters
  (docs/OBSERVABILITY.md); ``--format=openmetrics`` shares the serve
  endpoint's exposition formatter;
* ``profile`` — run with the deterministic DD hot-loop profiler enabled
  and report per-gate / per-DD-op self time plus node-growth attribution;
  ``--flame`` writes folded stacks for flamegraph tooling;
* ``table`` — regenerate one of the paper's tables (Ia/Ib/Ic) at a chosen
  scale, optionally with a ``--metrics`` JSON sidecar;
* ``circuits`` — list the built-in benchmark circuit generators;
* ``dot`` — export a circuit's final-state decision diagram as Graphviz dot.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .circuits import parse_qasm_file
from .circuits.library import QASMBENCH_CIRCUITS, ghz, qft
from .dd import to_dot
from .harness import run_table1a, run_table1b, run_table1c
from .noise import ErrorRates, NoiseModel
from .simulators import DDBackend, execute_circuit
from .stochastic import BasisProbability, IdealFidelity, simulate_stochastic

__all__ = ["main", "build_parser"]


def _load_circuit(spec: str):
    """Resolve a circuit argument: a QASM path or ``name[:qubits]``."""
    if spec.endswith(".qasm"):
        return parse_qasm_file(spec)
    name, _, size = spec.partition(":")
    if name == "ghz":
        return ghz(int(size or 8))
    if name == "qft":
        return qft(int(size or 8))
    if name in QASMBENCH_CIRCUITS:
        return QASMBENCH_CIRCUITS[name][1]()
    raise SystemExit(
        f"unknown circuit {spec!r}: expected a .qasm path, ghz:<n>, qft:<n>, "
        f"or one of {', '.join(sorted(QASMBENCH_CIRCUITS))}"
    )


def _noise_from_args(args: argparse.Namespace) -> NoiseModel:
    if args.noiseless:
        return NoiseModel.noiseless()
    return NoiseModel(
        default=ErrorRates(
            depolarizing=args.depolarizing,
            amplitude_damping=args.damping,
            phase_flip=args.phase_flip,
        )
    )


def _add_property_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fidelity", action="store_true",
        help="estimate fidelity with the noiseless output (measurement-free circuits)",
    )
    parser.add_argument(
        "--probability", action="append", default=[], metavar="BITSTRING",
        help="estimate P(|bitstring>); repeatable",
    )
    parser.add_argument(
        "--pauli", action="append", default=[], metavar="STRING",
        help="estimate a Pauli-string expectation, e.g. ZZIII; repeatable",
    )
    parser.add_argument(
        "--outcome", action="append", default=[], type=int, metavar="VALUE",
        help="estimate P(classical register == VALUE); repeatable",
    )


def _properties_from_args(args: argparse.Namespace) -> List:
    from .stochastic import ClassicalOutcome, PauliExpectation

    properties: List = [BasisProbability(bits) for bits in args.probability]
    properties.extend(PauliExpectation(p) for p in args.pauli)
    properties.extend(ClassicalOutcome(v) for v in args.outcome)
    if args.fidelity:
        properties.append(IdealFidelity())
    return properties


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory (default: $REPRO_STORE_DIR or "
        "~/.cache/repro-sim)",
    )


def _open_store(args: argparse.Namespace):
    from .service import ResultStore, default_store_directory

    return ResultStore(directory=args.store or default_store_directory())


def _add_method_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=("stochastic", "exact", "auto"), default="stochastic",
        help="execution method: Monte-Carlo trajectory sampling (default), "
        "one-pass exact density-matrix DD evaluation, or cost-model "
        "auto-dispatch between the two (docs/EXACT.md)",
    )


def _add_noise_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--depolarizing", type=float, default=0.001,
        help="depolarization probability per gate/qubit (paper: 0.001)",
    )
    parser.add_argument(
        "--damping", type=float, default=0.002,
        help="amplitude damping (T1) probability (paper: 0.002)",
    )
    parser.add_argument(
        "--phase-flip", type=float, default=0.001,
        help="phase flip (T2) probability (paper: 0.001)",
    )
    parser.add_argument("--noiseless", action="store_true", help="disable all errors")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Stochastic quantum circuit simulation using decision diagrams",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="simulate a circuit stochastically")
    run.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")
    run.add_argument("-M", "--trajectories", type=int, default=1000)
    run.add_argument("-b", "--backend", choices=("dd", "statevector"), default="dd")
    run.add_argument("-w", "--workers", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--shots", type=int, default=1, help="histogram samples per trajectory")
    run.add_argument("--timeout", type=float, default=None)
    _add_method_argument(run)
    _add_property_arguments(run)
    _add_noise_arguments(run)

    submit = subparsers.add_parser(
        "submit", help="spool a simulation job for a `serve` batch runner"
    )
    submit.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")
    submit.add_argument("-M", "--trajectories", type=int, default=1000)
    submit.add_argument("-b", "--backend", choices=("dd", "statevector"), default="dd")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--shots", type=int, default=1, help="histogram samples per trajectory")
    submit.add_argument("--timeout", type=float, default=None)
    _add_method_argument(submit)
    _add_property_arguments(submit)
    _add_noise_arguments(submit)
    _add_store_argument(submit)

    status = subparsers.add_parser(
        "status", help="poll a job's streaming estimates (key prefix accepted)"
    )
    status.add_argument("key", help="job key (or unique prefix) from `submit`")
    _add_store_argument(status)

    result = subparsers.add_parser(
        "result", help="print a finished job's full result (key prefix accepted)"
    )
    result.add_argument("key", help="job key (or unique prefix) from `submit`")
    result.add_argument(
        "--wait", action="store_true", help="block until the result is available"
    )
    result.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this many seconds",
    )
    _add_store_argument(result)

    serve = subparsers.add_parser(
        "serve", help="run the batch scheduler over the spooled job queue"
    )
    serve.add_argument("-w", "--workers", type=int, default=2)
    serve.add_argument("--chunk-size", type=int, default=None)
    serve.add_argument("--max-retries", type=int, default=2)
    serve.add_argument(
        "--once", action="store_true",
        help="drain the current queue and exit instead of polling forever",
    )
    serve.add_argument("--poll-interval", type=float, default=0.5)
    serve.add_argument("--max-jobs", type=int, default=None)
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve OpenMetrics text on http://127.0.0.1:PORT/metrics "
        "(0 binds an ephemeral port; the chosen one is logged)",
    )
    serve.add_argument(
        "--events-log", default=None, metavar="PATH",
        help="append JSONL telemetry events (heartbeats, job transitions)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a Chrome trace_event JSON per completed job",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="period of the events-log heartbeat (with --events-log)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="first finish every job the write-ahead journal shows "
        "incomplete, spooled or not (any serve resumes a spooled one from "
        "its journaled progress, running only the missing trajectories, "
        "bit-identical to an uninterrupted run; docs/ROBUSTNESS.md)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait this long for in-flight chunks to "
        "land before checkpointing the rest and exiting",
    )
    _add_store_argument(serve)

    jobs = subparsers.add_parser(
        "jobs", help="list resumable work: journal-incomplete, queued, orphaned"
    )
    jobs.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )
    _add_store_argument(jobs)

    history = subparsers.add_parser(
        "history",
        help="per-circuit-family run-ledger history: methods, peak DD nodes, "
        "throughput (feeds the measured dispatch cost model)",
    )
    history.add_argument(
        "--fingerprint", default=None, metavar="FP",
        help="show one family in detail (unique fingerprint prefix), "
        "including its recent raw run records",
    )
    history.add_argument(
        "--trend", action="store_true",
        help="check each family's latest stochastic throughput against its "
        "ledger baseline; a >20%% drop flags a regression (exit 1)",
    )
    history.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )
    _add_store_argument(history)

    monitor = subparsers.add_parser(
        "monitor", help="live terminal view of a queued or running job"
    )
    monitor.add_argument("key", help="job key (or unique prefix) from `submit`")
    monitor.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh period",
    )
    monitor.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    monitor.add_argument(
        "--max-seconds", type=float, default=None, metavar="SECONDS",
        help="give up after this long even if the job is still running",
    )
    _add_store_argument(monitor)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the content-addressed result store"
    )
    cache.add_argument("action", choices=("show", "clear"))
    _add_store_argument(cache)

    stats = subparsers.add_parser(
        "stats", help="simulate a circuit and report engine metrics"
    )
    stats.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")
    stats.add_argument("-M", "--trajectories", type=int, default=100)
    stats.add_argument("-b", "--backend", choices=("dd", "statevector"), default="dd")
    stats.add_argument("-w", "--workers", type=int, default=1)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--shots", type=int, default=1, help="histogram samples per trajectory")
    stats.add_argument("--timeout", type=float, default=None)
    stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )
    stats.add_argument(
        "--format", choices=("text", "json", "openmetrics"), default=None,
        help="output format (openmetrics shares the `serve --metrics-port` "
        "endpoint formatter; --json is shorthand for --format=json)",
    )
    stats.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    stats.add_argument(
        "--trace", action="store_true",
        help="include scheduler trace events (parallel runs only)",
    )
    _add_method_argument(stats)
    _add_property_arguments(stats)
    _add_noise_arguments(stats)

    profile = subparsers.add_parser(
        "profile",
        help="run with the DD hot-loop profiler on and report per-gate/per-op time",
    )
    profile.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")
    profile.add_argument("-M", "--trajectories", type=int, default=100)
    profile.add_argument("-b", "--backend", choices=("dd", "statevector"), default="dd")
    profile.add_argument("-w", "--workers", type=int, default=1)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--shots", type=int, default=1, help="histogram samples per trajectory")
    profile.add_argument("--timeout", type=float, default=None)
    profile.add_argument(
        "--flame", default=None, metavar="PATH",
        help="write folded-stack output (flamegraph.pl / speedscope compatible)",
    )
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="number of hottest frames to print",
    )
    _add_property_arguments(profile)
    _add_noise_arguments(profile)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the seeded fault-injection suite against the service stack",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--faults", default=None, metavar="KINDS",
        help="comma-separated fault kinds (default: a crash/hang/corruption mix; "
             "see docs/ROBUSTNESS.md for the full taxonomy and aliases)",
    )
    chaos.add_argument("-M", "--trajectories", type=int, default=80)
    chaos.add_argument("-n", "--qubits", type=int, default=4)
    chaos.add_argument("-w", "--workers", type=int, default=2)
    chaos.add_argument("--chunk-size", type=int, default=16)
    chaos.add_argument(
        "--chunk-timeout", type=float, default=2.0,
        help="scheduler chunk timeout (bounds how long a `hang` fault stalls)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )
    chaos.add_argument(
        "--kill-serve", action="store_true",
        help="restart/resume scenario instead of the fault-plan suite: "
        "SIGKILL a live `serve` subprocess mid-job, restart it with "
        "--resume, and assert the final result is bit-identical to an "
        "uninterrupted run (docs/ROBUSTNESS.md)",
    )
    chaos.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="with --kill-serve: keep stores/journals/event logs here "
        "(CI uploads them as artifacts) instead of a removed tempdir",
    )

    table = subparsers.add_parser("table", help="regenerate a paper table")
    table.add_argument("which", choices=("1a", "1b", "1c"))
    table.add_argument("-M", "--trajectories", type=int, default=None)
    table.add_argument("--timeout", type=float, default=None)
    table.add_argument("-w", "--workers", type=int, default=1)
    table.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also write a JSON metrics sidecar (hit rates, latency, peak nodes)",
    )

    report = subparsers.add_parser(
        "report", help="regenerate all paper tables as a Markdown report"
    )
    report.add_argument("-M", "--trajectories", type=int, default=10)
    report.add_argument("--timeout", type=float, default=30.0)
    report.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    subparsers.add_parser("circuits", help="list built-in benchmark circuits")

    dot = subparsers.add_parser("dot", help="export a final-state DD as Graphviz dot")
    dot.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")
    dot.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    draw = subparsers.add_parser("draw", help="render a circuit as ASCII art")
    draw.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")

    equiv = subparsers.add_parser(
        "equiv", help="DD-based equivalence check of two circuits"
    )
    equiv.add_argument("first", help="first circuit (.qasm / ghz:<n> / name)")
    equiv.add_argument("second", help="second circuit (.qasm / ghz:<n> / name)")
    equiv.add_argument(
        "--strict", action="store_true", help="require equality including global phase"
    )

    fuse = subparsers.add_parser(
        "fuse", help="fuse single-qubit gate runs and print the optimised QASM"
    )
    fuse.add_argument("circuit", help=".qasm file, ghz:<n>, qft:<n>, or a QASMBench name")
    fuse.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    return parser


def _resolve_cli_method(args, circuit, model, properties) -> str:
    """Resolve ``--method`` for one-shot commands (run / stats).

    Mirrors the scheduler's dispatch: a forced ``exact`` on an unsupported
    spec is an error; ``auto`` consults the cost model (and prints the
    decision so the routing is never silent).
    """
    if args.method == "stochastic":
        return "stochastic"
    from .exact import estimate_costs, exact_unsupported_reason

    reason = exact_unsupported_reason(circuit, properties)
    if args.method == "exact":
        if reason is not None:
            raise SystemExit(f"--method exact unsupported: {reason}")
        return "exact"
    if reason is not None:
        print(f"auto dispatch -> stochastic ({reason})")
        return "stochastic"
    decision = estimate_costs(circuit, model, properties, args.trajectories)
    print(decision.render())
    return decision.method


def _command_run(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    properties = _properties_from_args(args)
    model = _noise_from_args(args)
    method = _resolve_cli_method(args, circuit, model, properties)
    if method == "exact":
        from .exact import simulate_exact

        result = simulate_exact(circuit, noise_model=model, properties=properties)
    else:
        result = simulate_stochastic(
            circuit,
            noise_model=model,
            properties=properties,
            trajectories=args.trajectories,
            backend=args.backend,
            workers=args.workers,
            seed=args.seed,
            sample_shots=args.shots,
            timeout=args.timeout,
        )
    print(result.summary())
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from .service import JobSpec, enqueue_job

    try:
        circuit = _load_circuit(args.circuit)
        spec = JobSpec.build(
            circuit,
            noise_model=_noise_from_args(args),
            properties=_properties_from_args(args),
            trajectories=args.trajectories,
            seed=args.seed,
            backend_kind=args.backend,
            sample_shots=args.shots,
            timeout=args.timeout,
            method=args.method,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot submit {args.circuit!r}: {error}")
    store = _open_store(args)
    key, cached = enqueue_job(store, spec)
    if cached:
        print(f"{key}\ncache hit: result already stored, nothing queued")
    else:
        method_note = "" if args.method == "stochastic" else f", method={args.method}"
        print(f"{key}\nqueued {circuit.name} (M={args.trajectories}{method_note}) — "
              f"run `repro-sim serve --store {store.directory}` to execute")
    return 0


def _command_status(args: argparse.Namespace) -> int:
    from .service import query_status

    store = _open_store(args)
    try:
        key = store.resolve_key(args.key)
        print(query_status(store, key).render())
    except KeyError as error:
        raise SystemExit(str(error))
    return 0


def _command_result(args: argparse.Namespace) -> int:
    import time as _time

    store = _open_store(args)
    deadline = (
        None if args.wait_timeout is None else _time.monotonic() + args.wait_timeout
    )
    while True:
        try:
            key = store.resolve_key(args.key)
        except KeyError as error:
            if not args.wait:
                raise SystemExit(str(error))
            key = None
        if key is not None:
            result = store.get(key)
            if result is not None:
                print(result.summary())
                return 0
            if not args.wait:
                print(f"job {key[:16]}… has no final result yet "
                      f"(use --wait, or check `status`)")
                return 1
        if deadline is not None and _time.monotonic() >= deadline:
            print("timed out waiting for the result")
            return 1
        _time.sleep(0.1)


def _command_serve(args: argparse.Namespace) -> int:
    from .service import serve

    store = _open_store(args)
    processed = serve(
        store,
        workers=args.workers,
        once=args.once,
        poll_interval=args.poll_interval,
        chunk_size=args.chunk_size,
        max_retries=args.max_retries,
        max_jobs=args.max_jobs,
        metrics_port=args.metrics_port,
        events_log=args.events_log,
        trace_dir=args.trace_dir,
        heartbeat_interval=args.heartbeat_interval,
        resume=args.resume,
        drain_timeout=args.drain_timeout,
    )
    print(f"processed {processed} job(s)")
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from .service import list_jobs

    rows = list_jobs(_open_store(args))
    if args.json:
        print(_json.dumps(
            {"schema": "repro.jobs/v1", "jobs": rows}, indent=2, sort_keys=True
        ))
        return 0
    if not rows:
        print("no resumable work (journal clean, queue empty)")
        return 0
    for row in rows:
        done = row.get("completed_trajectories", 0)
        total = row.get("trajectories", 0)
        extra = ""
        if row["source"] == "journal":
            extra = (
                f" chunks={row['completed_chunks']}/{row['planned_chunks']}"
            )
        if "method" in row:
            extra += f" method={row['method']}"
        if "engine" in row:
            extra += f" engine={row['engine']}"
        print(
            f"{row['key'][:16]}… [{row['source']}] "
            f"{row.get('circuit', '?')} {done}/{total} trajectories{extra}"
        )
        if "dispatch" in row:
            print(f"    {row['dispatch']}")
    print(
        f"{len(rows)} job(s); run `repro-sim serve --once --resume` "
        f"to finish them"
    )
    return 0


def _command_history(args: argparse.Namespace) -> int:
    """``repro history`` — the run ledger's per-family view.

    Reads ``<store>/ledger/runs.jsonl`` (``repro.ledger/v1``) read-only and
    reports, per circuit family: run counts by method, observed peak DD
    node sizes (the measured dispatch cost model's inputs), throughput,
    and node-ceiling fallbacks.  ``--trend`` compares each family's latest
    stochastic rate against the histogram-mean rate of the family's runs on
    the same trajectory engine (an ``auto`` family may run dense or on DD)
    and exits 1 when any family dropped more than 20%.
    """
    import json as _json

    from .obs.ledger import ledger_path, replay_ledger

    store = _open_store(args)
    if store.directory is None:
        print("history needs a store with an on-disk directory", file=sys.stderr)
        return 2
    state = replay_ledger(ledger_path(store.directory))
    families = []
    for fingerprint in state.order:
        aggregate = state.aggregates[fingerprint]
        if args.fingerprint and not fingerprint.startswith(args.fingerprint):
            continue
        recent = state.recent.get(fingerprint, [])
        latest_rate = None
        baseline = None
        for record in reversed(recent):
            if record.get("rec") == "run" and record.get("method") != "exact":
                rate = record.get("trajectories_per_second")
                if isinstance(rate, (int, float)) and rate > 0:
                    latest_rate = float(rate)
                    baseline = aggregate.mean_rate(str(record.get("engine", "")))
                break
        regression = None
        if args.trend and latest_rate is not None and baseline:
            drop = 1.0 - latest_rate / baseline
            regression = {
                "latest": latest_rate,
                "baseline": baseline,
                "drop": drop,
                "regressed": drop > 0.20,
            }
        entry = {
            "fingerprint": fingerprint,
            "qubits": aggregate.qubits,
            "depth": aggregate.depth,
            "runs": aggregate.runs,
            "exact_runs": aggregate.exact_runs,
            "stochastic_runs": aggregate.stochastic_runs,
            "fallbacks": aggregate.fallbacks,
            "exact_peak_nodes": aggregate.exact_peak_nodes,
            "state_peak_nodes": aggregate.state_peak_nodes,
            "fallback_peak_nodes": aggregate.fallback_peak_nodes,
            "dense_peak_nodes": aggregate.dense_peak_nodes,
            "median_rate": aggregate.median_rate(),
            "mean_p_clean": aggregate.mean_p_clean(),
            "cpu_seconds": aggregate.cpu_seconds,
            "trajectories": aggregate.trajectories,
            "effective_trajectories": aggregate.effective_trajectories,
        }
        if regression is not None:
            entry["trend"] = regression
        if args.fingerprint:
            entry["recent"] = recent
        families.append(entry)
    regressed = [
        f["fingerprint"] for f in families
        if f.get("trend", {}).get("regressed")
    ]
    if args.json:
        print(_json.dumps(
            {
                "schema": "repro.history/v1",
                "directory": store.directory,
                "families": families,
                "regressions": regressed,
            },
            indent=2, sort_keys=True,
        ))
        return 1 if regressed else 0
    if not families:
        if args.fingerprint:
            print(f"no ledger history matches fingerprint {args.fingerprint!r}")
        else:
            print("no ledger history (run jobs through `repro-sim serve` first)")
        return 0
    for entry in families:
        peaks = []
        if entry["exact_peak_nodes"]:
            peaks.append(f"rho<={entry['exact_peak_nodes']}")
        if entry["state_peak_nodes"]:
            peaks.append(f"state<={entry['state_peak_nodes']}")
        if entry["dense_peak_nodes"]:
            # Dense runs' engine choice stopped the DD run at this size.
            peaks.append(f"state>={entry['dense_peak_nodes']}")
        if entry["fallback_peak_nodes"]:
            peaks.append(f"fallback>={entry['fallback_peak_nodes']}")
        line = (
            f"{entry['fingerprint']}  {entry['qubits']}q depth={entry['depth']} "
            f"runs={entry['runs']} (exact={entry['exact_runs']} "
            f"stochastic={entry['stochastic_runs']} "
            f"fallbacks={entry['fallbacks']})"
        )
        if peaks:
            line += "  nodes: " + " ".join(peaks)
        if entry["median_rate"]:
            line += f"  ~{entry['median_rate']:.3g} traj/s"
        print(line)
        trend = entry.get("trend")
        if trend is not None:
            verdict = "REGRESSED" if trend["regressed"] else "ok"
            print(
                f"    trend: latest {trend['latest']:.3g} traj/s vs "
                f"baseline {trend['baseline']:.3g} "
                f"({trend['drop']:+.1%} drop) -> {verdict}"
            )
        if args.fingerprint:
            for record in entry.get("recent", []):
                print(f"    {_json.dumps(record, sort_keys=True)}")
    print(
        f"{len(families)} famil{'y' if len(families) == 1 else 'ies'}; "
        f"measured dispatch uses these peaks"
    )
    return 1 if regressed else 0


def _command_monitor(args: argparse.Namespace) -> int:
    import time as _time

    from .service import JobState, query_status

    store = _open_store(args)
    deadline = (
        None if args.max_seconds is None else _time.monotonic() + args.max_seconds
    )
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    while True:
        try:
            status = query_status(store, store.resolve_key(args.key))
        except KeyError as error:
            if args.once:
                raise SystemExit(str(error))
            status = None
            print(f"waiting for job {args.key!r} to appear in the store…")
        if status is not None:
            print(f"{clear}{status.render()}", flush=True)
            if status.state in (JobState.COMPLETED, JobState.FAILED,
                                JobState.CANCELLED):
                return 0 if status.state == JobState.COMPLETED else 1
        if args.once:
            return 0
        if deadline is not None and _time.monotonic() >= deadline:
            print("monitor timed out with the job still running")
            return 1
        _time.sleep(max(0.05, args.interval))


def _command_cache(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.directory}")
        return 0
    stats = store.stats()
    print(f"store: {stats['directory']}")
    print(f"  final results: {stats['results']}")
    print(f"  partial checkpoints: {stats['partials']}")
    print(f"  queued jobs: {stats['queued']}")
    print(f"  disk usage: {stats['disk_bytes']} bytes")
    if stats.get("ledger_runs") or stats.get("ledger_bytes"):
        print(
            f"  run ledger: {stats['ledger_runs']} run(s) across "
            f"{stats['ledger_families']} famil"
            f"{'y' if stats['ledger_families'] == 1 else 'ies'} "
            f"({stats['ledger_bytes']} bytes) — see `repro-sim history`"
        )
    if stats.get("corrupt"):
        print(f"  quarantined (corrupt) entries: {stats['corrupt']}")
        for name in store.corrupt_entries():
            print(f"    {name}")
    for key in store.result_keys():
        spec = store.get_spec_dict(key)
        label = spec["circuit_name"] if spec else "?"
        print(f"  {key[:16]}… {label}")
    return 0


def _render_stats(payload: dict) -> str:
    """Human-readable view of a ``repro.stats/v1`` payload."""
    from .obs import format_histogram

    exact = payload.get("method") == "exact"
    lines = [
        f"{payload['circuit']} — {payload['backend']} backend, "
        + ("exact density-matrix method" if exact
           else f"{payload['workers']} worker(s)"),
    ]
    if not exact:
        lines.append(
            f"trajectories: {payload['completed_trajectories']}"
            f"/{payload['requested_trajectories']}"
            + (" [TIMED OUT]" if payload["timed_out"] else "")
        )
    lines.append(
        f"elapsed: {payload['elapsed_seconds']:.3f} s "
        f"(cpu {payload['cpu_seconds']:.3f} s)"
    )
    if payload["peak_nodes"]:
        lines.append(f"peak DD nodes: {payload['peak_nodes']}")
    rates = payload["rates"]
    if rates:
        lines.append("hit rates:")
        lines.extend(f"  {name}: {rates[name]:.3f}" for name in sorted(rates))
    counters = payload["metrics"].get("counters", {})
    service_counters = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(
            ("scheduler.", "store.", "errors.fired.", "dd.gc.", "faults.",
             "prefix.", "strata.", "gateplan.", "exact.", "dispatch.")
        )
    }
    if service_counters:
        lines.append("counters:")
        lines.extend(f"  {name}: {value}" for name, value in service_counters.items())
    histograms = payload["metrics"].get("histograms", {})
    for name in ("trajectory.seconds", "property.eval_seconds", "dd.state_nodes"):
        data = histograms.get(name)
        if data and data.get("count"):
            lines.append(f"{name}:")
            lines.extend(format_histogram(data))
    trace = payload.get("trace")
    if trace is not None:
        lines.append(f"trace ({len(trace)} events, newest last):")
        for event in trace[-20:]:
            attrs = " ".join(f"{k}={v}" for k, v in event["attrs"].items())
            lines.append(
                f"  {event['name']} +{1000.0 * event['duration']:.1f}ms {attrs}"
            )
    return "\n".join(lines)


def _command_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import derive_rates
    from .stochastic import StochasticSimulator

    circuit = _load_circuit(args.circuit)
    model = _noise_from_args(args)
    properties = _properties_from_args(args)
    method = _resolve_cli_method(args, circuit, model, properties)
    if method == "exact":
        from .exact import simulate_exact

        result = simulate_exact(circuit, noise_model=model, properties=properties)
        trace = None
    else:
        simulator = StochasticSimulator(backend=args.backend, workers=args.workers)
        try:
            result = simulator.run(
                circuit,
                noise_model=model,
                properties=properties,
                trajectories=args.trajectories,
                seed=args.seed,
                sample_shots=args.shots,
                timeout=args.timeout,
            )
            trace = simulator.trace_events() if args.trace else None
        finally:
            simulator.close()

    metrics = result.metrics
    # Scheduler health counters appear even when nothing went wrong (and
    # even on serial runs): "0 retries, 0 respawns" is itself the report.
    counters = metrics.setdefault("counters", {})
    counters.setdefault("scheduler.retries", 0)
    counters.setdefault("scheduler.worker_respawns", 0)
    # Dispatch routing is reported the same way — always present, so the
    # chosen path (and the never-taken ones, at 0) is in every payload.
    for name in (
        "dispatch.exact",
        "dispatch.stochastic",
        "dispatch.fallback",
        "dispatch.measured",
        "dispatch.worst_case",
    ):
        counters.setdefault(name, 0)
    counters["dispatch." + ("exact" if method == "exact" else "stochastic")] += 1
    if method == "exact":
        counters.setdefault("exact.kraus_applications", 0)
        counters.setdefault("exact.superop_applications", 0)
    payload = {
        "schema": "repro.stats/v1",
        "circuit": circuit.name,
        "backend": args.backend,
        "method": method,
        "workers": args.workers,
        "requested_trajectories": result.requested_trajectories,
        "completed_trajectories": result.completed_trajectories,
        "timed_out": result.timed_out,
        "elapsed_seconds": result.elapsed_seconds,
        "cpu_seconds": result.cpu_seconds,
        "peak_nodes": result.peak_nodes,
        "metrics": metrics,
        "rates": derive_rates(metrics),
    }
    if trace is not None:
        payload["trace"] = trace

    fmt = args.format or ("json" if args.json else "text")
    if fmt == "openmetrics":
        text = _stats_openmetrics(circuit.name, result, payload).rstrip("\n")
    elif fmt == "json":
        text = _json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = _render_stats(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _stats_openmetrics(circuit_name: str, result, payload: dict) -> str:
    """Render a stats run through the serve endpoint's formatter.

    One formatter backs both surfaces, so a one-shot ``repro stats
    --format=openmetrics`` run and a live scrape of ``serve
    --metrics-port`` emit byte-compatible exposition text.
    """
    from .obs import merge_snapshots, to_openmetrics

    snapshot = merge_snapshots(payload["metrics"])  # deep copy
    gauges = snapshot.setdefault("gauges", {})
    gauges["run.elapsed_seconds"] = float(payload["elapsed_seconds"])
    gauges["run.completed_trajectories"] = float(payload["completed_trajectories"])
    if payload["peak_nodes"]:
        gauges["run.peak_nodes"] = float(payload["peak_nodes"])
    gauges.update(payload["rates"])
    labeled = []
    for name, estimate in sorted(result.estimates.items()):
        if estimate.count <= 0:
            continue
        labels = {"property": name, "circuit": circuit_name}
        labeled.append(("run.estimate.mean", labels, estimate.mean))
        labeled.append(
            ("run.estimate.halfwidth", labels, estimate.hoeffding_halfwidth())
        )
    return to_openmetrics(snapshot, labeled)


def _command_profile(args: argparse.Namespace) -> int:
    from .obs import attributed_seconds, folded_lines
    from .obs.profile import PROFILE_ENV

    circuit = _load_circuit(args.circuit)
    properties = _properties_from_args(args)
    previous = os.environ.get(PROFILE_ENV)
    os.environ[PROFILE_ENV] = "on"
    try:
        result = simulate_stochastic(
            circuit,
            noise_model=_noise_from_args(args),
            properties=properties,
            trajectories=args.trajectories,
            backend=args.backend,
            workers=args.workers,
            seed=args.seed,
            sample_shots=args.shots,
            timeout=args.timeout,
        )
    finally:
        if previous is None:
            os.environ.pop(PROFILE_ENV, None)
        else:
            os.environ[PROFILE_ENV] = previous
    profile = result.profile
    if not profile or not profile.get("frames"):
        raise SystemExit(
            "no profile collected (workers inherited REPRO_PROFILE=off?)"
        )
    wall = float(profile.get("wall_seconds", 0.0))
    attributed = attributed_seconds(profile)
    print(
        f"{circuit.name} — {result.completed_trajectories} trajectories, "
        f"{wall:.3f} s profiled span wall time "
        f"({attributed:.3f} s attributed to frames)"
    )
    frames = sorted(
        profile["frames"].items(),
        key=lambda item: item[1]["seconds"],
        reverse=True,
    )
    print(f"hottest frames (self time, top {args.top}):")
    for path, data in frames[: max(1, args.top)]:
        share = data["seconds"] / wall if wall > 0 else 0.0
        print(
            f"  {data['seconds'] * 1000.0:9.2f} ms  {share:6.1%}  "
            f"x{data['count']}  {path}"
        )
    growth = sorted(
        profile.get("nodes", {}).items(),
        key=lambda item: item[1]["growth"],
        reverse=True,
    )
    hot_growth = [(path, data) for path, data in growth if data["growth"] > 0]
    if hot_growth:
        print("DD node growth by frame:")
        for path, data in hot_growth[: max(1, args.top)]:
            print(
                f"  +{data['growth']:8d} nodes (peak {data['peak']})  {path}"
            )
    if args.flame:
        lines = folded_lines(profile)
        with open(args.flame, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.flame} ({len(lines)} folded stacks)")
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from .faults.chaos import DEFAULT_KINDS, run_chaos, run_kill_serve

    if args.kill_serve:
        # The restart/resume scenario wants many small chunks so the
        # SIGKILL lands mid-job; rescale the suite defaults unless the
        # user overrode them explicitly.
        trajectories = 240 if args.trajectories == 80 else args.trajectories
        chunk_size = 4 if args.chunk_size == 16 else args.chunk_size
        report = run_kill_serve(
            seed=args.seed,
            trajectories=trajectories,
            num_qubits=3 if args.qubits == 4 else args.qubits,
            workers=args.workers,
            chunk_size=chunk_size,
            work_dir=args.work_dir,
        )
    else:
        kinds = (
            tuple(name.strip() for name in args.faults.split(",") if name.strip())
            if args.faults
            else DEFAULT_KINDS
        )
        report = run_chaos(
            seed=args.seed,
            kinds=kinds,
            trajectories=args.trajectories,
            num_qubits=args.qubits,
            workers=args.workers,
            chunk_size=args.chunk_size,
            chunk_timeout=args.chunk_timeout,
        )
    if args.json:
        payload = {
            "schema": "repro.chaos/v1",
            "seed": report.seed,
            "kinds": list(report.kinds),
            "trajectories": report.trajectories,
            "plan": report.plan,
            "reference_estimates": report.reference_estimates,
            "pass_estimates": report.pass_estimates,
            "injected": report.injected,
            "recovered": report.recovered,
            "checks": [
                {"name": check.name, "ok": check.ok, "detail": check.detail}
                for check in report.checks
            ],
            "ok": report.ok,
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _command_table(args: argparse.Namespace) -> int:
    import json as _json

    if args.which == "1a":
        report = run_table1a(
            trajectories=args.trajectories or 50,
            timeout=args.timeout or 30.0,
            workers=args.workers,
        )
    elif args.which == "1b":
        report = run_table1b(
            trajectories=args.trajectories or 50,
            timeout=args.timeout or 30.0,
            workers=args.workers,
        )
    else:
        report = run_table1c(
            trajectories=args.trajectories or 20,
            timeout=args.timeout or 60.0,
            workers=args.workers,
        )
    print(report.render())
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            _json.dump(report.metrics_sidecar(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics sidecar {args.metrics}")
    return 0


def _command_circuits() -> int:
    print("built-in circuits (name: paper qubit count):")
    for name, (qubits, _) in sorted(QASMBENCH_CIRCUITS.items()):
        print(f"  {name}: {qubits}")
    print("parameterised: ghz:<n>, qft:<n>")
    return 0


def _command_dot(args: argparse.Namespace) -> int:
    import random

    circuit = _load_circuit(args.circuit)
    backend = DDBackend(circuit.num_qubits)
    execute_circuit(backend, circuit, random.Random(0))
    dot_source = to_dot(backend.state, name=circuit.name.replace("-", "_"))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dot_source + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot_source)
    return 0


def _command_draw(args: argparse.Namespace) -> int:
    from .circuits.drawing import draw_circuit

    print(draw_circuit(_load_circuit(args.circuit)))
    return 0


def _command_equiv(args: argparse.Namespace) -> int:
    from .simulators import circuits_equivalent

    first = _load_circuit(args.first)
    second = _load_circuit(args.second)
    equivalent = circuits_equivalent(
        first, second, up_to_global_phase=not args.strict
    )
    phase_note = "" if args.strict else " (up to global phase)"
    print(f"{'EQUIVALENT' if equivalent else 'NOT equivalent'}{phase_note}")
    return 0 if equivalent else 1


def _command_fuse(args: argparse.Namespace) -> int:
    from .circuits.optimize import fuse_single_qubit_runs

    circuit = _load_circuit(args.circuit)
    fused = fuse_single_qubit_runs(circuit)
    qasm = fused.to_qasm()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(qasm)
        print(
            f"wrote {args.output}: {circuit.num_gates()} -> {fused.num_gates()} gates"
        )
    else:
        print(qasm)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from .harness import report_markdown, run_table1b, run_table1c

    reports = [
        run_table1a(
            qubit_range=(4, 8, 12, 16, 20, 32),
            trajectories=args.trajectories,
            timeout=args.timeout,
        ),
        run_table1b(
            qubit_range=(4, 8, 12, 16, 20),
            trajectories=args.trajectories,
            timeout=args.timeout,
        ),
        run_table1c(trajectories=args.trajectories, timeout=args.timeout),
    ]
    text = report_markdown(
        reports,
        title="Stochastic DD simulation — table regeneration",
        notes=(
            "Scaled-down reproduction of the paper's Tables Ia-Ic; see "
            "EXPERIMENTS.md for the shape analysis."
        ),
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — the POSIX-polite exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "status":
        return _command_status(args)
    if args.command == "result":
        return _command_result(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "jobs":
        return _command_jobs(args)
    if args.command == "history":
        return _command_history(args)
    if args.command == "monitor":
        return _command_monitor(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "profile":
        return _command_profile(args)
    if args.command == "chaos":
        return _command_chaos(args)
    if args.command == "table":
        return _command_table(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "circuits":
        return _command_circuits()
    if args.command == "dot":
        return _command_dot(args)
    if args.command == "draw":
        return _command_draw(args)
    if args.command == "equiv":
        return _command_equiv(args)
    if args.command == "fuse":
        return _command_fuse(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
