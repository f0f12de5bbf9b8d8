"""End-to-end time-to-accuracy benchmark of the job service.

Drives each workload (workloads.py) through ``Scheduler(workers=2)`` over a
fresh result store, job journal and run ledger, checks every answer against
the committed oracle (references.json), and prints every metric by name
and unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W ...] [--seed S] [--trace [0|1]]
                                 [--smoke] [--repeat N] [--src DIR]
                                 [-o report.json]
    python benchmarks/e2e/run.py --refresh-references
    python benchmarks/e2e/run.py compare PARENT.json CHANGE.json [...]
    python benchmarks/e2e/run.py compare --pairs N --parent TREE --change TREE
                                 [--workload W ...] [--seed S] [-o PREFIX]

``--trace 0`` (default) reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from a separate traced pass.
Each workload runs in its own child process.  The benchmark refuses to run
when a ``REPRO_*`` environment override is set, so it always measures the
defaults, and it keeps every file it writes under ``.bench_e2e/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Seconds a one-workload run may take in total; longer children are killed.
RUN_TIMEOUT = 175.0
#: Seconds of closed loop per workload run (BENCHMARK.json's run_seconds).
DEFAULT_SECONDS = 20.0
SMOKE_SECONDS = 2.0
#: Longest loop that still leaves a run time to finish within RUN_TIMEOUT.
MAX_SECONDS = 60.0
WORKLOADS = ("ghz-strata", "bv-measured", "qaoa-hostile", "service-mix")


def _fail(message: str, code: int = 2) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help=f"seconds each workload takes new jobs (default "
                             f"{DEFAULT_SECONDS:g}, or {SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for checking the harness itself")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds S, S+1, ... this many times")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree holding the repro package")
    parser.add_argument("-o", "--output", help="write the full report here")
    parser.add_argument("--refresh-references", action="store_true",
                        help="recompute references.json (takes minutes)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser


def _environment(src: str, scratch: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH", "")) if part
    )
    env["TMPDIR"] = scratch
    return env


def _run_child(args, workload: str, seed: int, scratch: str, timeout: float) -> dict:
    """One workload in a fresh interpreter; kills its whole process group
    if it overruns, so no worker outlives the benchmark."""
    work = os.path.join(scratch, f"{workload}-{seed}-{args.trace}")
    os.makedirs(work)
    out = os.path.join(work, "run.json")
    command = [sys.executable, os.path.abspath(__file__), "--child", out,
               "--workload", workload, "--seed", str(seed), "--trace", str(args.trace),
               "--seconds", repr(args.seconds), "--src", args.src]
    command += ["--smoke"] if args.smoke else []
    child = subprocess.Popen(command, env=_environment(args.src, work),
                             stdout=sys.stderr, start_new_session=True)
    try:
        child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError(f"{workload} (seed {seed}) exceeded {timeout:.0f} s")
    finally:
        try:  # leftover workers of a crashed child
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if child.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"{workload} (seed {seed}) exited {child.returncode}")
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    shutil.rmtree(work, ignore_errors=True)
    return record


def _summary(runs: List[dict]) -> dict:
    """The last output line; several runs get ``workload/metric`` keys and
    medians over their seeds."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    single = len({run["workload"] for run in runs}) == 1
    for run in runs:
        for name, entry in run["metrics"].items():
            key = name if single else f"{run['workload']}/{name}"
            values.setdefault(key, []).append(entry["value"])
            units[key] = entry["unit"]
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            key: {"value": statistics.median(series), "unit": units[key]}
            for key, series in values.items()
        },
    }


def benchmark(args) -> int:
    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if overrides:
        _fail(f"refusing to run with overrides set: {', '.join(overrides)}")
    if not os.path.isfile(os.path.join(args.src, "repro", "__init__.py")):
        _fail(f"no repro package under {args.src}")
    scratch = os.path.join(ROOT, ".bench_e2e", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    started = time.monotonic()
    chosen = args.workload or WORKLOADS
    single = len(chosen) * args.repeat == 1
    runs: List[dict] = []
    try:
        for index in range(args.repeat):
            for workload in chosen:
                # A single run must end within RUN_TIMEOUT of the command's start.
                timeout = RUN_TIMEOUT - (time.monotonic() - started) if single else RUN_TIMEOUT
                run = _run_child(args, workload, args.seed + index, scratch, timeout)
                runs.append(run)
                for failure in run["failures"]:
                    print(f"FAIL {workload}: {failure}", file=sys.stderr)
    except RuntimeError as error:
        _fail(str(error), code=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"schema": "repro.e2e/v1", "src": args.src, "runs": runs},
                      handle, indent=1)
    for run in runs:
        for name, entry in run["metrics"].items():
            print(f"{run['workload']:<14} seed={run['seed']:<6} {name:<32} "
                  f"{entry['value']:>14.6g} {entry['unit']}")
    summary = _summary(runs)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def child(args) -> int:
    import harness

    deadline = time.monotonic() + RUN_TIMEOUT - 10.0
    record = harness.run_workload(
        args.workload[0], args.seed, bool(args.trace), args.smoke, args.seconds,
        os.path.dirname(args.child), deadline,
    )
    with open(args.child, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def refresh(args) -> int:
    sys.path.insert(1, args.src)
    import workloads

    print("recomputing references ...", file=sys.stderr)
    payload = workloads.refresh_references(lambda line: print(line, file=sys.stderr))
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCES_PATH}", file=sys.stderr)
    return 0


def compare_main(argv: List[str]) -> int:
    import compare

    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("reports", nargs="*", help="PARENT.json CHANGE.json [...]")
    parser.add_argument("--pairs", type=int, help="run this many parent/change pairs")
    parser.add_argument("--parent", help="parent source tree (with --pairs)")
    parser.add_argument("--change", help="change source tree (with --pairs)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("-o", "--output", default="pairs", help="report prefix (with --pairs)")
    args = parser.parse_args(argv)
    if args.pairs:
        if not (args.parent and args.change):
            parser.error("--pairs needs --parent and --change")
        run_args = ["--trace", str(args.trace)]
        for workload in args.workload or ():
            run_args += ["--workload", workload]
        reports = list(compare.run_pairs(args.pairs, args.parent, args.change,
                                         os.path.abspath(__file__), run_args,
                                         args.seed, args.output))
    else:
        reports = args.reports
    if len(reports) < 2:
        parser.error("need a parent report and at least one change report")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = None
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as handle:
            spec = json.load(handle)
    parent = compare.load_runs(reports[0])
    for change in reports[1:]:
        print(f"== {reports[0]} -> {change}")
        print(compare.render(parent, compare.load_runs(change), spec))
    return 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    args.src = os.path.abspath(args.src)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if not 0 < args.seconds <= MAX_SECONDS:
        _fail(f"--seconds must be in (0, {MAX_SECONDS:g}]")
    if args.child:
        return child(args)
    if args.refresh_references:
        return refresh(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
