"""``run.py compare``: parent versus change, metric by metric.

For every (workload, metric) it prints each side's median and quartiles
and a verdict, following the benchmark's rules:

* **improved** -- over at least 10 pairs (runs paired by seed), the change
  wins at least 9 of every 10 (ties count for neither side) and the
  medians differ by more than the parent's inter-quartile range;
* **unresolved** -- either side's spread (IQR over median) is wider than
  the metric's bound, unless every change run beats every parent run;
* **unchanged** -- the change's median is worse by no more than the bound;
* **regressed** -- worse by more than the bound.

Bounds and directions come from BENCHMARK.json; per-layer metrics have
neither, so they get medians and the change/parent ratio only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: Fewest seed-matched pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Dict[int, float], change: Dict[int, float], better: str,
            bound: float) -> str:
    """Verdict for one metric; ``parent``/``change`` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = _quartiles(p_values)
    c_q1, c_med, c_q3 = _quartiles(c_values)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for seed in seeds if sign * (change[seed] - parent[seed]) < 0)
    gain = sign * (p_med - c_med)
    if len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds) and gain > p_q3 - p_q1:
        return "improved"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (c - p) < 0 for c in c_values for p in p_values)
    if spread > bound and not all_better:
        return "unresolved"
    worse = -gain / abs(p_med) if p_med else 0.0
    return "unchanged" if worse <= bound else "regressed"


def _by_seed(runs: Sequence[dict]) -> Dict[str, Dict[str, Dict[int, float]]]:
    """workload -> metric -> seed -> value."""
    table: Dict[str, Dict[str, Dict[int, float]]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, {})[run["seed"]] = entry["value"]
    return table


def render(parent_runs: Sequence[dict], change_runs: Sequence[dict],
           spec: Optional[dict]) -> str:
    bounds = {m["name"]: m for m in (spec or {}).get("end_to_end", [])}
    parent, change = _by_seed(parent_runs), _by_seed(change_runs)
    lines = [f"{'workload':<14} {'metric':<30} {'parent median [q1, q3]':<36} "
             f"{'change median [q1, q3]':<36} verdict"]
    for workload in sorted(set(parent) & set(change)):
        failed = {
            side: sum(r["failed"] for r in runs if r["workload"] == workload)
            for side, runs in (("parent", parent_runs), ("change", change_runs))
        }
        lines.append(f"{workload}: failed jobs parent={failed['parent']} "
                     f"change={failed['change']}")
        for metric in sorted(set(parent[workload]) & set(change[workload])):
            p_values, c_values = parent[workload][metric], change[workload][metric]
            p_q1, p_med, p_q3 = _quartiles(list(p_values.values()))
            c_q1, c_med, c_q3 = _quartiles(list(c_values.values()))
            if metric in bounds:
                judged = verdict(p_values, c_values, bounds[metric]["better"],
                                 bounds[metric]["bound"])
            else:
                judged = f"ratio {c_med / p_med:.3f}" if p_med else "-"
            lines.append(
                f"{'':<14} {metric:<30} "
                f"{f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]':<36} "
                f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]':<36} {judged}"
            )
    return "\n".join(lines)


def run_pairs(count: int, parent_tree: str, change_tree: str, run_py: str,
              run_args: List[str], seed: int, prefix: str) -> Tuple[str, str]:
    """Alternate parent/change runs of this benchmark code over two source
    trees (parent first on even pairs); returns the two report paths."""
    sides = {"parent": os.path.join(parent_tree, "src"),
             "change": os.path.join(change_tree, "src")}
    runs: Dict[str, List[dict]] = {side: [] for side in sides}
    for index in range(count):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            out = f"{prefix}-{side}-{index}.json"
            subprocess.run(
                [sys.executable, run_py, "--src", sides[side],
                 "--seed", str(seed + index), "-o", out] + run_args,
                stdout=subprocess.DEVNULL, check=False,
            )
            if os.path.exists(out):
                runs[side].extend(load_runs(out))
                os.remove(out)
            else:
                print(f"pair {index}: {side} run produced no report", file=sys.stderr)
    paths = []
    for side, side_runs in runs.items():
        path = f"{prefix}-{side}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "repro.e2e/v1", "src": sides[side], "runs": side_runs},
                      handle, indent=1)
        paths.append(path)
    return paths[0], paths[1]
