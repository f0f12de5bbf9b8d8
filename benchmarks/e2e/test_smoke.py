"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs ``run.py --smoke`` untraced and traced over every workload and checks
the report against BENCHMARK.json: each workload present, every metric
named there reported with its unit, and every job passing the oracle.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(tmp_path, *extra):
    report_path = tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "-o", str(report_path), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    with open(report_path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def _check(runs, declared):
    spec = _spec()
    assert sorted(run["workload"] for run in runs) == sorted(
        workload["name"] for workload in spec["workloads"]
    )
    expected = {metric["name"]: metric["unit"] for metric in spec[declared]}
    for run in runs:
        assert run["failures"] == [] and run["correct"], run["failures"]
        assert {name: entry["unit"] for name, entry in run["metrics"].items()} == expected


def test_smoke_reports_every_end_to_end_metric(tmp_path):
    runs = _run(tmp_path)
    _check(runs, "end_to_end")
    for run in runs:
        assert all(entry["value"] > 0 for entry in run["metrics"].values()), run


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    runs = _run(tmp_path, "--trace", "1")
    _check(runs, "per_layer")
    layers = {run["workload"]: run["metrics"] for run in runs}
    assert layers["bv-measured"]["strata.search_s"]["value"] == 0.0
    assert layers["ghz-strata"]["strata.search_s"]["value"] > 0.0
    assert layers["service-mix"]["exact.run_s"]["value"] > 0.0
