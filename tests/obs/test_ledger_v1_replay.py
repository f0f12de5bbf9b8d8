"""A ledger written in the ``repro.ledger/v1`` layout still answers the same.

``data/ledger_v1.jsonl`` was written by the v1 ledger code: five families'
``run`` and ``fallback`` records, a reopen whose rotation folded them into
v1-layout ``aggregate`` records (one field per statistic), then more raw
records.  Three aggregates were stripped to the older layouts v1 still
read: family B lacks ``engine_rate_hists`` and ``dense_peak_nodes``, D
lacks ``dense_peak_nodes``, E lacks ``engine_rate_hists``.
``data/ledger_v1_expected.json`` holds what the v1 code printed for that
file (``repro history`` in each mode, the store path as ``<STORE>``) and
the :class:`~repro.exact.cost.DispatchDecision` it returned.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil

import pytest

from repro.circuits.library import ghz, qaoa_maxcut, qft
from repro.cli import main
from repro.exact.cost import estimate_costs
from repro.noise import NoiseModel
from repro.obs.ledger import RunLedger, circuit_fingerprint, ledger_path, replay_ledger
from repro.stochastic.properties import BasisProbability, IdealFidelity

DATA = os.path.join(os.path.dirname(__file__), "data")
NOISE = NoiseModel.paper_defaults()
CIRCUITS = {
    "A": ghz(12),
    "B": qft(8),
    "C": qft(6),
    "D": qaoa_maxcut(7, measure=False),
    "E": ghz(6),
}

with open(os.path.join(DATA, "ledger_v1_expected.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)


@pytest.fixture
def store(tmp_path):
    directory = str(tmp_path)
    os.makedirs(os.path.dirname(ledger_path(directory)))
    shutil.copy(os.path.join(DATA, "ledger_v1.jsonl"), ledger_path(directory))
    return directory


def _history(store, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--store", store])
    return code, out.getvalue().replace(store, "<STORE>")


def _decisions(store):
    history = replay_ledger(ledger_path(store)).aggregates()
    decisions = {}
    for name, circuit in CIRCUITS.items():
        properties = [IdealFidelity(), BasisProbability("0" * circuit.num_qubits)]
        for budget in (30000, 2000):
            decision = estimate_costs(circuit, NOISE, properties, budget, "dd", history)
            decisions[f"{name}:{budget}"] = dataclasses.asdict(decision)
    return decisions


def test_fixture_families_match_todays_fingerprints():
    assert {
        name: circuit_fingerprint(circuit, NOISE, "dd")
        for name, circuit in CIRCUITS.items()
    } == EXPECTED["fingerprints"]


@pytest.mark.parametrize("label", sorted(EXPECTED["history"]))
def test_history_prints_what_v1_printed(store, label):
    case = EXPECTED["history"][label]
    assert _history(store, case["argv"]) == (case["exit"], case["stdout"])


def test_dispatch_decides_what_v1_decided(store):
    assert _decisions(store) == EXPECTED["decisions"]


def test_rotation_rewrites_v1_aggregates_as_snapshots(store):
    RunLedger(ledger_path(store)).close()
    with open(ledger_path(store), encoding="utf-8") as handle:
        aggregates = [
            record["agg"]
            for record in map(json.loads, handle)
            if record["rec"] == "aggregate"
        ]
    assert len(aggregates) == len(CIRCUITS)
    for agg in aggregates:
        assert set(agg) == {"counters", "gauges", "histograms"}
    for label in ("json", "json_trend", "plain", "plain_trend"):
        case = EXPECTED["history"][label]
        assert _history(store, case["argv"]) == (case["exit"], case["stdout"])
    assert _decisions(store) == EXPECTED["decisions"]
