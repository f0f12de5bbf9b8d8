"""Run ledger: torn tails, rotation idempotency, aggregate merge algebra."""

import json
import os
import random

import pytest

from repro.circuits.library import ghz
from repro.faults import FaultPlan, FaultSpec, PLAN_ENV, reset_injector_cache
from repro.noise import NoiseModel
from repro.obs import ledger as ledger_module
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerState,
    RunLedger,
    circuit_fingerprint,
    family_totals,
    ledger_path,
    median_rate,
    replay_ledger,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots

PAPER_NOISE = NoiseModel.paper_defaults()
FP = "a" * 16
OTHER_FP = "b" * 16
KEY = "c" * 64


def _record_run(
    ledger, fp=FP, method="stochastic", peak=30, key=KEY, rate=120.0, engine=None
):
    ledger.record_run(
        key=key,
        fingerprint=fp,
        method=method,
        qubits=5,
        depth=6,
        peak_nodes=peak,
        cpu_seconds=1.5,
        elapsed_seconds=2.0,
        trajectories=100,
        effective_trajectories=90.0,
        trajectories_per_second=rate,
        p_clean=0.9,
        halfwidths={"P(00000)": 0.01},
        engine=engine,
    )


@pytest.fixture
def wal(tmp_path):
    return ledger_path(str(tmp_path))


def _family(history, fp=FP):
    """A family's counters and gauges by name, from an ``aggregates()``."""
    return family_totals(history[fp])


class TestRoundTrip:
    def test_runs_replay_into_family_aggregates(self, wal):
        with RunLedger(wal) as ledger:
            _record_run(ledger, method="stochastic", peak=30)
            _record_run(ledger, method="exact", peak=500)
            ledger.record_fallback(KEY, FP, nodes=4000, ceiling=1000)
        history = replay_ledger(wal).aggregates()[FP]
        family = family_totals(history)
        assert family["runs"] == 2
        assert family["exact_runs"] == 1 and family["stochastic_runs"] == 1
        assert family["fallbacks"] == 1
        assert family["exact_peak_nodes"] == 500
        assert family["state_peak_nodes"] == 30
        assert family["fallback_peak_nodes"] == 4000
        assert family["p_clean_sum"] / family["p_clean_count"] == pytest.approx(0.9)
        assert median_rate(history) > 0.0

    def test_dense_runs_fold_their_censored_peak_apart(self, wal):
        """A ``statevector`` run's peak is where its engine choice stopped
        the DD run: a lower bound, kept out of the DD runs' peak."""
        with RunLedger(wal) as ledger:
            _record_run(ledger, peak=30, engine="dd")
            _record_run(ledger, peak=95, engine="statevector")
            _record_run(ledger, peak=64, engine="statevector")
        history = replay_ledger(wal).aggregates()[FP]
        family = family_totals(history)
        assert (family["state_peak_nodes"], family["dense_peak_nodes"]) == (30, 95)
        rates = history["histograms"]
        assert (rates["rate.dd"]["count"], rates["rate.statevector"]["count"]) == (1, 2)

    def test_history_prints_the_dense_peak_as_a_lower_bound(self, tmp_path, capsys):
        from repro.cli import main

        with RunLedger(ledger_path(str(tmp_path))) as ledger:
            _record_run(ledger, peak=95, engine="statevector")
        assert main(["history", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "nodes: state>=95" in out
        assert "state<=" not in out

    def test_missing_file_replays_empty(self, tmp_path):
        state = replay_ledger(str(tmp_path / "nope" / "runs.jsonl"))
        assert state.aggregates() == {}

    def test_recent_window_keeps_raw_records(self, wal):
        with RunLedger(wal) as ledger:
            for i in range(12):
                _record_run(ledger, rate=float(i + 1))
        state = replay_ledger(wal)
        window = state.recent[FP]
        assert len(window) == 8  # RECENT_RECORDS
        assert window[-1]["trajectories_per_second"] == 12.0
        # The aggregate still counted every run, not just the window.
        assert _family(state.aggregates())["runs"] == 12


class TestTornTail:
    def test_truncated_final_record_is_skipped(self, wal):
        with RunLedger(wal) as ledger:
            _record_run(ledger)
            _record_run(ledger, method="exact", peak=500)
        with open(wal, "rb") as handle:
            raw = handle.read()
        lines = raw.rstrip(b"\n").split(b"\n")
        torn = b"\n".join(lines[:-1]) + b"\n" + lines[-1][: len(lines[-1]) // 2]
        with open(wal, "wb") as handle:
            handle.write(torn)
        metrics = MetricsRegistry()
        family = _family(replay_ledger(wal, metrics).aggregates())
        assert family["runs"] == 1
        assert family["exact_runs"] == 0
        assert metrics.snapshot()["counters"]["ledger.replay.torn_skipped"] == 1

    def test_unterminated_but_parseable_tail_is_skipped(self, wal):
        """A tail that happens to parse is still untrusted without its \\n."""
        with RunLedger(wal) as ledger:
            _record_run(ledger)
        record = json.dumps(
            {"rec": "run", "job": KEY, "fp": FP, "method": "exact",
             "qubits": 5, "depth": 6, "peak_nodes": 9999},
            separators=(",", ":"),
        )
        with open(wal, "ab") as handle:
            handle.write(record.encode("utf-8"))  # no trailing newline
        family = _family(replay_ledger(wal).aggregates())
        assert family["exact_runs"] == 0
        assert family["exact_peak_nodes"] == 0

    def test_bad_interior_line_is_skipped(self, wal):
        with RunLedger(wal) as ledger:
            _record_run(ledger)
            _record_run(ledger)
        with open(wal, "rb") as handle:
            lines = handle.read().rstrip(b"\n").split(b"\n")
        lines.insert(1, b"\x00garbage not json\x00")
        with open(wal, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")
        metrics = MetricsRegistry()
        assert _family(replay_ledger(wal, metrics).aggregates())["runs"] == 2
        assert metrics.snapshot()["counters"]["ledger.replay.bad_skipped"] == 1

    def test_open_time_rotation_heals_torn_tail(self, wal):
        with RunLedger(wal) as ledger:
            _record_run(ledger)
            _record_run(ledger)
        with open(wal, "r+b") as handle:
            handle.truncate(os.path.getsize(wal) - 7)
        with RunLedger(wal) as reopened:
            assert _family(reopened.aggregates())["runs"] == 1
        with open(wal, "rb") as handle:
            raw = handle.read()
        assert raw.endswith(b"\n")
        assert json.loads(raw.split(b"\n")[0])["schema"] == LEDGER_SCHEMA


class TestRotation:
    def test_reopen_twice_never_double_counts(self, wal):
        """Folded carry-over records must not re-enter the aggregates."""
        with RunLedger(wal) as ledger:
            _record_run(ledger, peak=30)
            _record_run(ledger, method="exact", peak=500)
            ledger.record_fallback(KEY, FP, nodes=4000, ceiling=1000)
            baseline = ledger.aggregates()[FP]
        for _ in range(3):  # each open rotates
            with RunLedger(wal) as reopened:
                assert reopened.aggregates()[FP] == baseline
                # Raw records survive rotation for trend display...
                assert len(reopened.recent(FP)) == 3
                # ...stamped folded so replay keeps them out of the sums.
                assert all(r.get("folded") for r in reopened.recent(FP))

    def test_reopen_prints_the_same_history(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path)
        with RunLedger(ledger_path(store)) as ledger:
            _record_run(ledger, peak=30, engine="dd")
            _record_run(ledger, peak=95, rate=400.0, engine="statevector")
            _record_run(ledger, method="exact", peak=500)
            ledger.record_fallback(KEY, OTHER_FP, nodes=4000, ceiling=1000)
        printed = []
        for _ in range(2):
            for argv in (["history", "--json", "--trend"], ["history"]):
                main(argv + ["--store", store])
            printed.append(capsys.readouterr().out)
            RunLedger(ledger_path(store)).close()  # the open rotates
        assert printed[0] == printed[1]

    def test_size_rotation_compacts_but_preserves_telemetry(self, wal, monkeypatch):
        monkeypatch.setattr(ledger_module, "MAX_BYTES", 2_000)
        with RunLedger(wal) as ledger:
            for i in range(100):
                _record_run(ledger, rate=float(i + 1))
            assert _family(ledger.aggregates())["runs"] == 100
            rotations = ledger.metrics.snapshot()["counters"]["ledger.rotations"]
            assert rotations > 1  # open-time plus at least one size-triggered
        assert os.path.getsize(wal) < 10_000
        assert _family(replay_ledger(wal).aggregates())["runs"] == 100

    def test_multiple_families_kept_apart(self, wal):
        with RunLedger(wal) as ledger:
            _record_run(ledger, fp=FP, peak=30)
            _record_run(ledger, fp=OTHER_FP, method="exact", peak=700)
        with RunLedger(wal) as reopened:
            assert _family(reopened.aggregates())["stochastic_runs"] == 1
            assert _family(reopened.aggregates(), OTHER_FP)["exact_peak_nodes"] == 700
            assert "f" * 16 not in reopened.aggregates()


def _assert_close(left, right):
    """Structural equality with float tolerance (sums reassociate)."""
    assert type(left) is type(right) or (
        isinstance(left, (int, float)) and isinstance(right, (int, float))
    )
    if isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            _assert_close(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_close(a, b)
    elif isinstance(left, float):
        assert left == pytest.approx(right)
    else:
        assert left == right


class TestAggregateMergeAlgebra:
    """Family snapshots merge associatively, so rotation order never matters."""

    @staticmethod
    def _random_records(rng, count):
        records = []
        for i in range(count):
            if rng.random() < 0.2:
                records.append(
                    {"rec": "fallback", "fp": FP,
                     "nodes": rng.randrange(1, 10**6),
                     "ceiling": rng.randrange(1, 10**5)}
                )
            else:
                record = {"rec": "run", "fp": FP,
                          "method": rng.choice(["exact", "stochastic"]),
                          "qubits": rng.randrange(2, 20),
                          "depth": rng.randrange(1, 50),
                          "peak_nodes": rng.randrange(1, 10**6),
                          "cpu_seconds": rng.random() * 10,
                          "elapsed_seconds": rng.random() * 10,
                          "trajectories": rng.randrange(0, 10**4),
                          "effective_trajectories": rng.random() * 10**4,
                          "trajectories_per_second": rng.random() * 10**5,
                          "p_clean": rng.random()}
                engine = rng.choice(["dd", "statevector", None])
                if engine is not None:  # None: a record older than engines
                    record["engine"] = engine
                records.append(record)
        return records

    @staticmethod
    def _fold(records):
        state = LedgerState()
        for record in records:
            state.apply(record)
        return state.aggregates()[FP]

    @pytest.mark.parametrize("seed", range(5))
    def test_any_partition_merges_to_the_same_aggregate(self, seed):
        rng = random.Random(seed)
        records = self._random_records(rng, 40)
        whole = self._fold(records)
        # Split at two random cut points into three chunks, merge pairwise
        # in both association orders: (a+b)+c and a+(b+c).
        i, j = sorted(rng.sample(range(1, 40), 2))
        a, b, c = (self._fold(records[:i]), self._fold(records[i:j]),
                   self._fold(records[j:]))
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        _assert_close(left, right)
        _assert_close(left, whole)
        # Rotation's path: a family's aggregate record, then later records.
        rotated = self._fold(
            [{"rec": "aggregate", "fp": FP, "agg": a}] + records[i:]
        )
        _assert_close(rotated, whole)


class TestFingerprint:
    def test_stable_across_rates_and_budgets(self):
        base = circuit_fingerprint(ghz(5), PAPER_NOISE)
        assert circuit_fingerprint(ghz(5), PAPER_NOISE.scaled(0.5)) == base
        assert circuit_fingerprint(ghz(5), PAPER_NOISE) == base

    def test_sensitive_to_structure(self):
        base = circuit_fingerprint(ghz(5), PAPER_NOISE)
        assert circuit_fingerprint(ghz(6), PAPER_NOISE) != base
        assert circuit_fingerprint(ghz(5), None) != base
        assert circuit_fingerprint(ghz(5), PAPER_NOISE, "dense") != base
        measured = circuit_fingerprint(ghz(5, measure=True), PAPER_NOISE)
        assert measured != base

    def test_is_short_hex(self):
        fingerprint = circuit_fingerprint(ghz(3), None)
        assert len(fingerprint) == 16
        int(fingerprint, 16)  # parses as hex


class TestFaultSites:
    @pytest.fixture(autouse=True)
    def _clean_injector(self, monkeypatch):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reset_injector_cache()
        yield
        reset_injector_cache()

    def _arm(self, monkeypatch, kind):
        plan = FaultPlan(faults=(FaultSpec(kind=kind, operation="run"),), seed=0)
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        reset_injector_cache()

    def test_enospc_degrades_but_mirror_advances(self, wal, monkeypatch):
        self._arm(monkeypatch, "enospc-ledger")
        with RunLedger(wal) as ledger:
            _record_run(ledger)  # ENOSPC injected
            assert ledger.degraded
            _record_run(ledger)  # shed during cooldown
            counters = ledger.metrics.snapshot()["counters"]
            assert counters["ledger.write.errors"] == 1
            assert counters["ledger.degraded.skipped"] == 1
            # The running process still dispatches on fresh history.
            assert _family(ledger.aggregates())["runs"] == 2
        # Crash durability for the shed records is what was lost.
        assert FP not in replay_ledger(wal).aggregates()

    def test_torn_ledger_fault_tears_the_tail(self, wal, monkeypatch):
        self._arm(monkeypatch, "torn-ledger")
        with RunLedger(wal) as ledger:
            _record_run(ledger)
        metrics = MetricsRegistry()
        assert FP not in replay_ledger(wal, metrics).aggregates()
        assert metrics.snapshot()["counters"]["ledger.replay.torn_skipped"] == 1


class TestMetricsSurface:
    def test_snapshot_refreshes_occupancy_gauges(self, wal):
        with RunLedger(wal) as ledger:
            _record_run(ledger, fp=FP)
            _record_run(ledger, fp=OTHER_FP)
            snapshot = ledger.metrics_snapshot()
            assert snapshot["gauges"]["ledger.families"] == 2.0
            assert snapshot["gauges"]["ledger.runs.total"] == 2.0
            assert snapshot["counters"]["ledger.records.written"] == 2


class TestHistoryTrend:
    """``repro history --trend`` compares a run only with runs on its engine:
    an ``auto`` family that runs dense must not make a DD run look slow."""

    @staticmethod
    def _trend(tmp_path, capsys, runs):
        from repro.cli import main

        with RunLedger(ledger_path(str(tmp_path))) as ledger:
            for engine, rate in runs:
                _record_run(ledger, rate=rate, engine=engine)
        code = main(["history", "--trend", "--json", "--store", str(tmp_path)])
        (family,) = json.loads(capsys.readouterr().out)["families"]
        return code, family["trend"]

    def test_dd_run_after_dense_runs_is_not_a_regression(self, tmp_path, capsys):
        code, trend = self._trend(
            tmp_path, capsys,
            [("dd", 10.0), ("statevector", 400.0), ("statevector", 420.0), ("dd", 9.5)],
        )
        assert code == 0
        assert trend["baseline"] == pytest.approx(9.75)
        assert not trend["regressed"]

    def test_slower_run_on_the_same_engine_still_regresses(self, tmp_path, capsys):
        code, trend = self._trend(
            tmp_path, capsys,
            [("dd", 10.0), ("statevector", 400.0), ("statevector", 200.0)],
        )
        assert code == 1
        assert trend["baseline"] == pytest.approx(300.0)
        assert trend["regressed"]

    def test_records_without_an_engine_compare_among_themselves(self, tmp_path, capsys):
        code, trend = self._trend(
            tmp_path, capsys, [(None, 100.0), ("statevector", 900.0), (None, 90.0)]
        )
        assert code == 0
        assert trend["baseline"] == pytest.approx(95.0)
