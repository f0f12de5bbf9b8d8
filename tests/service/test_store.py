"""Tests for the LRU + on-disk content-addressed result store."""

import os

import pytest

from repro.service import ResultStore
from repro.stochastic.results import PropertyEstimate, StochasticResult


def make_result(n: int = 10, name: str = "c") -> StochasticResult:
    result = StochasticResult(
        circuit_name=name, backend_kind="dd", requested_trajectories=n
    )
    result.completed_trajectories = n
    estimate = PropertyEstimate("P(|0>)")
    for index in range(n):
        estimate.add((index % 2) * 1.0)
    result.estimates["P(|0>)"] = estimate
    result.outcome_counts = {"0": n}
    return result


class TestMemoryStore:
    def test_get_miss_returns_none(self):
        store = ResultStore(directory=None)
        assert store.get("a" * 64) is None
        assert store.misses == 1

    def test_put_get_round_trip(self):
        store = ResultStore(directory=None)
        store.put("k1", make_result())
        fetched = store.get("k1")
        assert fetched.completed_trajectories == 10
        assert fetched.mean("P(|0>)") == pytest.approx(0.5)

    def test_reads_are_independent_copies(self):
        store = ResultStore(directory=None)
        store.put("k1", make_result())
        first = store.get("k1")
        first.completed_trajectories = 999
        first.estimates["P(|0>)"].count = 999
        second = store.get("k1")
        assert second.completed_trajectories == 10
        assert second.estimates["P(|0>)"].count == 10

    def test_lru_eviction(self):
        store = ResultStore(directory=None, capacity=2)
        store.put("k1", make_result())
        store.put("k2", make_result())
        assert store.get("k1") is not None  # k1 now most-recent
        store.put("k3", make_result())  # evicts k2
        assert store.get("k2") is None
        assert store.get("k1") is not None
        assert store.get("k3") is not None

    def test_partials_are_noop_without_disk(self, monkeypatch):
        store = ResultStore(directory=None)
        result = make_result(5)
        # Nothing reads a memory-only checkpoint, so no payload is built.
        monkeypatch.setattr(result, "to_dict", lambda: pytest.fail("payload built"))
        store.put_partial("k1", [(0, 5)], result)
        assert store.get_partial("k1") is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultStore(capacity=0)


class TestDiskStore:
    def test_results_persist_across_instances(self, tmp_path):
        ResultStore(directory=str(tmp_path)).put("k1", make_result())
        fresh = ResultStore(directory=str(tmp_path))
        assert fresh.get("k1").completed_trajectories == 10

    def test_spec_dict_stored_alongside_result(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        store.put("k1", make_result(), spec_dict={"circuit_name": "ghz_3"})
        assert store.get_spec_dict("k1")["circuit_name"] == "ghz_3"

    def test_partial_checkpoint_lifecycle(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        store.put_partial("k1", [(0, 5), (10, 5)], make_result(10))
        spans, partial = store.get_partial("k1")
        assert spans == [(0, 5), (10, 5)]
        assert partial.completed_trajectories == 10
        # Storing the final result supersedes (and removes) the checkpoint.
        store.put("k1", make_result(20))
        assert store.get_partial("k1") is None

    def test_eviction_falls_back_to_disk(self, tmp_path):
        store = ResultStore(directory=str(tmp_path), capacity=1)
        store.put("k1", make_result())
        store.put("k2", make_result())  # evicts k1 from memory
        assert store.get("k1") is not None  # re-read from disk

    def test_torn_write_is_a_miss_not_an_error(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        path = os.path.join(str(tmp_path), "results", "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"result": {"circ')
        assert store.get("bad") is None

    def test_resolve_key_prefix(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        store.put("abcdef" + "0" * 58, make_result())
        store.put("abzzzz" + "0" * 58, make_result())
        assert store.resolve_key("abc") == "abcdef" + "0" * 58
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve_key("ab")
        with pytest.raises(KeyError, match="no job"):
            store.resolve_key("ffff")

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        store.put("k1", make_result())
        store.put_partial("k2", [(0, 5)], make_result(5))
        removed = store.clear()
        assert removed >= 2
        assert store.get("k1") is None
        assert store.get_partial("k2") is None

    def test_stats(self, tmp_path):
        store = ResultStore(directory=str(tmp_path))
        store.put("k1", make_result())
        store.put_partial("k2", [(0, 5)], make_result(5))
        stats = store.stats()
        assert stats["results"] == 1
        assert stats["partials"] == 1
        assert stats["queued"] == 0
        assert stats["disk_bytes"] > 0
