"""Tests for FaultInjector: budgets, marker claiming, env activation."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PLAN_ENV,
    get_injector,
    reset_injector_cache,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    reset_injector_cache()
    yield
    reset_injector_cache()


class TestFiringBudgets:
    def test_in_process_budget_is_consumed(self):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind="hang"),)))
        assert injector.fire("hang") is not None
        assert injector.fire("hang") is None

    def test_times_allows_multiple_firings(self):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind="hang", times=3),)))
        assert sum(injector.fire("hang") is not None for _ in range(5)) == 3

    def test_non_matching_site_leaves_budget_intact(self):
        spec = FaultSpec(kind="hang", chunk_index=7)
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        assert injector.fire("hang", chunk_index=1) is None
        assert injector.fire("hang", chunk_index=7) is spec

    def test_firing_increments_injected_counter(self):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind="hang"),)))
        injector.fire("hang")
        assert injector.snapshot()["counters"]["faults.injected.hang"] == 1

    def test_counters_are_preregistered_at_zero(self):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind="hang"),)))
        assert injector.snapshot()["counters"]["faults.injected.hang"] == 0


class TestMarkerClaiming:
    def test_markers_coordinate_budgets_across_injectors(self, tmp_path):
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash-before"),), state_dir=str(tmp_path)
        )
        first = FaultInjector(plan)
        second = FaultInjector(plan)  # a "different process"
        assert first.fire("crash-before") is not None
        assert second.fire("crash-before") is None

    def test_each_marker_firing_claimed_once(self, tmp_path):
        plan = FaultPlan(
            faults=(FaultSpec(kind="hang", times=2),), state_dir=str(tmp_path)
        )
        injectors = [FaultInjector(plan) for _ in range(4)]
        fired = sum(i.fire("hang") is not None for i in injectors)
        assert fired == 2

    def test_vanished_state_dir_injects_nothing(self, tmp_path):
        gone = tmp_path / "gone"
        plan = FaultPlan(
            faults=(FaultSpec(kind="hang"),), state_dir=str(gone)
        )
        assert FaultInjector(plan).fire("hang") is None


class TestEnvActivation:
    def test_no_env_no_injector(self):
        assert get_injector() is None

    def test_inline_json_plan(self, monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(kind="hang"),))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        injector = get_injector()
        assert injector is not None
        assert injector.plan == plan

    def test_injector_is_cached_per_plan_string(self, monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(kind="hang"),))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        assert get_injector() is get_injector()

    def test_file_indirection(self, monkeypatch, tmp_path):
        plan = FaultPlan(faults=(FaultSpec(kind="hang"),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(PLAN_ENV, f"@{path}")
        injector = get_injector()
        assert injector is not None and injector.plan == plan

    def test_missing_plan_file_injects_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PLAN_ENV, f"@{tmp_path}/absent.json")
        assert get_injector() is None

    def test_unparsable_plan_injects_nothing(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "{not json")
        assert get_injector() is None
