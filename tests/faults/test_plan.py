"""Tests for FaultPlan / FaultSpec: determinism, serialisation, matching."""

import json
import os

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.plan import KIND_ALIASES, canonical_kind


class TestCanonicalKind:
    def test_every_kind_is_its_own_canonical_form(self):
        for kind in FAULT_KINDS:
            assert canonical_kind(kind) == kind

    def test_aliases_resolve(self):
        assert canonical_kind("crash") == "crash-before"
        assert canonical_kind("corrupt-store") == "bit-flip"
        assert canonical_kind("torn") == "torn-write"

    def test_every_alias_targets_a_real_kind(self):
        for target in KIND_ALIASES.values():
            assert target in FAULT_KINDS

    def test_unknown_kind_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            canonical_kind("meteor-strike")


class TestFaultSpec:
    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="nope")

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="hang", times=0)

    def test_kind_must_match(self):
        spec = FaultSpec(kind="crash-before")
        assert spec.matches("crash-before")
        assert not spec.matches("hang")

    def test_unset_keys_match_anything(self):
        spec = FaultSpec(kind="crash-before")
        assert spec.matches("crash-before", worker_id=3, chunk_index=9)

    def test_set_keys_match_exactly(self):
        spec = FaultSpec(kind="crash-before", chunk_index=2)
        assert spec.matches("crash-before", chunk_index=2)
        assert not spec.matches("crash-before", chunk_index=3)

    def test_set_key_does_not_match_a_site_without_the_attribute(self):
        spec = FaultSpec(kind="drift", trajectory=5)
        assert not spec.matches("drift")
        assert spec.matches("drift", trajectory=5)

    def test_job_key_is_a_prefix_match(self):
        spec = FaultSpec(kind="bit-flip", job_key="abc")
        assert spec.matches("bit-flip", job_key="abcdef0123")
        assert not spec.matches("bit-flip", job_key="xyz")
        assert not spec.matches("bit-flip")

    def test_roundtrip(self):
        spec = FaultSpec(
            kind="queue-delay", chunk_index=4, times=2, seconds=0.25,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlanSerialisation:
    def test_roundtrip(self):
        plan = FaultPlan.generate(
            seed=3, kinds=("crash", "hang", "drift"), num_chunks=5,
            trajectories=100, state_dir="/tmp/x",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_is_canonical(self):
        plan = FaultPlan.generate(seed=3, kinds=("crash",), num_chunks=5)
        # sorted keys, compact separators: byte-stable across runs
        assert plan.to_json() == json.dumps(
            plan.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"version": 99, "faults": []})


class TestFaultPlanGenerate:
    def test_same_seed_same_schedule(self):
        args = dict(kinds=("crash", "hang", "bit-flip", "drift"),
                    num_chunks=7, trajectories=50)
        assert (
            FaultPlan.generate(seed=11, **args).to_json()
            == FaultPlan.generate(seed=11, **args).to_json()
        )

    def test_different_seed_different_schedule(self):
        kinds = ("crash", "hang")
        plans = {
            FaultPlan.generate(seed=s, kinds=kinds, num_chunks=100).to_json()
            for s in range(8)
        }
        assert len(plans) > 1

    def test_every_kind_is_generatable(self):
        plan = FaultPlan.generate(seed=0, kinds=FAULT_KINDS, num_chunks=3)
        assert sorted(plan.kinds()) == sorted(FAULT_KINDS)

    def test_chunk_targets_in_range(self):
        plan = FaultPlan.generate(seed=5, kinds=("crash", "hang"), num_chunks=4)
        for spec in plan.faults:
            assert 0 <= spec.chunk_index < 4

    def test_num_chunks_must_be_positive(self):
        with pytest.raises(ValueError, match="num_chunks"):
            FaultPlan.generate(seed=0, kinds=("crash",), num_chunks=0)


class TestMarkerCoordination:
    def test_no_state_dir_means_no_markers(self):
        plan = FaultPlan(faults=(FaultSpec(kind="hang"),))
        assert plan.marker_path(0, 0) is None

    def test_state_dir_markers_are_per_spec_and_firing(self, tmp_path):
        plan = FaultPlan(
            faults=(FaultSpec(kind="hang"), FaultSpec(kind="crash-before", times=2)),
            state_dir=str(tmp_path),
        )
        paths = {
            plan.marker_path(0, 0),
            plan.marker_path(1, 0),
            plan.marker_path(1, 1),
        }
        assert len(paths) == 3
        assert all(path.startswith(str(tmp_path)) for path in paths)

    def test_claimed_counts_reflect_marker_files(self, tmp_path):
        plan = FaultPlan(
            faults=(FaultSpec(kind="hang"), FaultSpec(kind="crash-before", times=2)),
            state_dir=str(tmp_path),
        )
        assert plan.claimed_counts() == {}
        for path in (plan.marker_path(1, 0), plan.marker_path(1, 1)):
            with open(path, "w"):
                pass
        assert plan.claimed_counts() == {"faults.injected.crash-before": 2}
