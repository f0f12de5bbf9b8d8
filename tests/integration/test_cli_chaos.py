"""Integration tests for ``repro chaos`` — the fault-injection smoke suite.

Kept deliberately small (few trajectories, no ``hang`` kind, short
timeouts) so the suite stays fast; the heavyweight configuration runs in
the CI ``chaos-smoke`` job instead.
"""

import json

from repro.cli import main

FAST = [
    "-M", "24", "--chunk-size", "8", "--chunk-timeout", "2.0",
    "--faults", "crash,corrupt-store",
]


class TestChaosCommand:
    def test_chaos_passes_and_reports_recovery(self, capsys):
        exit_code = main(["chaos", "--seed", "7"] + FAST)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos seed=7" in output
        assert "RESULT: PASS" in output
        assert "faults.injected." in output
        assert "faults.recovered." in output

    def test_chaos_json_payload(self, capsys):
        exit_code = main(["chaos", "--seed", "7", "--json"] + FAST)
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.chaos/v1"
        assert payload["ok"] is True
        assert payload["seed"] == 7
        assert sorted(payload["kinds"]) == ["bit-flip", "crash-before"]
        assert all(check["ok"] for check in payload["checks"])
        assert sum(payload["injected"].values()) >= 1
        assert sum(payload["recovered"].values()) >= 1
        # Both chaos passes reproduced the same bit-identical estimates.
        assert payload["pass_estimates"][0] == payload["pass_estimates"][1]
        assert payload["pass_estimates"][0] == payload["reference_estimates"]

    def test_same_seed_is_deterministic(self, capsys):
        main(["chaos", "--seed", "11", "--json"] + FAST)
        first = json.loads(capsys.readouterr().out)
        main(["chaos", "--seed", "11", "--json"] + FAST)
        second = json.loads(capsys.readouterr().out)
        assert first["plan"] == second["plan"]
        assert first["pass_estimates"] == second["pass_estimates"]

    def test_different_seed_changes_the_plan(self, capsys):
        main(["chaos", "--seed", "1", "--json"] + FAST)
        first = json.loads(capsys.readouterr().out)
        main(["chaos", "--seed", "2", "--json"] + FAST)
        second = json.loads(capsys.readouterr().out)
        assert first["plan"] != second["plan"]
        # Each run is internally consistent: both of its passes agree with
        # its own fault-free reference despite the differing schedules.
        for payload in (first, second):
            assert payload["pass_estimates"][0] == payload["reference_estimates"]

    def test_fault_aliases_accepted(self, capsys):
        exit_code = main(
            ["chaos", "--seed", "3", "-M", "16", "--chunk-size", "8",
             "--faults", "drop,torn", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["kinds"]) == ["queue-drop", "torn-write"]

    def test_enospc_fails_each_final_write_and_heals(self, capsys):
        """A completing job's one store write is its final result: ENOSPC
        strikes it in both passes, and both still return every trajectory."""
        exit_code = main(
            ["chaos", "--seed", "7", "-M", "24", "--chunk-size", "8",
             "--faults", "enospc", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["injected"] == {"faults.injected.enospc": 2}
        assert payload["recovered"]["faults.recovered.write_skipped"] == 2

    def test_enospc_waits_for_pass_two_behind_corruption(self, capsys):
        """Pass 1's final write is corrupted, so pass 2 must quarantine it;
        ENOSPC, which would fail that write before the corruption lands,
        strikes pass 2's instead."""
        exit_code = main(
            ["chaos", "--seed", "7", "-M", "24", "--chunk-size", "8",
             "--faults", "corrupt-store,enospc", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["injected"] == {
            "faults.injected.bit-flip": 1, "faults.injected.enospc": 1,
        }
        assert payload["recovered"]["faults.recovered.store_quarantine"] == 1
        assert payload["recovered"]["faults.recovered.write_skipped"] == 1
