"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.circuits.library import ghz


class TestRunCommand:
    def test_run_library_circuit(self, capsys):
        exit_code = main(["run", "ghz:4", "-M", "20", "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "entanglement_4" in output
        assert "trajectories: 20/20" in output

    def test_run_with_properties(self, capsys):
        main(
            [
                "run", "ghz:3", "-M", "10",
                "--probability", "000",
                "--probability", "111",
                "--fidelity",
            ]
        )
        output = capsys.readouterr().out
        assert "P(|000>)" in output
        assert "P(|111>)" in output
        assert "F(ideal)" in output

    def test_run_qasmbench_name(self, capsys):
        main(["run", "seca", "-M", "5"])
        output = capsys.readouterr().out
        assert "seca_11" in output

    def test_run_noiseless(self, capsys):
        main(["run", "ghz:3", "-M", "10", "--noiseless", "--probability", "000"])
        output = capsys.readouterr().out
        assert "0.500000" in output

    def test_run_qasm_file(self, capsys, tmp_path):
        path = tmp_path / "circ.qasm"
        path.write_text(ghz(3).to_qasm(), encoding="utf-8")
        main(["run", str(path), "-M", "5"])
        output = capsys.readouterr().out
        assert "circ" in output

    def test_unknown_circuit_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "does_not_exist", "-M", "1"])

    def test_statevector_backend(self, capsys):
        main(["run", "ghz:3", "-M", "5", "-b", "statevector"])
        output = capsys.readouterr().out
        assert "statevector backend" in output

    def test_pauli_and_outcome_properties(self, capsys):
        main(
            ["run", "seca", "-M", "10", "--noiseless",
             "--pauli", "ZIIIIIIIIII", "--outcome", "0"]
        )
        output = capsys.readouterr().out
        assert "<ZIIIIIIIIII>" in output
        assert "P(c=0)" in output


class TestRunMethod:
    """``repro run --method`` resolves by the scheduler's dispatch rule."""

    def test_auto_prints_its_decision_and_runs_the_chosen_method(self, capsys):
        assert main(["run", "ghz:3", "-M", "10", "--method", "auto",
                     "--fidelity"]) == 0
        output = capsys.readouterr().out
        decision, _ = output.split("\n", 1)
        assert decision.startswith("dispatch: stochastic (exact cost ")
        assert "trajectories: 10/10" in output

    def test_auto_on_a_spec_exact_cannot_express_samples(self, capsys):
        assert main(["run", "ghz:3", "-M", "10", "--method", "auto",
                     "--outcome", "0"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("auto dispatch -> stochastic (property ")
        assert "trajectories: 10/10" in output

    def test_forced_exact_on_a_spec_exact_cannot_express_exits(self):
        with pytest.raises(SystemExit, match="--method exact unsupported: property"):
            main(["run", "ghz:3", "-M", "10", "--method", "exact", "--outcome", "0"])


class TestOtherCommands:
    def test_circuits_listing(self, capsys):
        assert main(["circuits"]) == 0
        output = capsys.readouterr().out
        assert "bv: 19" in output
        assert "ghz:<n>" in output

    def test_dot_to_stdout(self, capsys):
        assert main(["dot", "ghz:2"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")

    def test_dot_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        main(["dot", "ghz:2", "-o", str(target)])
        assert target.read_text(encoding="utf-8").startswith("digraph")

    def test_table_command_small(self, capsys, tiny_table_sweeps):
        assert main(["table", "1a", "-M", "2", "--timeout", "5"]) == 0
        output = capsys.readouterr().out
        assert "Table Ia" in output


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "ghz:4"])
        assert args.trajectories == 1000
        assert args.backend == "dd"
        assert args.depolarizing == 0.001
        assert args.damping == 0.002
        assert args.phase_flip == 0.001
