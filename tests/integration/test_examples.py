"""Integration: the fast example scripts run end-to-end.

Each example is executed in-process (runpy) with scaled-down arguments
where the script accepts them.  The slow studies (device_noise_study,
concurrency, noisy_algorithms, stochastic_vs_exact) are not run here: the
mechanisms they show are tested in their own packages (worker-count
invariance in tests/stochastic/test_merge_reproducibility.py, the exact
oracle in tests/integration/test_convergence.py, the device models in
tests/noise).
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name, argv):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    old_argv = sys.argv
    sys.argv = [path] + argv
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py", ["5", "60"])
        output = capsys.readouterr().out
        assert "entanglement_5" in output
        assert "F(ideal)" in output
        assert "paper's budget" in output

    def test_figure1_decision_diagrams(self, capsys):
        run_example("figure1_decision_diagrams.py", [])
        output = capsys.readouterr().out
        assert "Fig. 1a" in output
        assert "amplitude(|11>) = 0.707107" in output
        assert "entry (2,2) = -1" in output
        assert "(0.150, |01>)" in output

    def test_qasm_workflow(self, capsys):
        run_example("qasm_workflow.py", [])
        output = capsys.readouterr().out
        assert "noiseless result: 18 (expected 18)" in output
        assert "P(correct sum)" in output
