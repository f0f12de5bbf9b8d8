"""Fixtures shared by the CLI integration tests."""

import pytest

from repro import harness

#: One small row per paper table, in place of the table's default sweep.
TINY_SWEEPS = {
    "1a": {"qubit_range": (4,)},
    "1b": {"qubit_range": (4,)},
    "1c": {"names": ("seca",)},
}


@pytest.fixture
def tiny_table_sweeps(monkeypatch):
    """Cut each ``repro.harness.run_table1*`` sweep to one small row, and
    record the arguments each call received, by table."""
    calls = {which: [] for which in TINY_SWEEPS}
    for which, sweep in TINY_SWEEPS.items():

        def tiny(run=getattr(harness, f"run_table{which}"), which=which,
                 sweep=sweep, **kwargs):
            calls[which].append(kwargs)
            return run(**kwargs, **sweep)

        monkeypatch.setattr(harness, f"run_table{which}", tiny)
    return calls
