"""Exact density-matrix simulation on decision diagrams (``repro.exact``).

The counterpart to :mod:`repro.stochastic`: instead of Monte-Carlo
trajectory sampling with Hoeffding error bars, this package evolves the
density matrix itself as a matrix DD (Grurl et al., arXiv 2012.05629) and
reads every property off the diagram exactly — zero sampling error, one
pass.  The scheduler's hybrid dispatcher (see ``docs/EXACT.md``) uses the
:mod:`~repro.exact.cost` model to route each job to whichever side of the
exponential trade-off is cheaper, and falls back to stochastic sampling if
the rho DD outgrows its node ceiling mid-flight.
"""

from .backend import DensityDDBackend
from .cost import (
    DispatchDecision,
    MeasuredCostModel,
    SizeEvidence,
    estimate_costs,
    exact_unsupported_reason,
    resolve_method,
    static_clean_probability,
    stochastic_budget,
)
from .simulator import ExactSimulator, default_node_ceiling, simulate_exact

__all__ = [
    "DensityDDBackend",
    "DispatchDecision",
    "ExactSimulator",
    "MeasuredCostModel",
    "SizeEvidence",
    "default_node_ceiling",
    "estimate_costs",
    "exact_unsupported_reason",
    "resolve_method",
    "simulate_exact",
    "static_clean_probability",
    "stochastic_budget",
]
