"""repro.faults — deterministic, seed-driven fault injection.

Recovery code that is never exercised is recovery code that does not
work.  This package turns the service layer's fault-tolerance paths —
worker respawn, chunk requeue, checkpoint resume, store quarantine,
numerical renormalisation — into continuously testable behaviour:

* :mod:`~repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  a JSON-serialisable, seed-derived schedule of faults;
* :mod:`~repro.faults.inject` — :class:`FaultInjector`, the per-process
  gate every injection point consults (activated via the
  ``REPRO_FAULT_PLAN`` environment variable);
* :mod:`~repro.faults.chaos` — the seeded end-to-end chaos suite behind
  ``repro chaos``.

See docs/ROBUSTNESS.md for the fault taxonomy and the recovery paths
each kind exercises.
"""

from .inject import (
    FaultInjector,
    PLAN_ENV,
    get_injector,
    reset_injector_cache,
)
from .plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "PLAN_ENV",
    "get_injector",
    "reset_injector_cache",
]

# run_chaos / run_kill_serve live in repro.faults.chaos and are imported
# lazily by the CLI — chaos pulls in the whole service stack, which this
# package's importers (workers included) must not pay for.
