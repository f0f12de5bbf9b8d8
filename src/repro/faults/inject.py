"""Process-local fault injector: checks injection sites against a plan.

Activation
----------
The plan travels in the ``REPRO_FAULT_PLAN`` environment variable —
either inline JSON or ``@/path/to/plan.json`` — because worker processes
(forked or spawned by the scheduler) must see the same schedule as the
parent without any extra plumbing.  :func:`get_injector` resolves the
active injector for the calling process, caching one injector per
distinct plan so firing budgets persist across call sites.

Injection sites call :meth:`FaultInjector.fire`, which returns the
matched :class:`FaultSpec` (after atomically claiming a firing) or
``None``.  Every firing increments a ``faults.injected.<kind>`` counter
in the injector's metrics registry.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from .plan import FaultPlan

__all__ = [
    "PLAN_ENV",
    "FaultInjector",
    "get_injector",
    "reset_injector_cache",
]

#: Environment variable carrying the active plan (inline JSON or ``@path``).
PLAN_ENV = "REPRO_FAULT_PLAN"


class FaultInjector:
    """Checks injection sites against a :class:`FaultPlan` and claims firings."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._remaining: List[int] = [spec.times for spec in plan.faults]
        #: ``faults.injected.*`` counters for firings claimed by THIS process.
        self.metrics = MetricsRegistry()
        for spec in plan.faults:
            self.metrics.counter(f"faults.injected.{spec.kind}")

    def fire(self, kind: str, **attrs: object):
        """Claim and return the first matching armed fault spec, else ``None``.

        ``attrs`` are the site's identifying attributes (``job_key``,
        ``worker_id``, ``chunk_index``, ``trajectory``, ``operation``).
        Claiming is atomic across processes when the plan coordinates
        through marker files.
        """
        for index, spec in enumerate(self.plan.faults):
            if not spec.matches(kind, **attrs):
                continue
            if self._claim(index):
                self.metrics.counter(f"faults.injected.{kind}").inc()
                return spec
        return None

    def _claim(self, index: int) -> bool:
        spec = self.plan.faults[index]
        first_marker = self.plan.marker_path(index, 0)
        if first_marker is None:
            # In-process budget only.
            if self._remaining[index] <= 0:
                return False
            self._remaining[index] -= 1
            return True
        for firing in range(spec.times):
            path = self.plan.marker_path(index, firing)
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # state dir vanished — fail safe, inject nothing
            os.close(handle)
            return True
        return False

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """This process's ``faults.injected.*`` counters."""
        return self.metrics.snapshot()


#: Cache: one injector per distinct plan-env value, so firing budgets
#: survive across call sites within a process while env changes (tests
#: monkeypatching the variable) still take effect.
_CACHE: Dict[str, Optional[FaultInjector]] = {}


def _resolve_plan(raw: str) -> Optional[FaultPlan]:
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
    try:
        return FaultPlan.from_json(text)
    except (ValueError, KeyError, TypeError):
        return None  # an unparsable plan injects nothing


def get_injector() -> Optional[FaultInjector]:
    """The calling process's active injector, or ``None`` (no plan set)."""
    raw = os.environ.get(PLAN_ENV)
    if not raw:
        return None
    if raw not in _CACHE:
        plan = _resolve_plan(raw)
        _CACHE[raw] = FaultInjector(plan) if plan is not None else None
    return _CACHE[raw]


def reset_injector_cache() -> None:
    """Forget cached injectors (test isolation; fresh firing budgets)."""
    _CACHE.clear()
