"""Deterministic, JSON-serialisable fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries — each one
names a fault *kind* (what goes wrong), *match keys* (where it strikes:
job key prefix, worker id, chunk index, trajectory index, store
operation), and a firing budget.  Components thread the plan through
:class:`~repro.faults.inject.FaultInjector`, which checks every
injection point against the schedule.

Determinism is the whole point: :meth:`FaultPlan.generate` derives a
schedule from a seed, so ``repro chaos --seed S`` builds the identical
schedule every time, and a failure found under chaos is replayable from
nothing but the seed and the fault list.

Cross-process coordination
--------------------------
Worker processes each parse their own copy of the plan, so an in-process
firing budget would reset on every respawn — a "crash once" fault would
crash every worker that ever picks the chunk up.  A plan with a
``state_dir`` coordinates firings through marker files claimed with
``O_CREAT | O_EXCL``: the first process to reach the site wins the
marker, every other process (including the respawned worker that retries
the chunk) sees the budget as spent.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: Every fault kind the injector understands, by injection layer.
FAULT_KINDS: Tuple[str, ...] = (
    # worker.py — struck while a worker holds a chunk
    "crash-before",     # os._exit before the chunk executes
    "crash-mid-chunk",  # execute part of the chunk, then os._exit
    "hang",             # sleep past the scheduler's chunk timeout
    "slow-chunk",       # sleep briefly before executing (latency, not death)
    "corrupt-outcome",  # tamper with the reported ChunkOutcome
    # scheduler.py — struck at queue-delivery time
    "queue-drop",       # the chunk's task is never delivered to the worker
    "queue-delay",      # dispatch of the chunk is held back by `seconds`
    # store.py — struck while writing an entry
    "torn-write",       # the entry is truncated after the atomic replace
    "bit-flip",         # one byte of the stored entry is flipped
    "enospc",           # the write raises OSError(ENOSPC)
    # stochastic/runner.py — struck inside a trajectory
    "drift",            # scale the DD state so its norm drifts off 1
    # journal.py / scheduler.py — durable-execution layer
    "scheduler-crash",  # os._exit the scheduler after a journaled chunk-done
    "torn-journal",     # truncate the journal mid-record after an append
    "enospc-journal",   # the journal append raises OSError(ENOSPC)
    # obs/ledger.py — run-ledger telemetry history
    "torn-ledger",      # truncate the ledger mid-record after an append
    "enospc-ledger",    # the ledger append raises OSError(ENOSPC)
)

#: The record type a generated ``torn-<log>`` / ``enospc-<log>`` fault
#: strikes: each durable log's commit record.
LOG_FAULT_OPERATIONS: Dict[str, str] = {"journal": "chunk-done", "ledger": "run"}

#: Aliases accepted by the chaos CLI (friendly name -> canonical kind).
KIND_ALIASES: Dict[str, str] = {
    "crash": "crash-before",
    "crash-mid": "crash-mid-chunk",
    "corrupt-store": "bit-flip",
    "torn": "torn-write",
    "slow": "slow-chunk",
    "drop": "queue-drop",
    "delay": "queue-delay",
    "kill-scheduler": "scheduler-crash",
}


def canonical_kind(name: str) -> str:
    """Resolve a (possibly aliased) fault-kind name or raise ``ValueError``."""
    kind = KIND_ALIASES.get(name, name)
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {name!r}; choose from "
            f"{', '.join(FAULT_KINDS)} (aliases: {', '.join(sorted(KIND_ALIASES))})"
        )
    return kind


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: a kind, where it strikes, and how often."""

    kind: str
    #: Match keys — ``None`` matches anything.  ``job_key`` is a prefix
    #: match; the rest are exact.  A spec with a key set does NOT match a
    #: site that cannot provide that attribute.
    job_key: Optional[str] = None
    worker_id: Optional[int] = None
    chunk_index: Optional[int] = None
    trajectory: Optional[int] = None
    #: Store op ("put", "put_partial", "put_queued"), journal record type
    #: ("submit", "plan", "chunk-done", "job-done") or ledger record type.
    operation: Optional[str] = None
    #: Firing budget (per process, unless coordinated via markers).
    times: int = 1
    #: Delay magnitude for hang / slow-chunk / queue-delay.
    seconds: float = 0.0
    #: Amplitude scale factor for drift injection.
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.times < 1:
            raise ValueError("times must be >= 1")

    _MATCH_KEYS = ("worker_id", "chunk_index", "trajectory", "operation")

    def matches(self, site_kind: str, **attrs: object) -> bool:
        """Does this spec apply at an injection site with these attributes?"""
        if self.kind != site_kind:
            return False
        if self.job_key is not None:
            value = attrs.get("job_key")
            if not isinstance(value, str) or not value.startswith(self.job_key):
                return False
        for key in self._MATCH_KEYS:
            wanted = getattr(self, key)
            if wanted is not None and attrs.get(key) != wanted:
                return False
        return True

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind, "times": self.times}
        for key in ("job_key", "worker_id", "chunk_index", "trajectory",
                    "operation"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.seconds:
            data["seconds"] = self.seconds
        if self.factor != 1.0:
            data["factor"] = self.factor
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(
            kind=str(data["kind"]),
            job_key=None if data.get("job_key") is None else str(data["job_key"]),
            worker_id=None if data.get("worker_id") is None else int(data["worker_id"]),
            chunk_index=None if data.get("chunk_index") is None else int(data["chunk_index"]),
            trajectory=None if data.get("trajectory") is None else int(data["trajectory"]),
            operation=None if data.get("operation") is None else str(data["operation"]),
            times=int(data.get("times", 1)),
            seconds=float(data.get("seconds", 0.0)),
            factor=float(data.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults plus optional marker coordination."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    #: Directory for cross-process marker files (``None`` = in-process
    #: firing budgets only; see the module docstring).
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def kinds(self) -> List[str]:
        return sorted({spec.kind for spec in self.faults})

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "version": 1,
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }
        if self.state_dir is not None:
            data["state_dir"] = self.state_dir
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported fault plan version {version!r}")
        return cls(
            faults=tuple(FaultSpec.from_dict(entry) for entry in data.get("faults", [])),
            seed=int(data.get("seed", 0)),
            state_dir=None if data.get("state_dir") is None else str(data["state_dir"]),
        )

    def to_json(self) -> str:
        """Canonical (sorted-keys, compact) JSON form — deterministic."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- marker accounting -------------------------------------------------

    def marker_path(self, spec_index: int, firing: int) -> Optional[str]:
        """Coordination file for the ``firing``-th strike of fault ``spec_index``."""
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, f"fault-{spec_index}-{firing}")

    def claimed_counts(self) -> Dict[str, int]:
        """Observed cross-process firings per kind (``faults.injected.*``).

        Counts the marker files claimed so far, so the parent process can
        report faults that actually struck inside (possibly dead) workers.
        Empty for plans without marker coordination.
        """
        counts: Dict[str, int] = {}
        for index, spec in enumerate(self.faults):
            fired = 0
            for firing in range(spec.times):
                path = self.marker_path(index, firing)
                if path is not None and os.path.exists(path):
                    fired += 1
            if fired:
                counts[f"faults.injected.{spec.kind}"] = (
                    counts.get(f"faults.injected.{spec.kind}", 0) + fired
                )
        return counts

    # -- generation --------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        kinds: Sequence[str],
        num_chunks: int,
        trajectories: int = 1,
        state_dir: Optional[str] = None,
        job_key: Optional[str] = None,
    ) -> "FaultPlan":
        """Derive a deterministic schedule from a seed.

        One fault of each requested kind is placed on a pseudo-randomly
        chosen chunk (or trajectory, for ``drift``; or store operation,
        for the store kinds).  The RNG stream depends only on ``seed``
        and the *order* of ``kinds`` — identical inputs produce an
        identical plan, byte for byte.
        """
        if num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")
        rng = random.Random(seed)
        faults: List[FaultSpec] = []
        for name in kinds:
            kind = canonical_kind(name)
            if kind in ("crash-before", "crash-mid-chunk", "hang", "slow-chunk",
                        "corrupt-outcome", "queue-drop", "queue-delay",
                        "scheduler-crash"):
                chunk = rng.randrange(num_chunks)
                seconds = 0.0
                if kind == "hang":
                    seconds = 30.0
                elif kind == "slow-chunk":
                    seconds = 0.05
                elif kind == "queue-delay":
                    seconds = 0.1
                faults.append(FaultSpec(
                    kind=kind, job_key=job_key, chunk_index=chunk, seconds=seconds,
                ))
            elif kind in ("torn-write", "bit-flip", "enospc"):
                # The final result write: the one store write a job that
                # completes makes (checkpoints are written only by jobs
                # that end short).
                faults.append(FaultSpec(kind=kind, job_key=job_key, operation="put"))
            elif kind == "drift":
                trajectory = rng.randrange(max(1, trajectories))
                faults.append(FaultSpec(
                    kind=kind, job_key=job_key, trajectory=trajectory, factor=1.01,
                ))
            else:  # torn-<log> / enospc-<log>
                operation = LOG_FAULT_OPERATIONS[kind.partition("-")[2]]
                faults.append(FaultSpec(kind=kind, job_key=job_key, operation=operation))
        return cls(faults=tuple(faults), seed=seed, state_dir=state_dir)
