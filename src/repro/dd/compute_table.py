"""Memoisation ("compute") tables for decision-diagram operations.

Recursive DD operations (addition, multiplication, Kronecker products, inner
products) revisit the same operand pairs many times; without memoisation the
recursions degenerate to exponential time even on compact diagrams.  A
compute table caches ``operation(operands) -> result`` keyed by operand
*identities* (valid because nodes and weights are hash-consed).

Entries may reference nodes that a later garbage collection removes, so the
package clears all compute tables after every collection — the same
invalidation policy as the JKU package.

The table is bounded: beyond ``max_entries`` it evicts wholesale (cheap and
effective for the access patterns of DD arithmetic, where stale entries are
rarely revisited).

:class:`WalkMemo` is the variant for state *queries* that walk a whole DD
(the P(1) mass below each node): the walk reads and fills a plain
``{id(node): value}`` dict itself, so a cold walk pays no more per visit
than an unmemoised one.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Hashable, Optional, TypeVar

__all__ = ["ComputeTable", "WalkMemo"]

V = TypeVar("V")


class ComputeTable(Generic[V]):
    """A bounded memoisation cache with hit/miss statistics.

    ``max_entries = 0`` disables the table entirely (every lookup misses,
    inserts are dropped) — used by the cache-ablation benchmark to measure
    what memoisation buys.
    """

    def __init__(self, name: str, max_entries: int = 1 << 18) -> None:
        self.name = name
        self.max_entries = max_entries
        self._table: Dict[Hashable, V] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable) -> Optional[V]:
        """Return the cached result for ``key`` or ``None``."""
        result = self._table.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def insert(self, key: Hashable, value: V) -> V:
        """Cache ``value`` under ``key`` and return it."""
        if self.max_entries == 0:
            return value
        if len(self._table) >= self.max_entries:
            self._table.clear()
            self.evictions += 1
        self._table[key] = value
        return value

    def clear(self) -> None:
        """Drop all entries (required after unique-table garbage collection)."""
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    def hit_ratio(self) -> float:
        """Fraction of lookups answered from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Occupancy and hit statistics."""
        return {
            "entries": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio(),
        }


class WalkMemo(Generic[V]):
    """Per-parameter ``{id(node): value}`` dicts filled by recursive walks.

    A walk parameterised by, say, the measured qubit takes that qubit's
    dict from :meth:`table` and reads and fills it directly (no key tuple
    or method call per visited node); :meth:`answer` runs it only when
    the root is not in the dict yet.  ``hits``/``misses`` count queries,
    not visits.  The bound is :class:`ComputeTable`'s: past
    ``max_entries`` in total every dict is dropped, and
    ``max_entries = 0`` hands each walk a throwaway dict, so a walk still
    shares sub-results within itself.
    """

    def __init__(self, max_entries: int = 1 << 18) -> None:
        self.max_entries = max_entries
        self._tables: Dict[Hashable, Dict[int, V]] = {}
        self._entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def table(self, parameter: Hashable) -> Dict[int, V]:
        """The dict a walk for ``parameter`` reads and fills."""
        if self.max_entries == 0:
            return {}
        table = self._tables.get(parameter)
        if table is None:
            table = self._tables[parameter] = {}
        return table

    def answer(self, table: Dict[int, V], root: object, walk: Callable[[object], V]) -> V:
        """``table``'s value for ``root``, else ``walk(root)``, which fills ``table``."""
        value = table.get(id(root))
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        entries = len(table)
        try:
            return walk(root)
        finally:
            if self.max_entries:
                self._entries += len(table) - entries
                if self._entries > self.max_entries:
                    self.clear()
                    self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (required after unique-table garbage collection)."""
        self._tables.clear()
        self._entries = 0

    def __len__(self) -> int:
        return self._entries
