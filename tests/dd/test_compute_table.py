"""Unit tests for the memoisation compute table."""

from repro.dd.compute_table import ComputeTable, WalkMemo


class TestComputeTable:
    def test_miss_then_hit(self):
        table = ComputeTable("test")
        assert table.lookup(("a", "b")) is None
        table.insert(("a", "b"), 42)
        assert table.lookup(("a", "b")) == 42
        assert table.hits == 1
        assert table.misses == 1

    def test_insert_returns_value(self):
        table = ComputeTable("test")
        assert table.insert("k", "v") == "v"

    def test_clear(self):
        table = ComputeTable("test")
        table.insert("k", 1)
        table.clear()
        assert table.lookup("k") is None
        assert len(table) == 0

    def test_eviction_at_capacity(self):
        table = ComputeTable("test", max_entries=4)
        for index in range(4):
            table.insert(index, index)
        assert len(table) == 4
        table.insert(99, 99)  # triggers wholesale eviction first
        assert table.evictions == 1
        assert len(table) == 1
        assert table.lookup(99) == 99
        assert table.lookup(0) is None

    def test_hit_ratio(self):
        table = ComputeTable("test")
        assert table.hit_ratio() == 0.0
        table.insert("k", 1)
        table.lookup("k")
        table.lookup("missing")
        assert table.hit_ratio() == 0.5

    def test_stats_shape(self):
        table = ComputeTable("test")
        stats = table.stats()
        assert set(stats) == {"entries", "hits", "misses", "evictions", "hit_ratio"}

    def test_overwrite_same_key(self):
        table = ComputeTable("test")
        table.insert("k", 1)
        table.insert("k", 2)
        assert table.lookup("k") == 2


class TestWalkMemo:
    @staticmethod
    def walk_storing(table, values):
        """A walk that fills ``table`` with ``values`` and answers 1.0."""

        def walk(root):
            table.update(values)
            return 1.0

        return walk

    def test_one_dict_per_parameter(self):
        memo = WalkMemo()
        memo.table(0)[1] = 0.5
        assert memo.table(0) == {1: 0.5}
        assert memo.table(1) == {}

    def test_walks_only_on_a_root_miss(self):
        memo = WalkMemo()
        root = object()
        table = memo.table(0)
        walk = self.walk_storing(table, {id(root): 0.25, 7: 0.5})
        assert memo.answer(table, root, walk) == 1.0
        assert memo.answer(table, root, walk) == 0.25
        assert (memo.hits, memo.misses, len(memo), memo.evictions) == (1, 1, 2, 0)

    def test_eviction_past_the_bound_drops_every_dict(self):
        memo = WalkMemo(max_entries=2)
        first, second = memo.table(0), memo.table(1)
        memo.answer(first, object(), self.walk_storing(first, {1: 0.1, 2: 0.2}))
        memo.answer(second, object(), self.walk_storing(second, {3: 0.3}))
        assert memo.evictions == 1
        assert len(memo) == 0
        assert memo.table(0) == {} and memo.table(1) == {}

    def test_disabled_memo_hands_out_throwaway_dicts(self):
        memo = WalkMemo(max_entries=0)
        table = memo.table(0)
        memo.answer(table, object(), self.walk_storing(table, {1: 0.1}))
        assert memo.table(0) == {}
        assert (memo.misses, len(memo), memo.evictions) == (1, 0, 0)

    def test_clear(self):
        memo = WalkMemo()
        table = memo.table(0)
        memo.answer(table, object(), self.walk_storing(table, {1: 0.1}))
        memo.clear()
        assert len(memo) == 0
        assert memo.table(0) == {}
