"""Unit tests for repro.core.counting (super-candidates, Section 5.2)."""

from itertools import product

import numpy as np
import pytest

from repro.core import Item, MinerConfig, TableMapper, make_itemset
from repro.core.counting import (
    CountingStats,
    PrefixSumCounter,
    RecordSelection,
    categorical_mask,
    choose_backend,
    count_frequent_pairs,
    count_groups,
    count_itemsets,
    group_candidates,
)
from repro.core.levels import ItemCatalog
from repro.engine import (
    SharedColumnStore,
    SharedShardView,
    TableShard,
    shard_view,
    shared_memory_available,
)
from repro.table import RelationalTable, TableSchema, categorical, quantitative


@pytest.fixture
def mapper():
    rng = np.random.default_rng(12)
    schema = TableSchema(
        [
            quantitative("x"),
            quantitative("y"),
            categorical("c", ("p", "q")),
        ]
    )
    n = 600
    x = rng.integers(0, 8, n).astype(float)
    y = np.clip(x + rng.integers(-2, 3, n), 0, 7).astype(float)
    c = (x + rng.integers(0, 4, n) > 5).astype(np.int64)
    table = RelationalTable.from_columns(schema, [x, y, c])
    return TableMapper(
        table,
        MinerConfig(min_support=0.05, num_partitions={"x": 8, "y": 8}),
    )


def brute_support(mapper, itemset, start=0, stop=None):
    """Record-scan support of ``itemset`` over records ``[start, stop)``."""
    stop = mapper.num_records if stop is None else stop
    mask = np.ones(stop - start, dtype=bool)
    for item in itemset:
        col = mapper.column(item.attribute)[start:stop]
        mask &= (col >= item.lo) & (col <= item.hi)
    return int(mask.sum())


#: Budgets that force each structure on the fixture: the default fits
#: every array, 0 fits none (R*-tree everywhere).
BUDGETS = {"array": MinerConfig().memory_budget_bytes, "rtree": 0}


def by_length(candidates) -> dict:
    """``{k: the k-itemsets}``, in order of first appearance."""
    out = {}
    for itemset in candidates:
        out.setdefault(len(itemset), []).append(itemset)
    return out


def grouped(candidates, quantitative, catalog=None) -> list:
    """``group_candidates`` over itemset tuples, one call per length."""
    catalog = catalog or ItemCatalog({it for c in candidates for it in c})
    return [
        group
        for k, members in by_length(candidates).items()
        for group in group_candidates(
            catalog, catalog.encode(members, k), quantitative
        )
    ]


def count_tuples(candidates, mapper, quantitative, *args, **kwargs) -> dict:
    """``count_itemsets`` over itemset tuples: ``{itemset: count}``,
    one call per length, each in the order it counted."""
    catalog = ItemCatalog({it for c in candidates for it in c})
    out = {}
    for k, members in by_length(candidates).items():
        level = count_itemsets(
            catalog,
            catalog.encode(members, k),
            mapper,
            quantitative,
            *args,
            **kwargs,
        )
        out.update(zip(catalog.decode(level.rows), level.counts.tolist()))
    return out


def level_items(catalog, level) -> list:
    """A level's ``(itemset, count)`` pairs, in row order."""
    return list(zip(catalog.decode(level.rows), level.counts.tolist()))


def sample_candidates(mapper):
    out = []
    for lo, hi in [(0, 2), (1, 4), (3, 7), (2, 2)]:
        out.append(make_itemset([Item(0, lo, hi), Item(1, 0, 3)]))
        out.append(make_itemset([Item(0, lo, hi), Item(2, 1, 1)]))
        out.append(
            make_itemset([Item(0, lo, hi), Item(1, 2, 6), Item(2, 0, 0)])
        )
    out.append(make_itemset([Item(2, 0, 0)]))
    return out


class TestGrouping:
    def test_groups_share_categorical_values_and_attrs(self, mapper):
        candidates = sample_candidates(mapper)
        catalog = ItemCatalog({it for c in candidates for it in c})
        groups = grouped(candidates, {0, 1}, catalog)
        for group in groups:
            for itemset in catalog.decode(group.candidates):
                cat = tuple(
                    it for it in itemset if it.attribute == 2
                )
                assert cat == group.categorical_items
        total = sum(len(g.candidates) for g in groups)
        assert total == len(candidates)

    def test_rectangles_align_with_quant_attrs(self, mapper):
        groups = grouped(
            [make_itemset([Item(0, 1, 4), Item(1, 0, 3)])], {0, 1}
        )
        lo, hi = groups[0].rectangles()
        np.testing.assert_array_equal(lo, [[1, 0]])
        np.testing.assert_array_equal(hi, [[4, 3]])


class TestPrefixSumCounter:
    def test_matches_brute_force_1d(self, mapper):
        counter = PrefixSumCounter(mapper, (0,))
        lo = np.array([[0], [2], [5]])
        hi = np.array([[7], [4], [5]])
        counts = counter.count_rects(lo, hi)
        for i in range(3):
            expected = brute_support(
                mapper, (Item(0, int(lo[i, 0]), int(hi[i, 0])),)
            )
            assert counts[i] == expected

    def test_matches_brute_force_2d_with_mask(self, mapper):
        mask = mapper.column(2) == 1
        counter = PrefixSumCounter(
            RecordSelection(mapper, (Item(2, 1, 1),)), (0, 1)
        )
        lo = np.array([[1, 0], [0, 0]])
        hi = np.array([[4, 3], [7, 7]])
        counts = counter.count_rects(lo, hi)
        expected0 = brute_support(
            mapper, (Item(0, 1, 4), Item(1, 0, 3), Item(2, 1, 1))
        )
        assert counts[0] == expected0
        assert counts[1] == int(mask.sum())

    def test_count_cross_matches_individual(self, mapper):
        counter = PrefixSumCounter(mapper, (0, 1))
        ranges_x = [(0, 3), (2, 5)]
        ranges_y = [(0, 7), (4, 6)]
        cross = counter.count_cross([ranges_x, ranges_y])
        assert cross.shape == (2, 2)
        for i, rx in enumerate(ranges_x):
            for j, ry in enumerate(ranges_y):
                expected = brute_support(
                    mapper, (Item(0, *rx), Item(1, *ry))
                )
                assert cross[i, j] == expected


class TestCountItemsets:
    @pytest.mark.parametrize("backend", ["array", "rtree"])
    def test_backends_match_brute_force(self, mapper, backend):
        candidates = sample_candidates(mapper)
        stats = CountingStats()
        counts = count_tuples(
            candidates, mapper, {0, 1}, BUDGETS[backend], stats=stats
        )
        assert set(stats.groups_by_backend) == {backend, "mask"}
        assert set(counts) == set(candidates)
        for itemset, count in counts.items():
            assert count == brute_support(mapper, itemset)

    def test_backends_agree_with_each_other(self, mapper):
        candidates = sample_candidates(mapper)
        array, rtree = (
            count_tuples(candidates, mapper, {0, 1}, BUDGETS[b])
            for b in ("array", "rtree")
        )
        assert rtree == array
        assert list(rtree) == list(array)

    def test_stats_record_backends(self, mapper):
        stats = CountingStats()
        count_tuples(sample_candidates(mapper), mapper, {0, 1}, stats=stats)
        assert stats.groups_by_backend.get("array", 0) > 0
        # The pure-categorical candidate is counted via the mask.
        assert stats.groups_by_backend.get("mask", 0) == 1


class TestChooseBackend:
    # Two 8-value attributes: a 64-cell array, 512 bytes at 8 a cell.
    def _group(self):
        (group,) = grouped(
            [make_itemset([Item(0, 0, 1), Item(1, 0, 1)])], {0, 1}
        )
        return group

    def test_auto_prefers_array_when_cheap(self, mapper):
        assert choose_backend(self._group(), mapper, 1 << 30) == "array"
        # The budget is inclusive: a table exactly at it still fits.
        assert choose_backend(self._group(), mapper, 512) == "array"

    def test_auto_falls_back_when_over_budget(self, mapper):
        assert choose_backend(self._group(), mapper, 511) == "rtree"
        assert choose_backend(self._group(), mapper, 0) == "rtree"

    def test_pure_categorical_group_needs_no_structure(self, mapper):
        (group,) = grouped([make_itemset([Item(2, 0, 0)])], {0, 1})
        assert choose_backend(group, mapper, 0) == "mask"
        assert choose_backend(group, mapper, 1 << 30) == "mask"


class TestCountFrequentPairs:
    def _frequent_items(self, mapper):
        from repro.core import find_frequent_items

        return find_frequent_items(mapper, 0.05, 0.5)

    def test_matches_explicit_enumeration(self, mapper):
        catalog = ItemCatalog(self._frequent_items(mapper).supports)
        buckets = catalog.by_attribute()
        min_count = 0.05 * mapper.num_records
        level, num_candidates = count_frequent_pairs(
            catalog, buckets, mapper, {0, 1}, min_count
        )
        fast = dict(level_items(catalog, level))
        # Reference: enumerate and count every cross-attribute pair.
        slow = {}
        attrs = sorted(buckets)
        expected_candidates = 0
        for i, a in enumerate(attrs):
            for b in attrs[i + 1:]:
                for ia in buckets[a]:
                    for ib in buckets[b]:
                        expected_candidates += 1
                        pair = make_itemset(
                            [catalog.items[ia], catalog.items[ib]]
                        )
                        count = brute_support(mapper, pair)
                        if count >= min_count:
                            slow[pair] = count
        assert num_candidates == expected_candidates
        assert fast == slow

    @pytest.mark.parametrize("backend", ["rtree"])
    def test_explicit_backends_agree(self, mapper, backend):
        """Budget 0 sends every pair through explicit groups on the
        R*-tree; frequent pairs, their order and the candidate tally
        match the cross-product tables'."""
        catalog = ItemCatalog(self._frequent_items(mapper).supports)
        buckets = catalog.by_attribute()
        min_count = 0.1 * mapper.num_records
        fast, fast_n = count_frequent_pairs(
            catalog, buckets, mapper, {0, 1}, min_count
        )
        stats = CountingStats()
        slow, slow_n = count_frequent_pairs(
            catalog, buckets, mapper, {0, 1}, min_count, BUDGETS[backend],
            stats,
        )
        assert level_items(catalog, fast) == level_items(catalog, slow)
        assert fast_n == slow_n
        assert "array" not in stats.groups_by_backend

    def test_pair_past_budget_counted_explicitly(self, mapper):
        """Each pair's table is charged on its own: with room for the
        8-cell arrays but not the 64-cell joint tables, the mixed pairs
        stay cross products while the (x, y) pair goes explicit."""
        from repro.core.counting import _ExplicitPlan, build_pair_plans

        catalog = ItemCatalog(self._frequent_items(mapper).supports)
        buckets = catalog.by_attribute()
        plans, __ = build_pair_plans(catalog, buckets, mapper, {0, 1}, 8 * 8)
        explicit = [isinstance(plan, _ExplicitPlan) for plan in plans]
        assert explicit == [True, False, False]
        stats = CountingStats()
        min_count = 0.05 * mapper.num_records
        mixed, __ = count_frequent_pairs(
            catalog, buckets, mapper, {0, 1}, min_count, 8 * 8, stats
        )
        roomy, __ = count_frequent_pairs(
            catalog, buckets, mapper, {0, 1}, min_count
        )
        assert level_items(catalog, mixed) == level_items(catalog, roomy)
        assert {"array", "rtree"} <= set(stats.groups_by_backend)

    def test_categorical_mask_none_for_empty(self, mapper):
        assert categorical_mask(mapper, ()) is None

    def test_categorical_mask_selects_records(self, mapper):
        mask = categorical_mask(mapper, (Item(2, 1, 1),))
        np.testing.assert_array_equal(mask, mapper.column(2) == 1)


class TestMemoryBudget:
    def test_wide_categorical_pair_counts_within_budget(self):
        """Two 6,000-value categorical columns, one value frequent in
        each: their joint histogram would be 36M cells (288 MB), past
        the default budget, so pass 2 counts the pair's one candidate
        explicitly instead of allocating it."""
        import tracemalloc

        from repro.core import QuantitativeMiner

        values = tuple(f"v{i}" for i in range(6000))
        n = 12_000
        rare = np.arange(n) % 5999 + 1
        frequent = np.arange(n) < n // 2
        a = np.where(frequent, 0, rare)
        b = np.where(frequent, 0, rare[::-1])
        schema = TableSchema([categorical("a", values), categorical("b", values)])
        table = RelationalTable.from_columns(schema, [a, b])

        tracemalloc.start()
        try:
            result = QuantitativeMiner(table, MinerConfig()).mine()
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak < 32 * 1024 * 1024, f"peak {peak / 2**20:.1f} MiB"
        assert len(result.support_counts) == 3
        for itemset, count in result.support_counts.items():
            assert count == brute_support(result.mapper, itemset)
        assert result.stats.counting_groups_by_backend == {"mask": 1}


class TestSharedConjunctions:
    """Groups that share categorical conjunctions, counted on the full
    table and on record sub-ranges, against a brute-force record scan."""

    @staticmethod
    def _mapper():
        rng = np.random.default_rng(5)
        schema = TableSchema(
            [
                quantitative("x"),
                quantitative("y"),
                categorical("c", ("p", "q", "r")),
                categorical("d", ("u", "v")),
            ]
        )
        n = 400
        # 40 x 12 cells: a cell index past 255 must not wrap around in
        # the narrow codes a selection gathers.
        x = np.arange(n) % 40.0
        y = rng.integers(0, 12, n).astype(float)
        c = rng.integers(0, 2, n)  # "r" (code 2) matches no record
        d = rng.integers(0, 2, n)
        table = RelationalTable.from_columns(schema, [x, y, c, d])
        return TableMapper(
            table,
            MinerConfig(min_support=0.05, num_partitions={"x": 40, "y": 12}),
        )

    #: Categorical conjunctions, the empty one and one matching nothing
    #: included.
    CONJUNCTIONS = (
        (),
        (Item(2, 0, 0),),
        (Item(2, 1, 1),),
        (Item(2, 2, 2),),
        (Item(2, 0, 0), Item(3, 0, 0)),
        (Item(3, 1, 1),),
    )

    def _groups(self):
        """Per conjunction: groups over (x), (y) and the overlapping
        (x, y), plus a pure-categorical group."""
        ranges = {0: [(0, 10), (5, 39), (17, 17)], 1: [(0, 11), (2, 6)]}
        candidates = []
        for conjunction in self.CONJUNCTIONS:
            if conjunction:
                candidates.append(make_itemset(conjunction))
            for attrs in ((0,), (1,), (0, 1)):
                for bounds in product(*(ranges[a] for a in attrs)):
                    quant = [
                        Item(a, lo, hi) for a, (lo, hi) in zip(attrs, bounds)
                    ]
                    candidates.append(make_itemset(list(conjunction) + quant))
        catalog = ItemCatalog({it for c in candidates for it in c})
        return catalog, grouped(candidates, {0, 1}, catalog)

    def _views(self, mapper, store):
        n = mapper.num_records
        yield mapper, 0, n
        handle = store.publish(mapper) if store is not None else None
        for start, stop in ((0, n), (0, 1), (37, 230), (n - 1, n), (90, 90)):
            yield shard_view(mapper, TableShard(start, stop)), start, stop
            if handle is not None:
                yield SharedShardView(handle, start, stop), start, stop

    @pytest.mark.parametrize("budget", ["array", "rtree"])
    def test_counts_match_brute_force_on_every_view(self, budget):
        mapper = self._mapper()
        catalog, groups = self._groups()
        backends = [
            choose_backend(group, mapper, BUDGETS[budget]) for group in groups
        ]
        assert set(backends) == {budget, "mask"}
        store = SharedColumnStore() if shared_memory_available() else None
        try:
            for view, start, stop in self._views(mapper, store):
                per_group = count_groups(groups, backends, view)
                for group, counts in zip(groups, per_group):
                    assert counts == [
                        brute_support(mapper, itemset, start, stop)
                        for itemset in catalog.decode(group.candidates)
                    ], (type(view).__name__, start, stop)
        finally:
            if store is not None:
                store.close()

    @pytest.mark.parametrize("budget", ["array", "rtree"])
    def test_one_mask_per_distinct_conjunction(self, budget, monkeypatch):
        import repro.core.counting as counting

        mapper = self._mapper()
        catalog, groups = self._groups()
        assert len(groups) > len(self.CONJUNCTIONS)
        seen = []
        original = counting.categorical_mask

        def counted(view, items):
            seen.append(tuple(items))
            return original(view, items)

        monkeypatch.setattr(counting, "categorical_mask", counted)
        backends = [
            choose_backend(group, mapper, BUDGETS[budget]) for group in groups
        ]
        per_group = count_groups(groups, backends, mapper)
        assert sorted(seen) == sorted(self.CONJUNCTIONS)
        for group, counts in zip(groups, per_group):
            for itemset, count in zip(
                catalog.decode(group.candidates), counts
            ):
                assert count == brute_support(mapper, itemset)
