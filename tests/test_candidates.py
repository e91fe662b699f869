"""Unit tests for repro.core.candidates (Section 5.1).

The tuple-at-a-time join and subset prune below are the reference the
array path is compared against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Item, make_itemset
from repro.core.candidates import generate_candidates
from repro.core.levels import ItemCatalog

# Shorthand for the paper's Section 5.1 example items.
MARRIED_YES = Item(1, 0, 0)
AGE_20_24 = Item(0, 0, 0)
AGE_20_29 = Item(0, 0, 1)
CARS_0_1 = Item(2, 0, 1)


def itemset(*items):
    return make_itemset(items)


def reference_join(frequent_prev: list, k: int) -> list:
    """Merge (k-1)-itemsets sharing their first k-2 items whose last
    items lie on different attributes."""
    prev = sorted(frequent_prev)
    out = []
    for i, a in enumerate(prev):
        for b in prev[i + 1:]:
            if a[:-1] != b[:-1]:
                break  # sorted order: the shared prefix cannot reappear
            if a[-1].attribute != b[-1].attribute:
                out.append(a + (b[-1],))
    return out


def reference_prune(candidates: list, frequent_prev: list) -> list:
    """Drop candidates with a (k-1)-subset missing from L_{k-1}."""
    prev = set(frequent_prev)
    return [
        c
        for c in candidates
        if all(c[:i] + c[i + 1:] in prev for i in range(len(c)))
    ]


def candidates(frequent_prev: list) -> list:
    """The array path on itemset tuples: encode, generate, decode."""
    catalog = ItemCatalog({item for s in frequent_prev for item in s})
    k = len(frequent_prev[0])
    rows = catalog.encode(frequent_prev, k)
    return catalog.decode(generate_candidates(catalog, rows))


PAPER_L2 = [
    itemset(MARRIED_YES, AGE_20_24),
    itemset(MARRIED_YES, AGE_20_29),
    itemset(MARRIED_YES, CARS_0_1),
    itemset(AGE_20_29, CARS_0_1),
]


class TestJoin:
    def test_paper_example(self):
        # L2 of Section 5.1 (attribute order: Age < Married < NumCars).
        # Joining on the shared first item: {Age..., Married...} pairs
        # with {Age..., NumCars...} only when prefixes match.
        joined = reference_join(PAPER_L2, 3)
        assert itemset(AGE_20_29, MARRIED_YES, CARS_0_1) in joined
        generated = candidates(PAPER_L2)
        assert generated == reference_prune(joined, PAPER_L2)
        # <Age: 20..24> and <Age: 20..29> never co-join (same attribute).
        for candidate in generated:
            attrs = [it.attribute for it in candidate]
            assert len(set(attrs)) == len(attrs)

    def test_same_attribute_last_items_skipped(self):
        l2 = [
            itemset(MARRIED_YES, AGE_20_24),
            itemset(MARRIED_YES, AGE_20_29),
        ]
        # Both candidates end in Age items -> no join.
        assert candidates(l2) == []

    def test_k2_join_is_cross_attribute_pairs(self):
        l1 = [(AGE_20_24,), (AGE_20_29,), (MARRIED_YES,), (CARS_0_1,)]
        pairs = candidates(l1)
        assert pairs == reference_join(l1, 2)
        assert itemset(AGE_20_24, MARRIED_YES) in pairs
        assert itemset(AGE_20_24, CARS_0_1) in pairs
        # No pair of two Age ranges:
        assert all(len({it.attribute for it in p}) == 2 for p in pairs)

    def test_join_rejects_k1(self):
        catalog = ItemCatalog([AGE_20_24])
        with pytest.raises(ValueError):
            generate_candidates(catalog, np.empty((1, 0), dtype=np.int32))


class TestSubsetPrune:
    def test_paper_prune_example(self):
        # {Married, Age 20..24, Cars} is deleted because
        # {Age 20..24, Cars} is not in L2.
        assert candidates(PAPER_L2) == [
            itemset(AGE_20_29, MARRIED_YES, CARS_0_1)
        ]

    def test_generate_candidates_combines_both(self):
        l2 = [
            itemset(MARRIED_YES, AGE_20_29),
            itemset(MARRIED_YES, CARS_0_1),
            itemset(AGE_20_29, CARS_0_1),
        ]
        assert candidates(l2) == [itemset(AGE_20_29, MARRIED_YES, CARS_0_1)]


items = st.builds(
    lambda attribute, lo, width: Item(attribute, lo, lo + width),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 2),
)


@st.composite
def levels(draw):
    """A set of (k-1)-itemsets over distinct attributes, k in 2..5."""
    size = draw(st.integers(1, 4))
    drawn = draw(
        st.lists(
            st.lists(items, min_size=size, max_size=size).filter(
                lambda its: len({it.attribute for it in its}) == size
            ),
            min_size=1,
            max_size=40,
        )
    )
    return sorted({make_itemset(its) for its in drawn})


class TestArrayPathEqualsReference:
    @given(levels())
    @settings(max_examples=200, deadline=None)
    def test_candidates_and_their_order(self, l_prev):
        k = len(l_prev[0]) + 1
        expected = reference_prune(reference_join(l_prev, k), l_prev)
        assert candidates(l_prev) == expected


class TestCatalog:
    def test_catalog_ids_by_attribute(self):
        catalog = ItemCatalog([MARRIED_YES, AGE_20_29, AGE_20_24])
        assert catalog.items == [AGE_20_24, AGE_20_29, MARRIED_YES]
        buckets = catalog.by_attribute()
        assert {a: ids.tolist() for a, ids in buckets.items()} == {
            0: [0, 1],
            1: [2],
        }
