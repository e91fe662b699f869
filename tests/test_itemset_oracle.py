"""Frequent itemsets and rules against a literal oracle (steps 1-4).

The reference below is written from the paper's problem statement and
shares nothing with the miner's candidate, counting or rule code.  On a
table of at most four attributes, each categorical or quantitative with
at most five base intervals, it enumerates every itemset whose items lie
on distinct attributes, where an item is

* a categorical value, or
* a range of adjacent base intervals whose support is at most maxsup; a
  single interval is exempt from the cap (Section 1.2).

In ``support_and_confidence`` mode with an interest level R > 1 it first
drops the items Lemma 5 prunes: items on rangeable attributes whose
support exceeds 1/R.  Every itemset is counted by a scan of the encoded
records and kept when its count reaches minsup.  Rules come from
``brute_force`` in ``tests/test_rulegen_quant.py`` run on those counts.

Steps 1-2 (partitioning and mapping) are taken as the miner encoded
them: the oracle reads the mapped codes, so it tests the search and the
rules, not where the interval edges fall.
"""

import dataclasses
import itertools
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SUPPORT_AND_CONFIDENCE,
    SUPPORT_OR_CONFIDENCE,
    CacheConfig,
    ExecutionConfig,
    Item,
    MinerConfig,
    QuantitativeMiner,
)
from repro.table import RelationalTable, TableSchema, categorical, quantitative

from .test_rulegen_quant import brute_force

LABELS = ("a", "b", "c", "d")


@st.composite
def tables(draw):
    """A table of 1-4 attributes; quantitative ones get <= 5 intervals."""
    num_records = draw(st.integers(20, 60))
    kinds = draw(
        st.lists(st.booleans(), min_size=1, max_size=4)
    )  # True: quantitative
    specs, columns, partitions = [], [], {}
    for i, is_quantitative in enumerate(kinds):
        name = f"a{i}"
        if is_quantitative:
            values = draw(
                st.lists(
                    st.integers(0, 9),
                    min_size=num_records,
                    max_size=num_records,
                )
            )
            specs.append(quantitative(name))
            columns.append(np.array(values, dtype=float))
            partitions[name] = draw(st.integers(1, 5))
        else:
            width = draw(st.integers(2, 4))
            values = draw(
                st.lists(
                    st.integers(0, width - 1),
                    min_size=num_records,
                    max_size=num_records,
                )
            )
            specs.append(categorical(name, LABELS[:width]))
            columns.append(np.array(values, dtype=np.int64))
    return RelationalTable.from_columns(TableSchema(specs), columns), partitions


@st.composite
def configs(draw, partitions):
    min_support = draw(st.floats(0.05, 0.6))
    max_support = draw(st.floats(min_support, 1.0))
    budget = draw(st.sampled_from([MinerConfig().memory_budget_bytes, 0]))
    layout = draw(
        st.one_of(
            st.just(ExecutionConfig()),
            st.builds(
                lambda shard, block: ExecutionConfig(
                    executor="serial", shard_size=shard, rule_block_size=block
                ),
                st.integers(1, 25),
                st.integers(1, 7),
            ),
        )
    )
    return MinerConfig(
        min_support=min_support,
        max_support=max_support,
        min_confidence=draw(st.floats(0.0, 1.0)),
        max_itemset_size=draw(st.one_of(st.none(), st.integers(1, 4))),
        interest_level=draw(st.one_of(st.none(), st.floats(1.0, 3.0))),
        interest_mode=draw(
            st.sampled_from([SUPPORT_OR_CONFIDENCE, SUPPORT_AND_CONFIDENCE])
        ),
        num_partitions=partitions,
        memory_budget_bytes=budget,
        execution=layout,
        cache=CacheConfig(enabled=False),
    )


def oracle_items(mapper, config) -> list:
    """Per attribute, ``(item, record mask)`` for every admissible item."""
    n = mapper.num_records
    min_count = config.min_support * n
    max_count = config.max_support * n
    lemma5 = (
        config.interest_mode == SUPPORT_AND_CONFIDENCE
        and config.effective_interest_level > 1.0
    )
    per_attribute = []
    for attribute in range(mapper.num_attributes):
        column = mapper.column(attribute)
        cardinality = mapper.cardinality(attribute)
        rangeable = mapper.mapping(attribute).is_rangeable
        ranges = [
            (lo, hi)
            for lo in range(cardinality)
            for hi in range(lo, cardinality if rangeable else lo + 1)
        ]
        items = []
        for lo, hi in ranges:
            mask = (column >= lo) & (column <= hi)
            count = int(mask.sum())
            if hi > lo and count > max_count:
                continue  # only a single interval may exceed maxsup
            if count < min_count:
                continue
            if lemma5 and rangeable and count > n / config.interest_level:
                continue
            items.append((Item(attribute, lo, hi), mask))
        per_attribute.append(items)
    return per_attribute


def oracle_counts(mapper, config) -> dict:
    """Every frequent itemset with its count, by a scan of the records.

    For each set of attributes, the counts of every combination of their
    items come from one sum over the records of the items' 0/1 masks.
    """
    n = mapper.num_records
    min_count = config.min_support * n
    items = oracle_items(mapper, config)
    largest = config.max_itemset_size or mapper.num_attributes
    counts = {}
    for size in range(1, largest + 1):
        for attributes in itertools.combinations(
            range(mapper.num_attributes), size
        ):
            if not all(items[a] for a in attributes):
                continue
            masks = [
                np.array([mask for _, mask in items[a]], dtype=np.int64)
                for a in attributes
            ]
            axes = string.ascii_lowercase[:size]
            per_box = np.einsum(
                ",".join(f"{axis}z" for axis in axes) + "->" + axes, *masks
            )
            for index in zip(*np.nonzero(per_box >= min_count)):
                itemset = tuple(
                    items[a][i][0] for a, i in zip(attributes, index)
                )
                counts[itemset] = int(per_box[index])
    return counts


def check_rules(rules, counts, n, keys):
    assert {(r.antecedent, r.consequent) for r in rules} == keys
    assert len(rules) == len(keys)
    for rule in rules:
        itemset = tuple(sorted(rule.antecedent + rule.consequent))
        assert rule.support == counts[itemset] / n
        assert rule.confidence == counts[itemset] / counts[rule.antecedent]


class TestSearchMatchesOracle:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_itemsets_and_rules_equal_the_oracle(self, data):
        table, partitions = data.draw(tables())
        config = data.draw(configs(partitions))
        result = QuantitativeMiner(table, config).mine()
        n = result.num_records
        counts = oracle_counts(result.mapper, config)
        assert dict(result.support_counts) == counts
        minconf = config.effective_min_confidence
        expected = brute_force(counts, n, minconf)
        check_rules(result.rules, counts, n, expected)

        names = table.schema.names
        target = data.draw(st.integers(0, len(names) - 1))
        goal_config = dataclasses.replace(config, target=names[target])
        goal = QuantitativeMiner(table, goal_config).mine()
        check_rules(
            goal.rules,
            counts,
            n,
            {
                (antecedent, consequent)
                for antecedent, consequent in expected
                if len(consequent) == 1 and consequent[0].attribute == target
            },
        )
