"""Sharded rule generation and interest filtering are invisible.

Rule generation fans out by frequent-itemset block and the interest
filter by attribute-signature group; both merge in block order and
finish with the canonical rule sort, so for *any* executor and *any*
block size the output must be bit-identical to the serial reference —
same rules, same interesting rules, same list order.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CacheConfig,
    ExecutionConfig,
    MinerConfig,
    QuantitativeMiner,
    filter_interesting_rules,
    generate_rules,
)
import repro.core.interest as interest_module
import repro.core.rulegen as rulegen_module
from repro.core.apriori_quant import find_frequent_itemsets
from repro.core.mapper import TableMapper
from repro.engine import SerialExecutor, plan_blocks
from repro.table import RelationalTable, TableSchema, categorical, quantitative

NO_CACHE = CacheConfig(enabled=False)


@contextmanager
def counting_calls(module, name):
    """Wrap ``module.name`` for the block; yields the list of its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def build_table(x_values, y_values, c_values):
    schema = TableSchema(
        [
            quantitative("x"),
            quantitative("y"),
            categorical("c", ("a", "b", "d")),
        ]
    )
    return RelationalTable.from_columns(
        schema,
        [
            np.array(x_values, dtype=float),
            np.array(y_values, dtype=float),
            np.array(c_values, dtype=np.int64) % 3,
        ],
    )


class TestPlanBlocks:
    def test_explicit_block_size(self):
        blocks = plan_blocks([1, 2, 3, 4, 5], block_size=2)
        assert blocks == [[1, 2], [3, 4], [5]]

    def test_derived_from_workers(self):
        blocks = plan_blocks(list(range(8)), num_workers=2)
        # Two blocks per worker.
        assert len(blocks) == 4
        assert [x for block in blocks for x in block] == list(range(8))

    def test_single_worker_two_blocks(self):
        # Always two blocks per worker, so even a lone worker exposes
        # the merge path.
        assert plan_blocks([1, 2, 3], num_workers=1) == [[1, 2], [3]]

    def test_order_preserved(self):
        items = list("fingerprint")
        blocks = plan_blocks(items, block_size=3)
        assert [x for block in blocks for x in block] == items

    def test_invalid_block_size(self):
        import pytest

        with pytest.raises(ValueError):
            plan_blocks([1], block_size=0)


draws = st.lists(st.integers(0, 9), min_size=30, max_size=70)


def mine_config(min_confidence, interest_level, execution):
    return MinerConfig(
        min_support=0.15,
        min_confidence=min_confidence,
        max_support=0.6,
        partial_completeness=3.0,
        interest_level=interest_level,
        execution=execution,
        cache=NO_CACHE,
    )


class TestShardedRuleStagesProperty:
    @given(
        draws,
        draws,
        draws,
        st.floats(0.2, 0.6),
        st.floats(1.0, 2.0),
        st.integers(1, 20),
    )
    @settings(max_examples=8, deadline=None)
    def test_block_layout_is_invisible(
        self, xs, ys, cs, min_confidence, interest_level, block_size
    ):
        n = min(len(xs), len(ys), len(cs))
        table = build_table(xs[:n], ys[:n], cs[:n])
        reference = QuantitativeMiner(
            table,
            mine_config(min_confidence, interest_level, ExecutionConfig()),
        ).mine()
        variants = {
            "serial-blocked": ExecutionConfig(rule_block_size=block_size),
            "parallel": ExecutionConfig(
                executor="parallel", num_workers=2
            ),
            "parallel-blocked": ExecutionConfig(
                executor="parallel",
                num_workers=2,
                rule_block_size=block_size,
            ),
        }
        for label, execution in variants.items():
            result = QuantitativeMiner(
                table,
                mine_config(min_confidence, interest_level, execution),
            ).mine()
            assert result.rules == reference.rules, label
            assert [r.sort_key() for r in result.rules] == [
                r.sort_key() for r in reference.rules
            ], f"{label}: rule order diverged"
            assert (
                result.interesting_rules == reference.interesting_rules
            ), label

    @given(draws, st.integers(1, 7))
    @settings(max_examples=6, deadline=None)
    def test_generate_rules_blocked_equals_serial(self, xs, block_size):
        # Rule generation fans out only when given an executor; the
        # serial one runs the block path in-process.
        table = build_table(xs, list(reversed(xs)), xs)
        config = MinerConfig(
            min_support=0.15,
            max_support=0.6,
            partial_completeness=3.0,
            cache=NO_CACHE,
        )
        mapper = TableMapper(table, config)
        support_counts, _ = find_frequent_itemsets(mapper, config)
        serial = generate_rules(support_counts, mapper.num_records, 0.3)
        with counting_calls(rulegen_module, "_rules_block") as calls:
            blocked = generate_rules(
                support_counts,
                mapper.num_records,
                0.3,
                executor=SerialExecutor(),
                block_size=block_size,
            )
        assert blocked == serial
        assert len(calls) == len(
            plan_blocks(
                [c for c in support_counts if len(c) >= 2],
                block_size=block_size,
            )
        )


class TestShardedInterestFilter:
    def _pipeline_pieces(self, interest_level=1.2):
        table = build_table(
            list(range(40)),
            [v % 7 for v in range(40)],
            [v % 3 for v in range(40)],
        )
        config = MinerConfig(
            min_support=0.15,
            min_confidence=0.3,
            max_support=0.6,
            partial_completeness=3.0,
            interest_level=interest_level,
            cache=NO_CACHE,
        )
        mapper = TableMapper(table, config)
        support_counts, frequent_items = find_frequent_itemsets(
            mapper, config
        )
        rules = generate_rules(support_counts, mapper.num_records, 0.3)
        return rules, support_counts, frequent_items, mapper, config

    def test_blocked_filter_matches_serial(self):
        # At R = 1.1 some deviation survivors reach the specialization
        # check on this table, so its counter is exercised too.
        pieces = self._pipeline_pieces(interest_level=1.1)
        serial, serial_stats = filter_interesting_rules(*pieces)
        for block_size in (1, 2, 5, 100):
            # The filter fans out only when given an executor; the
            # serial one runs the block path in-process.
            with counting_calls(interest_module, "_interest_block") as calls:
                blocked, blocked_stats = filter_interesting_rules(
                    *pieces, executor=SerialExecutor(), block_size=block_size
                )
            assert calls, block_size
            assert blocked == serial, block_size
            # The worker counters merge back into the caller's stats.
            assert (
                blocked_stats.rules_total == serial_stats.rules_total
            )
            assert (
                blocked_stats.rules_interesting
                == serial_stats.rules_interesting
            )
            assert (
                blocked_stats.deviation_tests == serial_stats.deviation_tests
            )
            assert (
                blocked_stats.specialization_checks
                == serial_stats.specialization_checks
            )
        assert serial_stats.deviation_tests > 0
        assert serial_stats.specialization_checks > 0

    def test_interest_disabled_never_fans_out(self):
        pieces = self._pipeline_pieces(interest_level=None)
        rules = pieces[0]
        with counting_calls(interest_module, "_interest_block") as calls:
            kept, _ = filter_interesting_rules(
                *pieces, executor=SerialExecutor(), block_size=1
            )
        assert kept == list(rules)
        assert calls == []
