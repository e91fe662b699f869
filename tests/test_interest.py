"""Unit tests for the interest measure (repro.core.interest, Section 4)."""

import pytest

from repro.core import (
    InterestEvaluator,
    Item,
    MinerConfig,
    QuantitativeRule,
    SUPPORT_AND_CONFIDENCE,
    TableMapper,
    generate_rules,
    make_itemset,
)
from repro.core.apriori_quant import find_frequent_itemsets
from repro.table import RelationalTable, TableSchema, categorical, quantitative


def build_environment(records, config, schema=None):
    """Mine a small table and return (evaluator, support_counts, rules)."""
    if schema is None:
        schema = TableSchema(
            [quantitative("x"), categorical("y", ("no", "yes"))]
        )
    table = RelationalTable.from_records(schema, records)
    mapper = TableMapper(table, config)
    support_counts, freq = find_frequent_itemsets(mapper, config)
    rules = generate_rules(
        support_counts, table.num_records, config.min_confidence
    )
    evaluator = InterestEvaluator(support_counts, freq, mapper, config)
    return evaluator, support_counts, rules


def quarter_table():
    """x uniform over 0..7; y=yes with rate 0.7 on x in [0,3], 0.1 above.

    Within [0, 3] the y-rate is flat, so every specialization of
    "<x: 0..3> => <y: yes>" matches its expectation exactly.
    """
    records = []
    for v in range(8):
        yes_count = 70 if v <= 3 else 10
        records.extend((v, "yes") for _ in range(yes_count))
        records.extend((v, "no") for _ in range(100 - yes_count))
    return records


CONFIG = MinerConfig(
    min_support=0.05,
    min_confidence=0.3,
    max_support=0.55,
    interest_level=1.1,
)


@pytest.fixture
def env():
    return build_environment(quarter_table(), CONFIG)


class TestExpectations:
    def test_item_probability_exact(self, env):
        evaluator, *_ = env
        assert evaluator.item_probability(Item(0, 0, 3)) == pytest.approx(
            0.5
        )
        assert evaluator.item_probability(Item(1, 1, 1)) == pytest.approx(
            0.4
        )

    def test_expected_support_projection(self, env):
        evaluator, *_ = env
        whole = make_itemset([Item(0, 0, 3), Item(1, 1, 1)])
        part = make_itemset([Item(0, 0, 1), Item(1, 1, 1)])
        # Pr(x in [0,1]) / Pr(x in [0,3]) = 0.5 -> expected = 0.5 * actual.
        expected = evaluator.expected_support(part, whole)
        assert expected == pytest.approx(
            0.5 * evaluator.itemset_support(whole)
        )

    def test_uniform_region_meets_expectation_exactly(self, env):
        evaluator, *_ = env
        whole = make_itemset([Item(0, 0, 3), Item(1, 1, 1)])
        part = make_itemset([Item(0, 0, 1), Item(1, 1, 1)])
        assert evaluator.itemset_support(part) == pytest.approx(
            evaluator.expected_support(part, whole)
        )

    def test_expected_confidence_uses_consequent_only(self, env):
        evaluator, *_ = env
        general = QuantitativeRule(
            (Item(0, 0, 3),), (Item(1, 1, 1),), 0.35, 0.7
        )
        specific = QuantitativeRule(
            (Item(0, 0, 1),), (Item(1, 1, 1),), 0.175, 0.7
        )
        # Consequents identical -> expected confidence = ancestor's.
        assert evaluator.expected_confidence(
            specific, general
        ) == pytest.approx(0.7)

    def test_on_demand_support_counting(self, env):
        evaluator, support_counts, _ = env
        infrequent = make_itemset([Item(0, 7, 7), Item(1, 1, 1)])
        assert infrequent not in support_counts
        # 10 yes records at x=7 out of 800.
        assert evaluator.itemset_support(infrequent) == pytest.approx(
            10 / 800
        )
        assert evaluator.stats.on_demand_supports == 1


class TestFilterRules:
    def test_uninteresting_specializations_dropped(self, env):
        evaluator, _, rules = env
        general_key = (
            make_itemset([Item(0, 0, 3)]),
            make_itemset([Item(1, 1, 1)]),
        )
        child_key = (
            make_itemset([Item(0, 0, 1)]),
            make_itemset([Item(1, 1, 1)]),
        )
        keys = {(r.antecedent, r.consequent) for r in rules}
        assert general_key in keys and child_key in keys
        interesting = evaluator.filter_rules(rules)
        kept = {(r.antecedent, r.consequent) for r in interesting}
        assert general_key in kept
        # The specialization tracks expectation exactly -> dropped.
        assert child_key not in kept

    def test_disabled_interest_keeps_everything(self):
        config = MinerConfig(
            min_support=0.05,
            min_confidence=0.3,
            max_support=0.55,
            interest_level=None,
        )
        evaluator, _, rules = build_environment(quarter_table(), config)
        assert evaluator.filter_rules(rules) == list(rules)
        assert evaluator.stats.fraction_interesting == 1.0

    def test_r_zero_prunes_nothing(self):
        config = MinerConfig(
            min_support=0.05,
            min_confidence=0.3,
            max_support=0.55,
            interest_level=0.0,
        )
        evaluator, _, rules = build_environment(quarter_table(), config)
        assert len(evaluator.filter_rules(rules)) == len(rules)

    def test_higher_r_prunes_no_less(self):
        kept = {}
        for r_level in (1.05, 1.3, 2.0):
            config = MinerConfig(
                min_support=0.05,
                min_confidence=0.3,
                max_support=0.55,
                interest_level=r_level,
            )
            evaluator, _, rules = build_environment(quarter_table(), config)
            kept[r_level] = len(evaluator.filter_rules(rules))
        assert kept[1.05] >= kept[1.3] >= kept[2.0]

    def test_and_mode_no_weaker_than_or_mode(self):
        base = dict(
            min_support=0.05,
            min_confidence=0.3,
            max_support=0.55,
            interest_level=1.1,
        )
        or_eval, _, rules = build_environment(
            quarter_table(), MinerConfig(**base)
        )
        and_eval, _, rules2 = build_environment(
            quarter_table(),
            MinerConfig(**base, interest_mode=SUPPORT_AND_CONFIDENCE),
        )
        or_kept = {
            (r.antecedent, r.consequent)
            for r in or_eval.filter_rules(rules)
        }
        and_kept = {
            (r.antecedent, r.consequent)
            for r in and_eval.filter_rules(rules2)
        }
        assert and_kept <= or_kept

    def test_most_general_rules_always_kept(self, env):
        evaluator, _, rules = env
        interesting = evaluator.filter_rules(rules)
        kept = {(r.antecedent, r.consequent) for r in interesting}
        # A rule with no ancestors in the rule set must survive.
        for rule in rules:
            has_ancestor = any(
                other.is_ancestor_of(rule) for other in rules
            )
            if not has_ancestor:
                assert (rule.antecedent, rule.consequent) in kept

    def test_deterministic(self, env):
        evaluator, _, rules = env
        first = evaluator.filter_rules(rules)
        evaluator2, _, rules2 = build_environment(quarter_table(), CONFIG)
        assert first == evaluator2.filter_rules(rules2)


class TestSpecializationMachinery:
    def test_expressible_differences_match_definition(self, env):
        evaluator, support_counts, _ = env
        # Cross-validate the batched join behind _expressible_differences
        # against the direct definition (scan for specializations,
        # subtract).
        from repro.core.items import (
            is_strict_generalization,
            subtract_specialization,
        )

        for itemset in list(support_counts)[:200]:
            got = set(evaluator._expressible_differences(itemset))
            want = set()
            for other in support_counts:
                if is_strict_generalization(itemset, other):
                    diff = subtract_specialization(itemset, other)
                    if diff is not None:
                        want.add(diff)
            assert got == want

    def test_join_index_matches_rows_with_huge_codes(self):
        # Value-identity partitioning can give codes near 2**31; a key
        # combining several such columns must not overflow int64.
        import numpy as np

        from repro.core.levels import RowIndex

        rng = np.random.default_rng(3)
        codes = np.array([0, 1, 2**31 - 2, 2**31 - 1], dtype=np.int64)
        rows = codes[rng.integers(0, 4, size=(200, 4))]
        queries = np.vstack(
            [rows[:50], codes[rng.integers(0, 4, size=(50, 4))]]
        )
        index = RowIndex([rows[:, c] for c in range(4)], len(rows))
        start, stop = index.ranges(
            [queries[:, c] for c in range(4)], len(queries)
        )
        for q, (lo, hi) in enumerate(zip(start, stop)):
            want = np.flatnonzero((rows == queries[q]).all(axis=1))
            assert list(index.order[lo:hi]) == list(want)

