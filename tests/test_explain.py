"""Unit tests for rule explanations (repro.core.explain)."""

import pytest

from repro.core import (
    CacheConfig,
    Item,
    MinerConfig,
    QuantitativeMiner,
    make_itemset,
)
from repro.table import RelationalTable, TableSchema, categorical, quantitative

from .test_properties_pipeline import build_table

#: A table on which, at R = 1.0, both deviation ratios of
#: ``<2: 2> => <1: 1..6>`` against ``<2: 2> => <1: 0..7>`` come out one
#: ulp below 1.0: the verdict hangs on the measure's tolerance.
TIE_XS = [6, 4, 11, 2, 11, 1, 7, 6, 10, 3, 10, 8, 10, 2, 9, 11, 0, 4, 7, 1,
          6, 7, 9, 11, 4, 5, 5, 11, 2, 5, 0, 5, 11, 7, 4, 11, 7, 11, 0, 5]
TIE_YS = [10, 9, 4, 5, 5, 6, 2, 9, 0, 4, 3, 8, 8, 8, 11, 11, 2, 1, 1, 8,
          11, 11, 8, 11, 10, 0, 1, 10, 0, 11, 9, 11, 4, 1, 6, 11, 4, 10, 4, 9]
TIE_CS = [0, 1, 0, 0, 2, 2, 0, 2, 2, 0, 1, 1, 1, 1, 0, 2, 2, 0, 2, 2,
          0, 1, 1, 0, 2, 2, 0, 0, 0, 2, 0, 1, 2, 2, 0, 0, 1, 2, 1, 0]


def quarter_table():
    """x uniform over 0..7; y=yes rate 0.7 on [0,3], 0.1 above —
    specializations of <x: 0..3> => y track expectation exactly."""
    records = []
    for v in range(8):
        yes_count = 70 if v <= 3 else 10
        records.extend((v, "yes") for _ in range(yes_count))
        records.extend((v, "no") for _ in range(100 - yes_count))
    schema = TableSchema(
        [quantitative("x"), categorical("y", ("no", "yes"))]
    )
    return RelationalTable.from_records(schema, records)


@pytest.fixture(scope="module")
def result():
    config = MinerConfig(
        min_support=0.05,
        min_confidence=0.3,
        max_support=0.55,
        interest_level=1.1,
    )
    return QuantitativeMiner(quarter_table(), config).mine()


@pytest.fixture(scope="module")
def tie_result():
    config = MinerConfig(
        min_support=0.1,
        max_support=0.6,
        min_confidence=0.3,
        partial_completeness=3.0,
        max_itemset_size=2,
        interest_level=1.0,
        cache=CacheConfig(enabled=False),
    )
    table = build_table(TIE_XS, TIE_YS, TIE_CS)
    return QuantitativeMiner(table, config).mine()


def find_rule(rules, antecedent, consequent):
    for r in rules:
        if (r.antecedent, r.consequent) == (antecedent, consequent):
            return r
    raise AssertionError(f"rule {antecedent} => {consequent} not mined")


class TestExplain:
    def test_ancestorless_rule_explained_as_interesting(self, result):
        rule = find_rule(
            result.rules,
            make_itemset([Item(0, 0, 3)]),
            make_itemset([Item(1, 1, 1)]),
        )
        explanation = result.explain(rule)
        assert not explanation.has_ancestors
        assert explanation.interesting
        text = explanation.render(result.mapper)
        assert "no more-general rule" in text
        assert "INTERESTING" in text

    def test_pruned_specialization_explained(self, result):
        child = find_rule(
            result.rules,
            make_itemset([Item(0, 0, 1)]),
            make_itemset([Item(1, 1, 1)]),
        )
        assert child not in result.interesting_rules
        explanation = result.explain(child)
        assert explanation.has_ancestors
        assert not explanation.interesting
        assert explanation.comparisons
        comparison = explanation.comparisons[0]
        # Tracks expectation exactly: ratios ~1.0, below R=1.1.
        assert comparison.support_ratio == pytest.approx(1.0, abs=0.05)
        assert comparison.confidence_ratio == pytest.approx(1.0, abs=0.05)
        assert not comparison.deviation_ok
        text = explanation.render(result.mapper)
        assert "FAILS" in text
        assert "pruned" in text

    def test_verdicts_match_filter_output(self, result, tie_result):
        # The explanation's verdict must agree with the filter for every
        # mined rule (the explanation recomputes the same tests), also
        # where deviation ratios tie R up to float noise.
        tie_rule = find_rule(
            tie_result.rules,
            make_itemset([Item(2, 2, 2)]),
            make_itemset([Item(1, 1, 6)]),
        )
        assert tie_rule in tie_result.interesting_rules
        for mined in (result, tie_result):
            interesting = set(mined.interesting_rules)
            for rule in mined.rules:
                explanation = mined.explain(rule)
                assert explanation.interesting == (rule in interesting), (
                    explanation.render(mined.mapper)
                )

    def test_result_without_config_rejects_explain(self, result):
        from dataclasses import replace

        bare = replace(result, config=None)
        with pytest.raises(ValueError, match="MinerConfig"):
            bare.explain(result.rules[0])
