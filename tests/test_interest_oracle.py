"""The interest filter against a literal Section 4 oracle.

The reference below is written straight from the paper's definitions and
shares nothing with ``InterestEvaluator``'s filter machinery:

* A rule is interesting in S when it has no ancestor among *all* the
  same-signature rules of S.  Otherwise it is interesting when it is
  R-interesting w.r.t. every close ancestor among its *interesting*
  ancestors.  The filter only ever consults the interesting set, on the
  argument that "has ancestors" and "has interesting ancestors" coincide;
  the oracle does not assume that, so the shortcut is tested.
* R-interest w.r.t. an ancestor: the support or confidence (both, in
  ``support_and_confidence`` mode) reaches R times the expectation, and,
  with the specialization check on, every frequent specialization whose
  difference is an itemset leaves a remainder whose support reaches R
  times its expectation.

Each value is obtained independently: item probabilities from
``FrequentItems.support``, every support by a numpy range-mask scan of
the encoded records, and the differences by scanning ``support_counts``
with ``items.subtract_specialization``.  Comparisons use the filter's
documented tolerance, ``actual + 1e-9 >= R * expected``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    SUPPORT_AND_CONFIDENCE,
    SUPPORT_OR_CONFIDENCE,
    CacheConfig,
    ExecutionConfig,
    MinerConfig,
    QuantitativeMiner,
)
from repro.core.items import is_strict_generalization, subtract_specialization
from repro.core.rules import close_ancestors

from .test_explain import TIE_CS, TIE_XS, TIE_YS
from .test_properties_pipeline import build_table

TOLERANCE = 1e-9


def ancestor_lists(group) -> list:
    """Per rule of one signature group, every rule of the group that is
    its ancestor: both sides generalize it and the rules differ.

    The same test as ``QuantitativeRule.is_ancestor_of``, over all pairs
    at once: the rules share attributes position by position, and two
    distinct rules never have identical ranges.
    """
    items = [r.antecedent + r.consequent for r in group]
    lo = np.array([[it.lo for it in row] for row in items])
    hi = np.array([[it.hi for it in row] for row in items])
    # contains[i, j]: rule i's box contains rule j's.
    contains = (lo[:, None, :] <= lo[None, :, :]).all(axis=2) & (
        hi[:, None, :] >= hi[None, :, :]
    ).all(axis=2)
    np.fill_diagonal(contains, False)
    return [
        [group[i] for i in np.flatnonzero(contains[:, j])]
        for j in range(len(group))
    ]


class SectionFourOracle:
    """Rule-by-rule "interesting in S" over one mining result."""

    def __init__(self, result, config):
        self.rules = list(result.rules)
        self.support_counts = result.support_counts
        self.freq = result.frequent_items
        self.mapper = result.mapper
        self.n = result.num_records
        self.r = config.effective_interest_level
        self.mode = config.interest_mode
        self.check_specializations = config.apply_specialization_check
        self._counts = {}
        self._differences = {}
        self._verdicts = {}
        self._ancestors = {}
        groups = {}
        for rule in self.rules:
            groups.setdefault(rule.attribute_signature(), []).append(rule)
        for group in groups.values():
            for rule, ancestors in zip(group, ancestor_lists(group)):
                self._ancestors[rule] = ancestors
        # Only itemsets over the same attributes can be specializations;
        # their boxes as arrays let a scan skip the ones outside X's box.
        buckets = {}
        for itemset in self.support_counts:
            key = tuple(item.attribute for item in itemset)
            buckets.setdefault(key, []).append(itemset)
        self._same_attributes = {
            key: (
                members,
                np.array([[it.lo for it in m] for m in members]),
                np.array([[it.hi for it in m] for m in members]),
            )
            for key, members in buckets.items()
        }

    # -- values ----------------------------------------------------------
    def count(self, itemset) -> int:
        """Records inside the itemset's box, by a range-mask scan."""
        cached = self._counts.get(itemset)
        if cached is None:
            mask = np.ones(self.n, dtype=bool)
            for item in itemset:
                column = self.mapper.column(item.attribute)
                mask &= (column >= item.lo) & (column <= item.hi)
            cached = self._counts[itemset] = int(np.count_nonzero(mask))
        return cached

    def support(self, itemset) -> float:
        return self.count(itemset) / self.n

    def projection(self, items, general_items) -> float:
        ratio = 1.0
        for z, z_hat in zip(items, general_items):
            p_hat = self.freq.support(z_hat)
            if p_hat == 0.0:
                return 0.0
            ratio *= self.freq.support(z) / p_hat
        return ratio

    def beats(self, actual, expected) -> bool:
        return actual + TOLERANCE >= self.r * expected

    # -- Section 4 -------------------------------------------------------
    def differences(self, itemset) -> list:
        cached = self._differences.get(itemset)
        if cached is None:
            cached = self._differences[itemset] = []
            # A rule's itemset is frequent, so its bucket exists.
            members, lo, hi = self._same_attributes[
                tuple(item.attribute for item in itemset)
            ]
            inside = (lo >= [it.lo for it in itemset]).all(axis=1) & (
                hi <= [it.hi for it in itemset]
            ).all(axis=1)
            for i in np.flatnonzero(inside):
                other = members[i]
                if is_strict_generalization(itemset, other):
                    difference = subtract_specialization(itemset, other)
                    if difference is not None:
                        cached.append(difference)
        return cached

    def r_interesting(self, rule, ancestor) -> bool:
        itemset, general = rule.itemset, ancestor.itemset
        support = self.support(itemset)
        confidence = self.count(itemset) / self.count(rule.antecedent)
        ancestor_confidence = self.count(general) / self.count(
            ancestor.antecedent
        )
        sup_ok = self.beats(
            support, self.projection(itemset, general) * self.support(general)
        )
        conf_ok = self.beats(
            confidence,
            self.projection(rule.consequent, ancestor.consequent)
            * ancestor_confidence,
        )
        if self.mode == SUPPORT_AND_CONFIDENCE:
            deviation_ok = sup_ok and conf_ok
        else:
            deviation_ok = sup_ok or conf_ok
        if not deviation_ok:
            return False
        if not self.check_specializations:
            return True
        return all(
            self.beats(
                self.support(difference),
                self.projection(difference, general) * self.support(general),
            )
            for difference in self.differences(itemset)
        )

    def interesting(self, rule) -> bool:
        verdict = self._verdicts.get(rule)
        if verdict is not None:
            return verdict
        ancestors = self._ancestors[rule]
        if not ancestors:
            verdict = True
        else:
            kept = [o for o in ancestors if self.interesting(o)]
            verdict = all(
                self.r_interesting(rule, ancestor)
                for ancestor in close_ancestors(rule, kept)
            )
        self._verdicts[rule] = verdict
        return verdict

    def interesting_rules(self) -> list:
        return [rule for rule in self.rules if self.interesting(rule)]


draws = st.lists(st.integers(0, 11), min_size=40, max_size=100)

levels = st.one_of(st.just(1.0), st.floats(1.0, 2.0))


def mine(table, interest_level, mode, check, execution):
    config = MinerConfig(
        min_support=0.1,
        max_support=0.6,
        min_confidence=0.3,
        partial_completeness=3.0,
        max_itemset_size=2,
        interest_level=interest_level,
        interest_mode=mode,
        apply_specialization_check=check,
        execution=execution,
        cache=CacheConfig(enabled=False),
    )
    return QuantitativeMiner(table, config).mine(), config


class TestFilterMatchesOracle:
    @given(
        draws,
        draws,
        draws,
        levels,
        st.sampled_from([SUPPORT_OR_CONFIDENCE, SUPPORT_AND_CONFIDENCE]),
        st.booleans(),
        st.integers(1, 5),
    )
    @example(TIE_XS, TIE_YS, TIE_CS, 1.0, SUPPORT_OR_CONFIDENCE, True, 2)
    @settings(max_examples=30, deadline=None)
    def test_interesting_rules_equal_the_oracle(
        self, xs, ys, cs, interest_level, mode, check, block_size
    ):
        n = min(len(xs), len(ys), len(cs))
        table = build_table(xs[:n], ys[:n], cs[:n])
        result, config = mine(
            table, interest_level, mode, check, ExecutionConfig()
        )
        expected = SectionFourOracle(result, config).interesting_rules()
        assert result.interesting_rules == expected
        blocked, _ = mine(
            table,
            interest_level,
            mode,
            check,
            ExecutionConfig(rule_block_size=block_size),
        )
        assert blocked.rules == result.rules
        assert blocked.interesting_rules == expected
