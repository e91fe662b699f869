"""Explaining interest verdicts: why a rule was kept or pruned.

The interest measure's output is a yes/no per rule, but a practitioner
debugging a missing rule needs the *why*: which close ancestors it was
judged against, what support/confidence those ancestors predicted, and
which specialization difference (if any) failed the final measure's
check.  :func:`explain_rule` reconstructs exactly the comparison the
filter performed and reports it as a structured, printable object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import SUPPORT_AND_CONFIDENCE
from .interest import InterestEvaluator, beats_expectation
from .rules import QuantitativeRule, close_ancestors


@dataclass
class AncestorComparison:
    """One (rule, close ancestor) deviation test, spelled out."""

    ancestor: QuantitativeRule
    expected_support: float
    expected_confidence: float
    support_ratio: float  # actual / expected (inf when expected is 0)
    confidence_ratio: float
    deviation_ok: bool
    specialization_ok: bool
    failing_difference: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.deviation_ok and self.specialization_ok


@dataclass
class RuleExplanation:
    """The full story of one rule's interest verdict."""

    rule: QuantitativeRule
    interest_level: float
    has_ancestors: bool
    comparisons: list = field(default_factory=list)

    @property
    def interesting(self) -> bool:
        if not self.has_ancestors:
            return True
        return all(c.passed for c in self.comparisons)

    def render(self, mapper=None) -> str:
        """Multi-line human-readable account."""
        def show(rule):
            if mapper is None:
                return str(rule)
            lhs = mapper.describe_itemset(rule.antecedent)
            rhs = mapper.describe_itemset(rule.consequent)
            return (
                f"{lhs} => {rhs} "
                f"(sup={rule.support:.1%}, conf={rule.confidence:.1%})"
            )

        lines = [f"rule: {show(self.rule)}"]
        if not self.has_ancestors:
            lines.append(
                "verdict: INTERESTING — no more-general rule exists in "
                "the mined set"
            )
            return "\n".join(lines)
        for c in self.comparisons:
            lines.append(f"vs close ancestor: {show(c.ancestor)}")
            lines.append(
                f"  expected sup={c.expected_support:.1%} "
                f"(actual/expected = {c.support_ratio:.2f}x), "
                f"expected conf={c.expected_confidence:.1%} "
                f"({c.confidence_ratio:.2f}x); "
                f"deviation {'passes' if c.deviation_ok else 'FAILS'} "
                f"at R={self.interest_level}"
            )
            if not c.specialization_ok and c.failing_difference is not None:
                diff = (
                    mapper.describe_itemset(c.failing_difference)
                    if mapper
                    else str(c.failing_difference)
                )
                lines.append(
                    f"  specialization check FAILS: remainder {diff} "
                    "does not beat expectation"
                )
        lines.append(
            f"verdict: {'INTERESTING' if self.interesting else 'pruned'}"
        )
        return "\n".join(lines)


def explain_rule(
    rule: QuantitativeRule,
    all_rules,
    interesting_rules,
    evaluator: InterestEvaluator,
) -> RuleExplanation:
    """Reconstruct the interest filter's decision for one rule.

    ``all_rules`` and ``interesting_rules`` must be the rule set the
    filter ran on and its output (``MiningResult.rules`` /
    ``.interesting_rules``); the evaluator supplies expectations.
    """
    config = evaluator._config
    r_level = config.effective_interest_level
    signature = rule.attribute_signature()
    interesting_same_signature = [
        other
        for other in interesting_rules
        if other.attribute_signature() == signature
    ]
    interesting_ancestors = [
        other
        for other in interesting_same_signature
        if other.is_ancestor_of(rule)
    ]
    has_ancestors = any(
        other.is_ancestor_of(rule)
        for other in all_rules
        if other.attribute_signature() == signature
    )
    explanation = RuleExplanation(
        rule=rule, interest_level=r_level, has_ancestors=has_ancestors
    )
    if not has_ancestors:
        return explanation

    close = close_ancestors(
        rule, interesting_ancestors + [rule]
    )
    for ancestor in close:
        expected_sup = evaluator.expected_support(
            rule.itemset, ancestor.itemset
        )
        expected_conf = evaluator.expected_confidence(rule, ancestor)
        sup_ratio = (
            rule.support / expected_sup if expected_sup > 0 else float("inf")
        )
        conf_ratio = (
            rule.confidence / expected_conf
            if expected_conf > 0
            else float("inf")
        )
        sup_ok = beats_expectation(rule.support, expected_sup, r_level)
        conf_ok = beats_expectation(rule.confidence, expected_conf, r_level)
        if config.interest_mode == SUPPORT_AND_CONFIDENCE:
            deviation_ok = sup_ok and conf_ok
        else:
            deviation_ok = sup_ok or conf_ok

        failing = None
        if deviation_ok and config.apply_specialization_check:
            failing = evaluator.failing_difference(
                rule.itemset, ancestor.itemset
            )
        spec_ok = failing is None
        explanation.comparisons.append(
            AncestorComparison(
                ancestor=ancestor,
                expected_support=expected_sup,
                expected_confidence=expected_conf,
                support_ratio=sup_ratio,
                confidence_ratio=conf_ratio,
                deviation_ok=deviation_ok,
                specialization_ok=spec_ok,
                failing_difference=failing,
            )
        )
    return explanation
