"""Rule generation from frequent quantitative itemsets (Step 4).

"We use the algorithm in [AS94] to generate rules": ap-genrules, grown
level-wise over consequents.  Confidence is anti-monotone in the
consequent — moving an item from antecedent to consequent can only shrink
the antecedent's support denominator's complement — so a consequent is
tried only when every consequent one item smaller that it contains held,
which is what ap-genrules' apriori-gen join and prune compute.

Every subset of a frequent itemset is itself frequent and present in the
levels (candidates are only ever built from frequent items, and the
Lemma 5 prune removes items globally before any itemset contains them),
so antecedent lookups never miss.

The work runs on the search's level matrices
(:class:`~repro.core.levels.FrequentLevels`): per level and per set of
consequent positions, one key lookup finds every row's antecedent in
the smaller level, and one division gives every confidence.  Rows are
independent of each other, so at low minimum support — where this stage
dominates wall-clock — the rows fan out in blocks through the engine's
:func:`~repro.engine.sharded.partitioned_map`.  Blocks return arrays;
one sort puts the rules in canonical order, and the
:class:`~repro.core.rules.QuantitativeRule` objects are built once, in
that order, from the levels' itemset tuples — bit-identical to the
serial path for any executor or block size.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..engine.sharded import partitioned_map, plan_blocks
from ..engine.stage import PipelineStage
from .config import RULEGEN_CONFIG_KEYS
from .levels import FrequentLevels, RowIndex
from .rules import QuantitativeRule

#: Fan rule generation out only past this many eligible itemsets — below
#: it the per-task payload (every level's arrays) costs more than the
#: rules it parallelizes.
_MIN_ITEMSETS_TO_FAN_OUT = 32

#: Rules built per batch of Python objects.
_BUILD_BLOCK = 8192


class RuleGenerationStage(PipelineStage):
    """Step 4 as a pipeline stage: frequent itemsets in, rules out.

    Cacheable — a confidence-only re-mine misses here (the fingerprint
    covers ``effective_min_confidence``) but hits the counting stages,
    so only this stage and the interest filter actually run.
    """

    name = "rule_generation"
    inputs = ("frequent_levels", "mapper", "config")
    outputs = ("rules",)
    cacheable = True
    config_keys = RULEGEN_CONFIG_KEYS

    def run(self, context) -> dict:
        a = context.artifacts
        config = a["config"]
        from .apriori_quant import resolve_target_attribute

        frequent = a["frequent_levels"]
        rules = generate_rules(
            frequent,
            a["mapper"].num_records,
            config.effective_min_confidence,
            target_attribute=resolve_target_attribute(
                a["mapper"], config.target
            ),
            executor=context.executor,
            block_size=config.execution.rule_block_size,
            execution_stats=context.execution_stats,
            tracer=context.tracer,
            span_parent=context.current_span,
            metrics=context.metrics,
        )
        if context.stats is not None:
            context.stats.num_rules = len(rules)
        context.annotate(
            frequent_itemsets=len(frequent.itemsets), rules=len(rules)
        )
        return {"rules": rules}


def _rules_block(payload) -> tuple:
    """Worker: ap-genrules over rows ``[start, stop)`` of the levels of
    size >= 2, taken in order.

    Returns ``(antecedent, consequent, count, confidence)`` arrays, one
    entry per rule: the two sides as indexes into the levels' itemsets
    (level by level), the rule itemset's count and the confidence.
    """
    levels, attribute, start, stop, min_confidence, target = payload
    offsets = np.cumsum([0] + [len(rows) for rows, _ in levels])
    indexes: dict = {}

    def find(size, columns):
        index = indexes.get(size)
        if index is None:
            rows = levels[size - 1][0]
            index = indexes[size] = RowIndex(list(rows.T), len(rows))
        found = index.find(columns, len(columns[0]))
        if (found < 0).any():
            raise KeyError("a rule side is missing from the frequent itemsets")
        return found

    out = []
    first = 0  # row number of the current level's first row
    for rows, counts in levels[1:]:
        lo, hi = max(start - first, 0), min(stop - first, len(rows))
        first += len(rows)
        if lo >= hi:
            continue
        rows, counts = rows[lo:hi], counts[lo:hi]
        k = rows.shape[1]
        if target is None:
            tried = {
                (p,): np.ones(len(rows), dtype=bool) for p in range(k)
            }
            largest = k - 1
        else:
            # Goal-directed: the one admissible consequent is the row's
            # item on the target; consequents are never grown.
            on_target = attribute[rows] == target
            tried = {(p,): on_target[:, p] for p in range(k)}
            largest = 1
        for m in range(1, largest + 1):
            if m > 1:
                tried = {
                    grown: np.logical_and.reduce(
                        [passed[sub] for sub in combinations(grown, m - 1)]
                    )
                    for grown in combinations(range(k), m)
                }
            passed = {}
            for consequent, mask in tried.items():
                at = np.flatnonzero(mask)
                rest = [c for c in range(k) if c not in consequent]
                antecedent = find(k - m, [rows[at, c] for c in rest])
                confidence = counts[at] / levels[k - m - 1][1][antecedent]
                holds = confidence >= min_confidence
                passed[consequent] = np.zeros(len(rows), dtype=bool)
                passed[consequent][at[holds]] = True
                at = at[holds]
                out.append(
                    (
                        offsets[k - m - 1] + antecedent[holds],
                        offsets[m - 1]
                        + find(m, [rows[at, c] for c in consequent]),
                        counts[at],
                        confidence[holds],
                    )
                )
    if not out:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.empty(0)
    return tuple(np.concatenate(part) for part in zip(*out))


def generate_rules(
    frequent,
    num_records: int,
    min_confidence: float,
    *,
    target_attribute: int | None = None,
    executor=None,
    block_size: int | None = None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
) -> list:
    """All rules meeting ``min_confidence`` from the frequent itemsets.

    ``frequent`` is the search's :class:`~repro.core.levels.FrequentLevels`,
    or a mapping from canonical itemsets to absolute support counts,
    which is converted to one; rules inherit minimum support from their
    itemsets being frequent.

    ``target_attribute`` switches on goal-directed output: only rules
    whose consequent is the single item over that attribute are emitted
    — exactly the subsequence of the full output with that consequent
    shape (ap-genrules evaluates every single-item consequent before
    growing any, so no pruning interaction is lost by never growing).

    With a multi-worker ``executor`` (or an explicit ``block_size``) the
    level rows are processed in blocks under the executor; output is
    bit-identical to the serial path either way.
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(
            f"min_confidence must be in [0, 1], got {min_confidence}"
        )
    if num_records <= 0:
        return []
    if not isinstance(frequent, FrequentLevels):
        frequent = FrequentLevels.from_support_counts(frequent)
    levels = [(level.rows, level.counts) for level in frequent.levels]
    eligible = sum(len(rows) for rows, _ in levels[1:])
    # An explicit block size always takes the block path (that is how
    # the equivalence tests exercise it under the serial executor); the
    # derived layout only bothers once the work can amortize payloads.
    if block_size is not None:
        min_work = 1
    else:
        min_work = _MIN_ITEMSETS_TO_FAN_OUT
    fan_out = (
        executor is not None
        and (getattr(executor, "num_workers", 1) > 1 or block_size is not None)
        and eligible >= min_work
    )
    attribute = frequent.catalog.attribute
    if fan_out:
        blocks = plan_blocks(
            range(eligible), getattr(executor, "num_workers", 1), block_size
        )
        payloads = [
            (levels, attribute, block[0], block[-1] + 1, min_confidence,
             target_attribute)
            for block in blocks
        ]
        parts = partitioned_map(
            executor,
            _rules_block,
            payloads,
            stats=execution_stats,
            stage="rule_generation",
            tracer=tracer,
            parent=span_parent,
            metrics=metrics,
        )
    else:
        parts = [
            _rules_block(
                (levels, attribute, 0, eligible, min_confidence,
                 target_attribute)
            )
        ]
    antecedent, consequent, count, confidence = (
        np.concatenate(column) for column in zip(*parts)
    )
    if not len(antecedent):
        return []
    rank = _canonical_ranks(levels)
    order = np.lexsort((rank[consequent], rank[antecedent]))
    return _build_rules(
        frequent.itemsets,
        antecedent[order],
        consequent[order],
        count[order] / num_records,
        confidence[order],
    )


def _canonical_ranks(levels) -> np.ndarray:
    """Each itemset's position in canonical order, itemsets numbered
    level by level: ids padded with -1 sort like the item tuples."""
    width = len(levels)
    total = sum(len(rows) for rows, _ in levels)
    padded = np.full((total, width), -1, dtype=np.int32)
    first = 0
    for size, (rows, _) in enumerate(levels, start=1):
        padded[first:first + len(rows), :size] = rows
        first += len(rows)
    rank = np.empty(total, dtype=np.int64)
    rank[np.lexsort(padded.T[::-1])] = np.arange(total)
    return rank


def _build_rules(itemsets, antecedent, consequent, support, confidence):
    """The rule objects, block by block, sides shared with ``itemsets``."""
    rules: list = []
    for start in range(0, len(antecedent), _BUILD_BLOCK):
        stop = start + _BUILD_BLOCK
        rules.extend(
            map(
                QuantitativeRule,
                [itemsets[i] for i in antecedent[start:stop].tolist()],
                [itemsets[i] for i in consequent[start:stop].tolist()],
                support[start:stop].tolist(),
                confidence[start:stop].tolist(),
            )
        )
    return rules
