"""The greater-than-expected-value interest measure (Section 4).

Combining adjacent intervals makes most mined rules small variations of
one another (the "ManyRules" problem).  The interest measure keeps a rule
only when it deviates from what its more general relatives already imply:

* The **expected** support of an itemset Z, given a generalization Ẑ, is
  ``Pr(Ẑ) * Π_i Pr(z_i) / Pr(ẑ_i)`` — i.e. assume Z's share of Ẑ follows
  the independent per-attribute value distribution.  Expected confidence
  projects the consequent the same way.
* A rule is R-interesting w.r.t. an ancestor when its support or
  confidence (or both, in ``support_and_confidence`` mode) reaches R
  times the expectation, **and** the specialization condition on its
  itemset holds: every frequent specialization whose region difference is
  itself an itemset must leave an R-interesting remainder.  The latter is
  the final measure's fix for Figure 6's "Decoy" ranges.

  (The paper words the final rule measure as "(sup OR conf deviates) AND
  itemset X∪Y is R-interesting", but the itemset measure repeats the
  support test, which would collapse the OR onto support alone; we read
  the itemset conjunct as contributing its specialization condition,
  keeping the OR meaningful.  DESIGN.md records this interpretation.)
* A rule is interesting *in a rule set S* when it has no ancestors in S,
  or it is R-interesting w.r.t. every close ancestor among its
  interesting ancestors.  Rules are evaluated most-general-first so every
  ancestor's verdict precedes its descendants'; because the maximal
  ancestors of any rule have no ancestors themselves (ancestry is
  transitive) and are therefore interesting, "has ancestors" and "has
  interesting ancestors" coincide, letting the scan consult only the
  (small) interesting set.

Rule sets here run to the hundreds of thousands (that is the point of the
measure), so the group scan is vectorized: rules sharing an attribute
signature become numpy bound/probability matrices, processed in batches
of equal generality (equal total range width — rules of equal generality
cannot be each other's ancestors).

Groups are mutually independent — ancestry never crosses an attribute
signature — so the filter also fans out by *blocks of signature groups*
through :func:`~repro.engine.sharded.partitioned_map`.  Workers receive a
picklable full-table view of the mapper; blocks merge in block order and
the final canonical sort keeps the output bit-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..engine.sharded import executor_table_view, partitioned_map, plan_blocks
from ..engine.stage import PipelineStage
from .config import (
    INTEREST_CONFIG_KEYS,
    SUPPORT_AND_CONFIDENCE,
    MinerConfig,
)
from .counting import PrefixSumCounter
from .frequent_items import FrequentItems
from .items import Item, attributes_of
from .levels import RowIndex, expand_ranges
from .mapper import TableMapper

#: Fan the interest filter out only past this many signature groups —
#: each task ships the full support dictionary and frequent-item
#: distributions, which a few small groups cannot amortize.
_MIN_GROUPS_TO_FAN_OUT = 8


class InterestFilterStage(PipelineStage):
    """Step 5 as a pipeline stage: keep the interesting rules.

    Cacheable — the fingerprint covers the interest level, mode and
    specialization toggle, so an interest-only sweep re-runs exactly
    this stage against cached rules.  Its output is the positions of
    the kept rules in ``rules``, not a second copy of them; the miner
    picks the rules out when it assembles the result.
    """

    name = "interest"
    inputs = ("rules", "support_counts", "frequent_items", "mapper", "config")
    outputs = ("interesting_positions",)
    cacheable = True
    config_keys = INTEREST_CONFIG_KEYS

    def run(self, context) -> dict:
        a = context.artifacts
        config = a["config"]
        evaluator = InterestEvaluator(
            a["support_counts"], a["frequent_items"], a["mapper"], config
        )
        interesting = evaluator.filter_rules(
            a["rules"],
            executor=context.executor,
            block_size=config.execution.rule_block_size,
            execution_stats=context.execution_stats,
            tracer=context.tracer,
            span_parent=context.current_span,
            metrics=context.metrics,
        )
        if context.stats is not None:
            context.stats.num_interesting_rules = len(interesting)
        context.annotate(
            rules_in=len(a["rules"]),
            rules_out=len(interesting),
            pruned_by_interest=len(a["rules"]) - len(interesting),
        )
        return {"interesting_positions": evaluator.kept_positions}


_EPS = 1e-9

#: Skip the prefix-sum cache for signatures whose cell count would exceed
#: this; fall back to per-itemset record scans instead.
_COUNTER_CELL_LIMIT = 4_000_000

#: Cells of one chunk's (chunk x interesting) ancestor matrix.
_CHUNK_CELLS = 8_000_000

#: Expanded (ancestor, ancestor) pairs per close-ancestor slice.  A pair
#: holds about four int64 words where an ancestor-matrix cell holds one
#: byte, so this keeps the slice's working set within the chunk's.
_CLOSE_PAIRS_PER_SLICE = _CHUNK_CELLS // 32


def beats_expectation(actual, expected, r):
    """The measure's one comparison: ``actual`` reaches ``r`` times
    ``expected``, up to a 1e-9 tolerance for float noise.

    Scalars or numpy arrays.  The filter and
    :func:`~repro.core.explain.explain_rule` both decide through it, so
    they agree at ties.
    """
    return actual + _EPS >= r * expected


@dataclass
class InterestStats:
    """Bookkeeping for reporting and tests.

    ``deviation_tests`` counts (rule, close ancestor) pairs whose support
    and confidence were compared with their expectations.
    ``specialization_checks`` counts (rule, close ancestor, expressible
    difference) comparisons: every difference of every rule that passed
    all its deviation tests, against each of its close ancestors.
    ``on_demand_supports`` counts the itemsets (mostly difference boxes)
    whose support was counted from the table instead of read from the
    frequent itemsets; a box needed again in a later chunk or group is
    counted again.
    """

    rules_total: int = 0
    rules_interesting: int = 0
    deviation_tests: int = 0
    specialization_checks: int = 0
    on_demand_supports: int = 0

    @property
    def fraction_interesting(self) -> float:
        if self.rules_total == 0:
            return 0.0
        return self.rules_interesting / self.rules_total


class InterestEvaluator:
    """Evaluates R-interest for itemsets and rules against one dataset.

    Parameters
    ----------
    support_counts:
        All frequent itemsets with absolute support counts.
    frequent_items:
        Stage-3a output; its per-attribute distributions give the exact
        probability of any single item in O(1).
    mapper:
        The encoded table, needed to count difference itemsets on demand
        (they are usually not frequent, hence absent from
        ``support_counts`` — "the difference need not have minimum
        support").
    config:
        Supplies R, the support/confidence mode and whether the
        specialization check is applied.
    """

    def __init__(
        self,
        support_counts: dict,
        frequent_items: FrequentItems,
        mapper: TableMapper,
        config: MinerConfig,
    ) -> None:
        self._supports = support_counts
        self._freq = frequent_items
        self._mapper = mapper
        self._config = config
        self._n = mapper.num_records
        self.stats = InterestStats()
        # Frequent itemsets by attribute signature (only same-signature
        # itemsets can be specializations of one another), built on the
        # first specialization search.
        self._members: dict | None = None
        self._bounds: dict = {}
        self._join_indexes: dict = {}
        self._counters: dict = {}
        self._support_cache: dict = {}

    # ------------------------------------------------------------------
    # Probabilities and expectations
    # ------------------------------------------------------------------
    def item_probability(self, item) -> float:
        """Pr of a single item, exact for any range over the attribute."""
        return self._freq.support(item)

    def itemset_support(self, itemset) -> float:
        """Fractional support, from the frequent set or counted on demand."""
        count = self._supports.get(itemset)
        if count is not None:
            return count / self._n
        cached = self._support_cache.get(itemset)
        if cached is None:
            lo, hi = _itemset_bounds(itemset)
            supports = self._box_supports(attributes_of(itemset), lo, hi)
            cached = self._support_cache[itemset] = float(supports[0])
        return cached

    def _box_supports(self, sig: tuple, lo: np.ndarray, hi: np.ndarray):
        """Fractional supports of (m, k) boxes over ``sig``, counted from
        the table: one prefix-sum lookup for all of them, or one record
        scan per box when the signature's joint table is too large."""
        self.stats.on_demand_supports += len(lo)
        if self._n == 0 or not len(lo):
            return np.zeros(len(lo))
        counter = self._counter_for(sig)
        if counter is not None:
            return counter.count_rects(lo, hi) / self._n
        columns = [self._mapper.column(a) for a in sig]
        counts = np.empty(len(lo), dtype=np.int64)
        for row in range(len(lo)):
            mask = np.ones(self._n, dtype=bool)
            for column, low, high in zip(columns, lo[row], hi[row]):
                mask &= (column >= low) & (column <= high)
            counts[row] = np.count_nonzero(mask)
        return counts / self._n

    def _counter_for(self, attrs: tuple):
        """Cached prefix-sum counter over an attribute tuple, or ``None``
        when the joint table would be too large."""
        counter = self._counters.get(attrs, False)
        if counter is not False:
            return counter
        cells = 1
        for a in attrs:
            cells *= self._mapper.cardinality(a)
        counter = (
            PrefixSumCounter(self._mapper, attrs)
            if cells <= _COUNTER_CELL_LIMIT
            else None
        )
        self._counters[attrs] = counter
        return counter

    def _projection(self, itemset, generalization) -> float:
        """``Π_i Pr(z_i) / Pr(ẑ_i)`` over corresponding items."""
        ratio = 1.0
        for z, z_hat in zip(itemset, generalization):
            p_hat = self.item_probability(z_hat)
            if p_hat == 0.0:
                return 0.0  # degenerate generalization; nothing expected
            ratio *= self.item_probability(z) / p_hat
        return ratio

    def expected_support(self, itemset, generalization) -> float:
        """E_{Pr(Ẑ)}[Pr(Z)] of Section 4."""
        return self._projection(itemset, generalization) * self.itemset_support(
            generalization
        )

    def expected_confidence(self, rule, ancestor) -> float:
        """E[Pr(Y | X)] based on the ancestor rule (consequents aligned)."""
        return (
            self._projection(rule.consequent, ancestor.consequent)
            * ancestor.confidence
        )

    # ------------------------------------------------------------------
    # Itemset-level interest
    # ------------------------------------------------------------------
    def itemset_r_interesting(self, itemset, generalization) -> bool:
        """The final itemset measure of Section 4.

        Support must be at least R times expectation, and every frequent
        specialization whose difference from ``itemset`` is expressible as
        an itemset must leave an R-interesting remainder.
        """
        r = self._config.effective_interest_level
        if not self._support_exceeds(itemset, generalization, r):
            return False
        if not self._config.apply_specialization_check:
            return True
        return self.specialization_condition(itemset, generalization)

    def specialization_condition(self, itemset, generalization) -> bool:
        """The final measure's specialization-difference requirement.

        For every frequent specialization X' of ``itemset`` such that
        ``itemset - X'`` is itself an itemset, the difference must be
        R-interesting (on support) w.r.t. ``generalization``.
        """
        return self.failing_difference(itemset, generalization) is None

    def failing_difference(self, itemset, generalization):
        """The first expressible difference of ``itemset`` that is not
        R-interesting w.r.t. ``generalization``, or ``None``.

        A one-row call into the filter's batched check, so a single
        verdict (and :func:`~repro.core.explain.explain_rule`) is decided
        by the same code as the whole rule set.
        """
        sig = attributes_of(itemset)
        lo, hi = _itemset_bounds(itemset)
        first, d_lo, d_hi = self._specialization_failures(
            sig,
            lo,
            hi,
            np.zeros(1, dtype=np.int64),
            np.array([[self.item_probability(z) for z in generalization]]),
            np.array([self.itemset_support(generalization)]),
        )
        if first[0] < 0:
            return None
        return _as_itemset(sig, d_lo[first[0]], d_hi[first[0]])

    def _expressible_differences(self, itemset) -> tuple:
        """``X - X'`` for every frequent specialization X' of ``itemset``
        with an expressible (single-box) difference, in the order the
        specialization check tests them."""
        sig = attributes_of(itemset)
        lo, hi = _itemset_bounds(itemset)
        _, d_lo, d_hi = self._differences(sig, lo, hi)
        return tuple(
            _as_itemset(sig, d_lo[t], d_hi[t]) for t in range(len(d_lo))
        )

    def _support_exceeds(self, itemset, generalization, r) -> bool:
        expected = self.expected_support(itemset, generalization)
        return beats_expectation(self.itemset_support(itemset), expected, r)

    # ------------------------------------------------------------------
    # Batched specialization search
    # ------------------------------------------------------------------
    def _frequent_bounds(self, sig: tuple) -> tuple:
        """``(lo, hi)`` bound arrays of the frequent itemsets over ``sig``,
        rows in ``support_counts`` order."""
        bounds = self._bounds.get(sig)
        if bounds is not None:
            return bounds
        if self._members is None:
            self._members = {}
            for itemset in self._supports:
                self._members.setdefault(attributes_of(itemset), []).append(
                    itemset
                )
        members = self._members.get(sig, ())
        # One flat pass over every (attribute, lo, hi) field.
        fields = np.fromiter(
            chain.from_iterable(chain.from_iterable(members)),
            dtype=np.int64,
            count=3 * len(sig) * len(members),
        ).reshape(len(members), len(sig), 3)
        bounds = self._bounds[sig] = (fields[:, :, 1], fields[:, :, 2])
        return bounds

    def _join_index(self, sig: tuple, j: int) -> "RowIndex":
        """The frequent itemsets over ``sig`` keyed by every position but
        ``j``."""
        index = self._join_indexes.get((sig, j))
        if index is None:
            lo, hi = self._frequent_bounds(sig)
            index = RowIndex(_columns_except(lo, hi, j), len(lo))
            self._join_indexes[(sig, j)] = index
        return index

    def _differences(self, sig: tuple, x_lo, x_hi) -> tuple:
        """Every expressible difference ``X - X'`` of each row X of
        ``(x_lo, x_hi)``, X' ranging over the frequent itemsets.

        ``X - X'`` is a single box only when X' equals X on every
        position but one, j, and shares one endpoint of X's range there:
        a join on "every position but j" finds those X', and the
        remainder of X's range at j is the difference.  Distinct X' give
        distinct differences, so nothing needs deduplicating.

        Returns ``(owner, lo, hi)``: difference t is the box
        ``(lo[t], hi[t])`` of row ``owner[t]``, ordered by owner, then j,
        then X' in ``support_counts`` order.
        """
        f_lo, f_hi = self._frequent_bounds(sig)
        owners, d_los, d_his = [], [], []
        for j in range(len(sig)):
            index = self._join_index(sig, j)
            start, stop = index.ranges(
                _columns_except(x_lo, x_hi, j), len(x_lo)
            )
            q, pos = expand_ranges(start, stop - start)
            f = index.order[pos]
            lo_j, hi_j = f_lo[f, j], f_hi[f, j]
            x_lo_j, x_hi_j = x_lo[q, j], x_hi[q, j]
            # X' keeps X's lower end and stops short: the remainder is
            # above it; or X' keeps the upper end: the remainder is below.
            above = (lo_j == x_lo_j) & (hi_j < x_hi_j)
            below = (hi_j == x_hi_j) & (lo_j > x_lo_j)
            keep = above | below
            q = q[keep]
            d_lo, d_hi = x_lo[q], x_hi[q]
            d_lo[:, j] = np.where(above[keep], hi_j[keep] + 1, x_lo_j[keep])
            d_hi[:, j] = np.where(above[keep], x_hi_j[keep], lo_j[keep] - 1)
            owners.append(q)
            d_los.append(d_lo)
            d_his.append(d_hi)
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        return (
            owner[order],
            np.concatenate(d_los)[order],
            np.concatenate(d_his)[order],
        )

    def _specialization_failures(
        self, sig: tuple, x_lo, x_hi, pair_x, z_prob, z_sup
    ) -> tuple:
        """The specialization check for a batch of (X, Ẑ) pairs.

        ``(x_lo, x_hi)`` hold itemsets X over ``sig``; pair p tests X row
        ``pair_x[p]`` against a generalization with item probabilities
        ``z_prob[p]`` and support ``z_sup[p]``.  Every difference of
        every pair is counted in one call and tested in one shot.

        Returns ``(first, d_lo, d_hi)``: ``first[p]`` is the row of
        ``(d_lo, d_hi)`` holding pair p's first failing difference, or -1
        when all of them leave an R-interesting remainder.
        """
        r = self._config.effective_interest_level
        owner, d_lo, d_hi = self._differences(sig, x_lo, x_hi)
        d_sup = self._box_supports(sig, d_lo, d_hi)
        d_prob = _range_probabilities(self._freq, sig, d_lo, d_hi)
        per_x = np.bincount(owner, minlength=len(x_lo))
        test_pair, test_diff = expand_ranges(
            (np.cumsum(per_x) - per_x)[pair_x], per_x[pair_x]
        )
        self.stats.specialization_checks += len(test_pair)
        # Π_i Pr(d_i) / Pr(ẑ_i) multiplied in _projection's order, so
        # each expectation is the scalar path's float.
        ratio = np.ones(len(test_pair))
        degenerate = np.zeros(len(test_pair), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(len(sig)):
                p_hat = z_prob[test_pair, i]
                degenerate |= p_hat == 0.0
                ratio *= d_prob[test_diff, i] / p_hat
        ratio[degenerate] = 0.0
        ok = beats_expectation(
            d_sup[test_diff], ratio * z_sup[test_pair], r
        )
        first = np.full(len(pair_x), -1, dtype=np.int64)
        failed = np.flatnonzero(~ok)
        # Tests run pair by pair in difference order: a pair's first
        # failed test is its first failing difference.
        pairs, at = np.unique(test_pair[failed], return_index=True)
        first[pairs] = test_diff[failed[at]]
        return first, d_lo, d_hi

    def filter_rules(
        self,
        rules,
        *,
        executor=None,
        block_size: int | None = None,
        execution_stats=None,
        tracer=None,
        span_parent=None,
        metrics=None,
    ) -> list:
        """Return the rules that are interesting within ``rules``.

        Each attribute-signature group is processed most-general-first in
        batches of equal generality.  Per chunk of a batch, ancestor
        containment, close-ancestor minimality, the deviation tests and
        the specialization check of the deviation survivors each run as
        array operations over the whole chunk.

        Groups are independent of one another, so with a multi-worker
        ``executor`` (or an explicit ``block_size``) blocks of groups run
        under the executor via :func:`~repro.engine.sharded.partitioned_map`;
        the merged, canonically sorted output is bit-identical to the
        serial path.  The kept rules' positions in ``rules``, in the
        returned order, are left in :attr:`kept_positions`.
        """
        self.stats.rules_total = len(rules)
        if not self._config.interest_enabled:
            self.stats.rules_interesting = len(rules)
            self.kept_positions = np.arange(len(rules))
            return list(rules)

        groups: dict = {}
        for position, rule in enumerate(rules):
            groups.setdefault(rule.attribute_signature(), []).append(position)
        group_list = [
            (positions, [rules[i] for i in positions])
            for positions in groups.values()
        ]

        # Mirror the rule-generation fan-out policy: an explicit block
        # size always takes the block path, the derived layout only once
        # there are enough groups to amortize the per-task payload.
        if block_size is not None:
            min_work = 1
        else:
            min_work = _MIN_GROUPS_TO_FAN_OUT
        fan_out = (
            executor is not None
            and (
                getattr(executor, "num_workers", 1) > 1
                or block_size is not None
            )
            and len(group_list) >= min_work
        )

        kept: list = []
        if fan_out:
            # A full-table view is mapper-compatible and picklable, which
            # is all the worker-side evaluator needs for on-demand
            # (difference itemset) support counting; under a parallel
            # executor it is a zero-copy shared-memory descriptor rather
            # than a per-payload copy of every column.
            view = executor_table_view(executor, self._mapper)
            blocks = plan_blocks(
                group_list, getattr(executor, "num_workers", 1), block_size
            )
            payloads = [
                (block, self._supports, self._freq, view, self._config)
                for block in blocks
            ]
            for block_kept, worker_stats in partitioned_map(
                executor,
                _interest_block,
                payloads,
                stats=execution_stats,
                stage="interest",
                tracer=tracer,
                parent=span_parent,
                metrics=metrics,
            ):
                kept.extend(block_kept)
                self.stats.deviation_tests += worker_stats.deviation_tests
                self.stats.specialization_checks += (
                    worker_stats.specialization_checks
                )
                self.stats.on_demand_supports += (
                    worker_stats.on_demand_supports
                )
        else:
            for positions, group in group_list:
                kept.extend(self._filter_group(positions, group))
        kept.sort(key=lambda i: rules[i].sort_key())
        self.kept_positions = np.array(kept, dtype=np.int64)
        self.stats.rules_interesting = len(kept)
        return [rules[i] for i in kept]

    # ------------------------------------------------------------------
    # Group machinery
    # ------------------------------------------------------------------
    def _filter_group(self, positions: list, group: list) -> list:
        """The positions of ``group``'s interesting rules; ``positions``
        numbers the rules of ``group``."""
        arrays = _build_group_arrays(positions, group, self._freq)
        return _GroupFilter(self, arrays).run()


@dataclass
class _GroupArrays:
    """Numpy view of one attribute-signature group of rules."""

    positions: np.ndarray  # the rules' numbers, by descending generality
    lo: np.ndarray  # (G, k) all item lower bounds (antecedent + consequent)
    hi: np.ndarray  # (G, k)
    probs: np.ndarray  # (G, k) per-item probabilities
    sup: np.ndarray  # (G,)
    conf: np.ndarray  # (G,)
    generality: np.ndarray  # (G,) descending
    num_antecedent: int
    #: The rules' itemset attributes, sorted, and the column order that
    #: lays ``lo``/``hi``/``probs`` out in that (itemset) order.
    itemset_signature: tuple
    itemset_order: np.ndarray


def _build_group_arrays(positions: list, group: list, freq) -> _GroupArrays:
    k1 = len(group[0].antecedent)
    k = k1 + len(group[0].consequent)
    # One flat pass over every (attribute, lo, hi) field, antecedent
    # items first.
    fields = np.fromiter(
        chain.from_iterable(
            chain.from_iterable(r.antecedent + r.consequent for r in group)
        ),
        dtype=np.int64,
        count=3 * k * len(group),
    ).reshape(len(group), k, 3)
    lo, hi = fields[:, :, 1], fields[:, :, 2]
    sup = np.fromiter((r.support for r in group), np.float64, len(group))
    conf = np.fromiter((r.confidence for r in group), np.float64, len(group))
    # Column j always holds the same attribute within a signature group.
    attributes = fields[0, :, 0].tolist()
    probs = _range_probabilities(freq, attributes, lo, hi)
    generality = (hi - lo + 1).sum(axis=1)
    # Most-general-first; stable, so the caller's deterministic rule order
    # breaks ties.
    order = np.argsort(-generality, kind="stable")
    itemset_order = np.argsort(attributes)
    return _GroupArrays(
        np.asarray(positions)[order],
        lo[order],
        hi[order],
        probs[order],
        sup[order],
        conf[order],
        generality[order],
        k1,
        tuple(attributes[i] for i in itemset_order),
        itemset_order,
    )


class _GroupFilter:
    """Runs the interesting-rule recursion over one group."""

    def __init__(self, evaluator: InterestEvaluator, arrays: _GroupArrays):
        self._ev = evaluator
        self._a = arrays
        self._interesting: list = []  # row indices, generality descending

    def run(self) -> list:
        a = self._a
        start = 0
        g = len(a.positions)
        while start < g:
            stop = start
            while stop < g and a.generality[stop] == a.generality[start]:
                stop += 1
            self._process_batch(start, stop)
            start = stop
        return a.positions[self._interesting].tolist()

    def _process_batch(self, start: int, stop: int) -> None:
        if not self._interesting:
            self._interesting.extend(range(start, stop))
            return
        a = self._a
        # Rules within a batch share one generality, so none is another's
        # ancestor: the interesting set can be frozen for the whole batch
        # and its bound matrices hoisted out of the chunk loop.
        idx = np.array(self._interesting, dtype=np.int64)
        interesting_lo = a.lo[idx]
        interesting_hi = a.hi[idx]
        # Chunk so the (chunk x I) working matrices stay modest.
        chunk = max(1, _CHUNK_CELLS // max(1, len(idx)))
        newly_interesting: list = []
        for lo in range(start, stop, chunk):
            self._process_chunk(
                lo,
                min(lo + chunk, stop),
                idx,
                interesting_lo,
                interesting_hi,
                newly_interesting,
            )
        self._interesting.extend(newly_interesting)

    def _process_chunk(
        self, start, stop, idx, interesting_lo, interesting_hi, out
    ) -> None:
        a = self._a
        batch = np.arange(start, stop)
        # anc[b, i]: interesting rule idx[i] is an ancestor of batch rule
        # b.  Built dimension by dimension to keep intermediates 2-D.
        # Equal bounds cannot occur: the interesting set has strictly
        # greater generality than the batch.
        k = a.lo.shape[1]
        anc = interesting_lo[:, 0][None, :] <= a.lo[batch, 0][:, None]
        anc &= interesting_hi[:, 0][None, :] >= a.hi[batch, 0][:, None]
        for d in range(1, k):
            anc &= interesting_lo[:, d][None, :] <= a.lo[batch, d][:, None]
            anc &= interesting_hi[:, d][None, :] >= a.hi[batch, d][:, None]

        # (rule, ancestor) pairs, rule by rule, ancestors in idx order.
        rows, cols = np.nonzero(anc)
        num_ancestors = np.bincount(rows, minlength=len(batch))
        out.extend((batch[num_ancestors == 0]).tolist())
        if not len(rows):
            return

        close = _close_pairs(
            rows, cols, num_ancestors, interesting_lo, interesting_hi
        )
        pair_offset = rows[close]
        pair_rule = batch[pair_offset]
        pair_ancestor = idx[cols[close]]
        # A rule passes when it passes against every close ancestor:
        # count each rule's failed pairs.
        failed = ~self._deviation_ok(pair_rule, pair_ancestor)
        passed = (num_ancestors > 0) & (
            np.bincount(pair_offset[failed], minlength=len(batch)) == 0
        )
        if self._ev._config.apply_specialization_check and passed.any():
            survivor = passed[pair_offset]
            failed = ~self._specialization_ok(
                pair_rule[survivor], pair_ancestor[survivor]
            )
            passed &= (
                np.bincount(
                    pair_offset[survivor][failed], minlength=len(batch)
                )
                == 0
            )
        out.extend(batch[passed].tolist())

    def _deviation_ok(self, rule_rows, ancestor_rows) -> np.ndarray:
        """Vectorized deviation test for (rule, ancestor) row pairs."""
        a = self._a
        ev = self._ev
        ev.stats.deviation_tests += len(rule_rows)
        r = ev._config.effective_interest_level
        ratio = a.probs[rule_rows] / a.probs[ancestor_rows]
        expected_sup = a.sup[ancestor_rows] * ratio.prod(axis=1)
        sup_ok = beats_expectation(a.sup[rule_rows], expected_sup, r)
        conf_ratio = ratio[:, a.num_antecedent:].prod(axis=1)
        expected_conf = a.conf[ancestor_rows] * conf_ratio
        conf_ok = beats_expectation(a.conf[rule_rows], expected_conf, r)
        if ev._config.interest_mode == SUPPORT_AND_CONFIDENCE:
            return sup_ok & conf_ok
        return sup_ok | conf_ok

    def _specialization_ok(self, rule_rows, ancestor_rows) -> np.ndarray:
        """Specialization check for (rule, ancestor) row pairs.

        The rules' itemsets are X and the ancestors' itemsets Ẑ; an
        ancestor rule's support is its itemset's support.
        """
        a = self._a
        order = a.itemset_order
        rules, pair_x = np.unique(rule_rows, return_inverse=True)
        first, _, _ = self._ev._specialization_failures(
            a.itemset_signature,
            a.lo[rules][:, order],
            a.hi[rules][:, order],
            pair_x,
            a.probs[ancestor_rows][:, order],
            a.sup[ancestor_rows],
        )
        return first < 0


def _close_pairs(rows, cols, num_ancestors, lo, hi) -> np.ndarray:
    """Mask over (rule, ancestor) pairs: True where the ancestor is close.

    ``rows``/``cols`` list each rule's ancestors, rule by rule, as rows of
    ``lo``/``hi``; ``num_ancestors[r]`` is rule r's count m.  An ancestor
    is close when it contains no other ancestor of the same rule — then
    nothing sits between it and the rule.  Each rule's m ancestors expand
    into their m² ordered pairs, tested for containment together, in
    slices of at most ``_CLOSE_PAIRS_PER_SLICE`` pairs.
    """
    first = np.cumsum(num_ancestors) - num_ancestors
    partners = num_ancestors[rows]  # m of each pair's rule
    ends = np.cumsum(partners)
    anc_lo, anc_hi = lo[cols], hi[cols]
    not_close = np.zeros(len(rows), dtype=bool)
    t0 = 0
    while t0 < len(rows):
        budget = (ends[t0 - 1] if t0 else 0) + _CLOSE_PAIRS_PER_SLICE
        t1 = max(t0 + 1, int(np.searchsorted(ends, budget, "right")))
        p, q = expand_ranges(first[rows[t0:t1]], partners[t0:t1])
        p += t0
        # contains: ancestor p's box holds ancestor q's (q != p).
        contains = p != q
        for d in range(lo.shape[1]):
            contains &= anc_lo[p, d] <= anc_lo[q, d]
            contains &= anc_hi[p, d] >= anc_hi[q, d]
        not_close[p[contains]] = True
        t0 = t1
    return ~not_close


def _columns_except(lo: np.ndarray, hi: np.ndarray, j: int) -> list:
    """Key columns of "every position but j": each other item's bounds."""
    return [
        bound[:, c]
        for c in range(lo.shape[1])
        if c != j
        for bound in (lo, hi)
    ]


def _range_probabilities(freq, attributes, lo, hi) -> np.ndarray:
    """Pr of every item of (m, k) bound arrays, column d over
    ``attributes[d]``: ``FrequentItems.support``, straight from the
    cumulative distributions."""
    n = max(1, freq.num_records)
    probs = np.empty(lo.shape, dtype=np.float64)
    for d, attribute in enumerate(attributes):
        cum = freq.attribute_counts[attribute].cumulative
        probs[:, d] = (cum[hi[:, d] + 1] - cum[lo[:, d]]) / n
    return probs


def _itemset_bounds(itemset) -> tuple:
    """One itemset as (1, k) ``lo`` and ``hi`` arrays."""
    return (
        np.array([[item.lo for item in itemset]], dtype=np.int64),
        np.array([[item.hi for item in itemset]], dtype=np.int64),
    )


def _as_itemset(sig: tuple, lo, hi) -> tuple:
    """One row of bound arrays over ``sig`` as an itemset."""
    return tuple(
        Item(attribute, int(low), int(high))
        for attribute, low, high in zip(sig, lo, hi)
    )


def _interest_block(payload) -> tuple:
    """Worker: filter one block of attribute-signature groups.

    Builds a private evaluator over the shipped full-table view and runs
    the group machinery on its block only; returns the kept rules'
    positions (in group order) plus the worker's counters for merging.
    """
    groups, support_counts, frequent_items, view, config = payload
    evaluator = InterestEvaluator(support_counts, frequent_items, view, config)
    kept: list = []
    for positions, group in groups:
        kept.extend(evaluator._filter_group(positions, group))
    return kept, evaluator.stats


def filter_interesting_rules(
    rules,
    support_counts,
    frequent_items,
    mapper,
    config,
    *,
    executor=None,
    block_size: int | None = None,
    execution_stats=None,
):
    """Convenience wrapper: build an evaluator and filter in one call."""
    evaluator = InterestEvaluator(
        support_counts, frequent_items, mapper, config
    )
    kept = evaluator.filter_rules(
        rules,
        executor=executor,
        block_size=block_size,
        execution_stats=execution_stats,
    )
    return kept, evaluator.stats
