"""Frequent item (range/value) generation — Step 3, first half (Section 2.1).

For every attribute, find the support of each mapped value.  For
quantitative attributes additionally combine *adjacent* values into ranges
as long as the combined support stays within the user's maximum support;
a single value/interval above the cap is still considered.  The surviving
values and ranges with minimum support are the frequent items from which
all longer itemsets are grown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.shard_cache import sharded_map_cached
from ..engine.stage import PipelineStage
from ..obs import timeit
from .config import FREQUENT_ITEMS_CONFIG_KEYS, SUPPORT_AND_CONFIDENCE
from .items import Item
from .mapper import TableMapper
from .stats import PassStats


@dataclass
class AttributeCounts:
    """Per-attribute value distribution used throughout the miner.

    ``counts[v]`` is the number of records with mapped value ``v``;
    ``cumulative`` is its exclusive prefix sum, so the support count of the
    range ``[lo, hi]`` is ``cumulative[hi + 1] - cumulative[lo]`` in O(1).
    """

    counts: np.ndarray
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.cumulative = np.concatenate(
            ([0], np.cumsum(self.counts, dtype=np.int64))
        )

    def range_count(self, lo: int, hi: int) -> int:
        return int(self.cumulative[hi + 1] - self.cumulative[lo])


@dataclass
class FrequentItems:
    """The frequent items plus the distributions needed later.

    Attributes
    ----------
    supports:
        Mapping from frequent :class:`Item` to absolute support count.
        Includes single values and (for quantitative attributes) merged
        ranges.
    attribute_counts:
        One :class:`AttributeCounts` per attribute, indexed by schema
        position — these give the exact probability of *any* item (not
        just frequent ones), which the interest measure's expectation
        formulas require.
    num_records:
        Table size, for converting counts to fractions.
    pruned_by_interest:
        Items removed by the Lemma 5 interest prune (support > 1/R), kept
        for reporting.
    """

    supports: dict
    attribute_counts: list
    num_records: int
    pruned_by_interest: list = field(default_factory=list)

    def support(self, item: Item) -> float:
        """Fractional support of *any* item over these attributes (O(1))."""
        if self.num_records == 0:
            return 0.0
        count = self.attribute_counts[item.attribute].range_count(
            item.lo, item.hi
        )
        return count / self.num_records

    def items(self) -> list:
        """The frequent items, sorted canonically."""
        return sorted(self.supports)


def _histogram_shard(view, _payload):
    """Shard worker: one value histogram per attribute on this shard."""
    return [
        np.bincount(view.column(a), minlength=view.cardinality(a)).astype(
            np.int64
        )
        for a in range(view.num_attributes)
    ]


def attribute_histograms(
    mapper: TableMapper,
    *,
    executor=None,
    shards=None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
    shard_cache=None,
) -> list:
    """Per-attribute value counts, optionally sharded over records.

    Per-shard histograms are integer vectors summed elementwise, so any
    shard layout reproduces the single-pass ``np.bincount`` exactly.
    """
    if (executor is None and shards is None) or not shards:
        return [
            np.bincount(
                mapper.column(a), minlength=mapper.cardinality(a)
            ).astype(np.int64)
            for a in range(mapper.num_attributes)
        ]
    per_shard = sharded_map_cached(
        shard_cache,
        executor,
        mapper,
        shards,
        _histogram_shard,
        None,
        stats=execution_stats,
        stage="item_histograms",
        tracer=tracer,
        parent=span_parent,
        metrics=metrics,
    )
    merged = per_shard[0]
    for shard_counts in per_shard[1:]:
        merged = [m + s for m, s in zip(merged, shard_counts)]
    return merged


def find_frequent_items(
    mapper: TableMapper,
    min_support: float,
    max_support: float,
    interest_level: float = 0.0,
    prune_by_interest: bool = False,
    *,
    executor=None,
    shards=None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
    shard_cache=None,
) -> FrequentItems:
    """Generate all frequent items of the mapped table.

    Parameters
    ----------
    mapper:
        The encoded table.
    min_support, max_support:
        Fractional thresholds; ranges spanning more than one mapped value
        are only generated while their combined support is at most
        ``max_support`` (Section 1.2's \"ExecTime\" mitigation).
    interest_level, prune_by_interest:
        When pruning is enabled (interest level R specified and the user
        wants support *and* confidence above expectation), quantitative
        items with fractional support above ``1/R`` are deleted at the end
        of the first pass (Lemma 5); candidate generation then never
        builds an itemset containing them.
    """
    n = mapper.num_records
    min_count = min_support * n
    max_count = max_support * n

    histograms = attribute_histograms(
        mapper,
        executor=executor,
        shards=shards,
        execution_stats=execution_stats,
        tracer=tracer,
        span_parent=span_parent,
        metrics=metrics,
        shard_cache=shard_cache,
    )
    supports: dict = {}
    attribute_counts: list = []
    for a in range(mapper.num_attributes):
        mapping = mapper.mapping(a)
        counts = histograms[a]
        dist = AttributeCounts(counts)
        attribute_counts.append(dist)

        # Single values (categorical and quantitative alike).  A lone
        # value above max_support is still considered (Section 1.2).
        for v in range(mapping.cardinality):
            count = int(counts[v])
            if count >= min_count:
                supports[Item(a, v, v)] = count

        if mapping.taxonomy is not None:
            # Categorical values combine only along the taxonomy: each
            # interior node is a contiguous leaf-code range (Section 1.1's
            # [SA95] pointer).  The max-support cap applies as for
            # quantitative ranges.
            for lo, hi in mapping.taxonomy.combinable_ranges():
                count = dist.range_count(lo, hi)
                if min_count <= count <= max_count:
                    supports[Item(a, lo, hi)] = count
            continue

        if not mapping.is_quantitative:
            continue

        # Ranges over adjacent values: extend each start while the
        # combined support stays within the cap.
        cardinality = mapping.cardinality
        for lo in range(cardinality):
            for hi in range(lo + 1, cardinality):
                count = dist.range_count(lo, hi)
                if count > max_count:
                    break  # support only grows with hi; stop combining
                if count >= min_count:
                    supports[Item(a, lo, hi)] = count

    result = FrequentItems(supports, attribute_counts, n)
    if prune_by_interest and interest_level > 1.0:
        rangeable = {
            a
            for a in range(mapper.num_attributes)
            if mapper.mapping(a).is_rangeable
        }
        _interest_prune(result, interest_level, rangeable)
    return result


class FrequentItemsStage(PipelineStage):
    """Pass 1 of the level-wise search as a pipeline stage.

    Produces the frequent items (values + merged ranges), the level-wise
    search's L_1.  The per-attribute histogram scan — the only
    record-linear part of this pass — runs sharded under the context's
    executor.

    Cacheable: the outputs are a pure function of the encoded table and
    the declared config fields (note ``item_prune_interest_level``
    rather than ``interest_level`` — the interest level only reaches
    items through the Lemma 5 prune).
    """

    name = "frequent_items"
    inputs = ("mapper", "config")
    outputs = ("frequent_items",)
    cacheable = True
    config_keys = FREQUENT_ITEMS_CONFIG_KEYS

    def run(self, context) -> dict:
        mapper = context.artifacts["mapper"]
        config = context.artifacts["config"]
        prune = (
            config.interest_enabled
            and config.interest_mode == SUPPORT_AND_CONFIDENCE
        )
        with timeit() as timer:
            freq_items = find_frequent_items(
                mapper,
                config.min_support,
                config.max_support,
                interest_level=config.effective_interest_level,
                prune_by_interest=prune,
                executor=context.executor,
                shards=context.shards,
                execution_stats=context.execution_stats,
                tracer=context.tracer,
                span_parent=context.current_span,
                metrics=context.metrics,
                shard_cache=context.shard_cache,
            )
        num_frequent = len(freq_items.supports)
        context.annotate(
            frequent_items=num_frequent,
            items_pruned_by_interest=len(freq_items.pruned_by_interest),
        )
        stats = context.stats
        if stats is not None:
            stats.items_pruned_by_interest = len(
                freq_items.pruned_by_interest
            )
            stats.passes.append(
                PassStats(
                    size=1,
                    num_candidates=sum(
                        mapper.cardinality(a)
                        for a in range(mapper.num_attributes)
                    ),
                    num_frequent=num_frequent,
                    counting_seconds=timer.seconds,
                )
            )
        return {"frequent_items": freq_items}


def _interest_prune(
    result: FrequentItems, interest_level: float, rangeable: set
) -> None:
    """Delete over-supported rangeable items (Lemma 5).

    Such an item's itemsets can never be R-interesting on support w.r.t.
    the generalization replacing it by the attribute's full range, so in
    support-and-confidence mode they are safely removed up front.  The
    proof's generalization widens the item to the attribute's full range,
    which exists for quantitative attributes and for taxonomy-bearing
    categorical ones (the root); plain categorical values are spared.
    """
    threshold = result.num_records / interest_level
    pruned = [
        item
        for item in result.supports
        if item.attribute in rangeable
        and result.supports[item] > threshold
    ]
    for item in pruned:
        del result.supports[item]
    result.pruned_by_interest = pruned
