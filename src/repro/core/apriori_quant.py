"""The level-wise frequent-itemset search for quantitative rules (Section 5).

Shares boolean Apriori's skeleton: L_1 comes from the frequent-item stage
(values plus merged ranges), each later pass joins, prunes and counts.
Pass 2 is special-cased because its candidate set — the cross product of
frequent items over every attribute pair — can dwarf the surviving L_2;
the counting layer evaluates whole cross products via outer-indexed prefix
sums and materializes only the frequent pairs.

Each pass is a :class:`~repro.engine.stage.PipelineStage` run through the
:class:`~repro.engine.stage.ExecutionEngine`, and its record-linear
counting work fans out over the context's table shards under whichever
executor the configuration selects.  Shard counts merge by integer
addition, so every executor/shard layout produces bit-identical
``support_counts``.
"""

from __future__ import annotations

import numpy as np

from ..engine import (
    ExecutionEngine,
    PipelineStage,
    StageContext,
    plan_shards,
    resolve_executor,
)
from ..engine.shard_cache import ShardCountCache
from ..obs import timeit
from .candidates import generate_candidates
from .config import COUNTING_CONFIG_KEYS, MinerConfig
from .counting import CountingStats, count_frequent_pairs, count_itemsets
from .frequent_items import FrequentItemsStage
from .levels import FrequentLevels, ItemCatalog, Level, RowIndex, expand_ranges
from .mapper import TableMapper
from .stats import ExecutionStats, MiningStats, PassStats


def resolve_target_attribute(mapper: TableMapper, target) -> int | None:
    """Attribute index for a goal-directed target name.

    ``None`` passes through (full mining); unknown names raise a
    ``ValueError`` (the serving layer maps those to HTTP 400s, so the
    schema's ``KeyError`` is converted here).
    """
    if target is None:
        return None
    try:
        return mapper.table.schema.index_of(target)
    except KeyError as exc:
        raise ValueError(str(exc)) from None


class PairPassStage(PipelineStage):
    """Pass 2: cross-product counting over every attribute pair.

    With a goal-directed ``target_attribute`` the pass runs in two
    waves: wave A counts every pair touching the target, and a
    non-target item survives to wave B only when it is frequent
    together with *some* target item — by Apriori, no larger itemset
    containing both it and the target can be frequent otherwise, so
    dropping it loses no target-bearing itemset (and no rule).
    """

    name = "pass_2"
    inputs = (
        "mapper",
        "config",
        "catalog",
        "levels",
        "rangeable",
        "min_count",
        "counting_stats",
        "target_attribute",
    )
    outputs = ("current_level",)

    def run(self, context) -> dict:
        a = context.artifacts
        target = a["target_attribute"]
        with timeit() as timer:
            buckets = a["catalog"].by_attribute()
            if target is None:
                current, num_candidates = self._count_pairs(context, buckets)
            else:
                current, num_candidates = self._count_goal_directed(
                    context, buckets, target
                )
        a["levels"].append(current)
        context.annotate(candidates=num_candidates, frequent=len(current))
        if context.stats is not None:
            context.stats.passes.append(
                PassStats(
                    size=2,
                    num_candidates=num_candidates,
                    num_frequent=len(current),
                    counting_seconds=timer.seconds,
                )
            )
        return {"current_level": current}

    @staticmethod
    def _count_pairs(context, buckets, pair_filter=None):
        a = context.artifacts
        config = a["config"]
        return count_frequent_pairs(
            a["catalog"],
            buckets,
            a["mapper"],
            a["rangeable"],
            a["min_count"],
            memory_budget_bytes=config.memory_budget_bytes,
            stats=a["counting_stats"],
            executor=context.executor,
            shards=context.shards,
            execution_stats=context.execution_stats,
            tracer=context.tracer,
            span_parent=context.current_span,
            metrics=context.metrics,
            shard_cache=context.shard_cache,
            pair_filter=pair_filter,
        )

    def _count_goal_directed(self, context, buckets, target: int):
        """Two waves around the target attribute (see class docstring)."""
        target_pairs, n_target = self._count_pairs(
            context,
            buckets,
            pair_filter=lambda x, y: x == target or y == target,
        )
        viable = target_pairs.rows[
            context.artifacts["catalog"].attribute[target_pairs.rows] != target
        ]
        filtered = {
            attr: ids[np.isin(ids, viable)]
            for attr, ids in buckets.items()
            if attr != target
        }
        filtered = {attr: ids for attr, ids in filtered.items() if len(ids)}
        other_pairs, n_other = self._count_pairs(context, filtered)
        return (
            Level.concat([target_pairs, other_pairs], 2),
            n_target + n_other,
        )


class JoinPassStage(PipelineStage):
    """Pass k >= 3: generic join / prune / count.

    Produces an empty ``current_level`` and ``num_candidates == 0`` when
    the join yields nothing (the driver's stop signal); a pass that did
    count candidates records its own :class:`PassStats` entry.

    Goal-directed mode mirrors pass 2's two waves: target-bearing
    candidates are counted first, and a non-target candidate B is
    counted only when some single target item t makes every k-subset of
    ``B ∪ {t}`` containing t a frequent itemset of this pass — the
    Apriori precondition for B to participate in any frequent
    target-bearing itemset at a later level.
    """

    inputs = (
        "mapper",
        "config",
        "catalog",
        "levels",
        "current_level",
        "rangeable",
        "min_count",
        "counting_stats",
        "target_attribute",
    )
    outputs = ("current_level", "num_candidates")

    def __init__(self, k: int) -> None:
        self.k = k
        self.name = f"pass_{k}"

    def run(self, context) -> dict:
        a = context.artifacts
        target = a["target_attribute"]
        with timeit() as generation:
            candidates = generate_candidates(
                a["catalog"], a["current_level"].rows
            )
        if not len(candidates):
            context.annotate(candidates=0, frequent=0)
            return {
                "current_level": Level.concat([], self.k),
                "num_candidates": 0,
            }
        with timeit() as counting:
            if target is None:
                current = self._count_frequent(context, candidates)
                num_candidates = len(candidates)
            else:
                current, num_candidates = self._count_goal_directed(
                    context, candidates, target
                )
        a["levels"].append(current)
        context.annotate(candidates=num_candidates, frequent=len(current))
        if context.stats is not None:
            context.stats.passes.append(
                PassStats(
                    size=self.k,
                    num_candidates=num_candidates,
                    num_frequent=len(current),
                    generation_seconds=generation.seconds,
                    counting_seconds=counting.seconds,
                )
            )
        return {"current_level": current, "num_candidates": num_candidates}

    @staticmethod
    def _count_frequent(context, candidates) -> Level:
        a = context.artifacts
        config = a["config"]
        counted = count_itemsets(
            a["catalog"],
            candidates,
            a["mapper"],
            a["rangeable"],
            memory_budget_bytes=config.memory_budget_bytes,
            stats=a["counting_stats"],
            executor=context.executor,
            shards=context.shards,
            execution_stats=context.execution_stats,
            tracer=context.tracer,
            span_parent=context.current_span,
            metrics=context.metrics,
            shard_cache=context.shard_cache,
        )
        return counted.select(counted.counts >= a["min_count"])

    def _count_goal_directed(self, context, candidates, target: int):
        """Two waves (see class docstring); returns ``(frequent, counted)``."""
        attribute = context.artifacts["catalog"].attribute
        is_target = attribute[candidates] == target
        has_target = is_target.any(axis=1)
        with_target = candidates[has_target]
        without = candidates[~has_target]
        empty = Level.concat([], self.k)
        freq_target = (
            self._count_frequent(context, with_target)
            if len(with_target)
            else empty
        )
        kept = without[_extendable(freq_target.rows, without, attribute, target)]
        freq_other = (
            self._count_frequent(context, kept) if len(kept) else empty
        )
        return (
            Level.concat([freq_target, freq_other], self.k),
            len(with_target) + len(kept),
        )


def _extendable(target_rows, rows, attribute, target: int) -> np.ndarray:
    """Which ``rows`` B some target item t extends: every k-subset of
    ``B ∪ {t}`` containing t is one of the frequent ``target_rows``."""
    if not len(target_rows) or not len(rows):
        return np.zeros(len(rows), dtype=bool)
    k = rows.shape[1]
    # Each frequent target row as (the rest, t); one item per row is t.
    on_target = attribute[target_rows] == target
    t = target_rows[on_target]
    rest = target_rows[~on_target].reshape(-1, k - 1)
    by_rest = RowIndex(list(rest.T), len(rest))
    pairs = RowIndex(list(rest.T) + [t], len(rest))
    # The t's that extend B's first subset, then the other subsets' test.
    start, stop = by_rest.ranges(list(np.delete(rows, 0, axis=1).T), len(rows))
    owner, slot = expand_ranges(start, stop - start)
    t_of = t[by_rest.order[slot]]
    ok = np.ones(len(owner), dtype=bool)
    for drop in range(1, k):
        subset = list(np.delete(rows[owner], drop, axis=1).T) + [t_of]
        begin, end = pairs.ranges(subset, len(owner))
        ok &= end > begin
    keep = np.zeros(len(rows), dtype=bool)
    keep[owner[ok]] = True
    return keep


class FrequentItemsetSearch(PipelineStage):
    """The full level-wise search as one composite stage.

    Runs :class:`~repro.core.frequent_items.FrequentItemsStage` and then
    the data-dependent sequence of pass stages through the context's
    engine, so every pass shows up in the engine's per-stage timings.
    The passes work on catalog-id arrays; the itemset tuples of
    ``support_counts`` are built once, at the end
    (:class:`~repro.core.levels.FrequentLevels`).

    Cacheable as a whole: a hit restores ``support_counts``,
    ``frequent_items`` and the level arrays rule generation reads
    without running any pass, which is what makes a
    confidence/interest-only re-mine re-enter the pipeline at rule
    generation.  The *inner* pass stages stay uncacheable by design —
    they append to the shared ``levels`` list rather than owning it, so
    skipping one of them individually would corrupt the blackboard.
    """

    name = "frequent_itemsets"
    inputs = ("mapper", "config")
    outputs = ("support_counts", "frequent_items", "frequent_levels")
    cacheable = True
    config_keys = COUNTING_CONFIG_KEYS

    def run(self, context) -> dict:
        a = context.artifacts
        mapper, config = a["mapper"], a["config"]
        engine = context.engine or ExecutionEngine(
            context.executor, context.shards
        )
        # "Rangeable" attributes — quantitative ones plus taxonomy-bearing
        # categorical ones — carry range items and are counted as
        # dimensions of the super-candidates' rectangles; plain
        # categorical attributes form the fixed (mask-matched) part.
        a.setdefault(
            "rangeable",
            {
                attr
                for attr in range(mapper.num_attributes)
                if mapper.mapping(attr).is_rangeable
            },
        )
        a.setdefault("min_count", config.min_support * mapper.num_records)
        a.setdefault("counting_stats", CountingStats())
        a.setdefault(
            "target_attribute",
            resolve_target_attribute(mapper, config.target),
        )

        engine.run_stage(FrequentItemsStage(), context)
        supports = a["frequent_items"].supports
        catalog = ItemCatalog(supports)
        ids = catalog.encode([(item,) for item in supports], 1)
        levels = [Level(ids, np.fromiter(supports.values(), np.int64))]
        a["catalog"], a["levels"] = catalog, levels
        if config.max_itemset_size != 1 and supports:
            engine.run_stage(PairPassStage(), context)
            k = 3
            while len(a["current_level"]) and (
                config.max_itemset_size is None
                or k <= config.max_itemset_size
            ):
                engine.run_stage(JoinPassStage(k), context)
                if a["num_candidates"] == 0:
                    break
                k += 1

        frequent = FrequentLevels(catalog, levels)
        support_counts = frequent.support_counts()
        stats = context.stats
        if stats is not None:
            stats.num_frequent_itemsets = len(support_counts)
            stats.counting_groups_by_backend = dict(
                a["counting_stats"].groups_by_backend
            )
        return {
            "support_counts": support_counts,
            "frequent_items": a["frequent_items"],
            "frequent_levels": frequent,
        }


def build_engine_context(
    mapper: TableMapper,
    config: MinerConfig,
    stats: MiningStats | None = None,
    cache=None,
    observability=None,
):
    """Resolve the configured executor/shard plan into an engine + context.

    The caller owns the executor's lifetime: close
    ``context.executor`` (or use it as a context manager) once the run
    finishes.  When ``stats`` is given, its ``execution`` field is
    populated with the resolved layout.

    ``cache`` is the :class:`~repro.engine.cache.ArtifactCache` the
    engine consults for fingerprinted stages; pass the *same* cache
    across runs (as :class:`~repro.core.miner.QuantitativeMiner` does)
    to make repeated mining incremental.  ``None`` disables caching.

    ``observability`` is a :class:`~repro.obs.Observability` bundle;
    when given, its tracer and metrics registry land on the context so
    every stage, shard task and cache lookup of the run is recorded.
    ``None`` leaves the context on the no-op instruments.
    """
    execution = config.execution
    incremental = config.incremental
    executor = resolve_executor(
        execution.executor, execution.num_workers, remote=config.remote
    )
    shard_size = execution.shard_size
    if incremental.enabled and shard_size is None:
        # Incremental mode needs shard boundaries that survive appends:
        # a worker-derived layout shifts every boundary when the record
        # count grows, dirtying every shard artifact.  A fixed shard
        # size keeps prefix shards byte-stable so only the tail recounts.
        shard_size = incremental.shard_size
    shards = plan_shards(
        mapper.num_records, shard_size, executor.num_workers
    )
    execution_stats = ExecutionStats(
        executor=executor.name,
        num_workers=executor.num_workers,
        num_shards=len(shards),
        shard_size=shard_size,
    )
    if stats is not None:
        stats.execution = execution_stats
    engine = ExecutionEngine(executor, shards, cache=cache)
    metrics = observability.metrics if observability is not None else None
    shard_cache = None
    if incremental.enabled and cache is not None:
        shard_cache = ShardCountCache(cache, metrics=metrics)
    context = StageContext(
        artifacts={"mapper": mapper, "config": config},
        executor=executor,
        shards=shards,
        stats=stats,
        execution_stats=execution_stats,
        engine=engine,
        tracer=observability.tracer if observability is not None else None,
        metrics=metrics,
        shard_cache=shard_cache,
    )
    return engine, context


def find_frequent_itemsets(
    mapper: TableMapper,
    config: MinerConfig,
    stats: MiningStats | None = None,
):
    """Run the full level-wise search.

    Returns ``(support_counts, frequent_items)`` where ``support_counts``
    maps every frequent itemset (canonical item tuple) to its absolute
    support count and ``frequent_items`` is the
    :class:`~repro.core.frequent_items.FrequentItems` stage output (the
    interest measure later needs its per-attribute distributions).

    Convenience wrapper: builds the engine the configuration's
    ``execution`` block describes, runs the search stage and tears the
    executor down.  Callers composing a larger pipeline (the miner) use
    :func:`build_engine_context` and run the stage themselves.
    """
    if stats is None:
        stats = MiningStats()
    engine, context = build_engine_context(mapper, config, stats)
    with context.executor:
        engine.run([FrequentItemsetSearch()], context)
    return (
        context.artifacts["support_counts"],
        context.artifacts["frequent_items"],
    )
