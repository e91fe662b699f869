"""The quantitative association rule miner — the paper's five-step pipeline.

Problem decomposition of Section 2.1:

1. Determine the number of partitions per quantitative attribute
   (partial-completeness level + Equation 2).
2. Map values/intervals to consecutive integers (``TableMapper``).
3. Find frequent items (values and merged ranges), then all frequent
   itemsets (``apriori_quant``).
4. Generate rules (ap-genrules over quantitative itemsets).
5. Keep the interesting rules (greater-than-expected-value measure).

Use :func:`mine_quantitative_rules` for the one-call API or
:class:`QuantitativeMiner` to reuse an encoded table across parameter
sweeps (the benchmark harness does).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..engine import AsyncExecutionEngine, gc_orphaned_shard_artifacts
from ..engine.cache import check_injected_cache
from ..obs import NULL_TRACER
from ..table import RelationalTable
from .apriori_quant import (
    FrequentItemsetSearch,
    build_engine_context,
    resolve_target_attribute,
)
from .config import MinerConfig
from .frequent_items import FrequentItems
from .interest import InterestEvaluator, InterestFilterStage
from .mapper import TableMapper
from .partial_completeness import completeness_from_partitioning
from .rulegen import RuleGenerationStage
from .rules import QuantitativeRule
from .stats import MiningStats


@dataclass
class MiningResult:
    """Everything a mining run produced.

    Attributes
    ----------
    rules:
        All rules meeting minimum support and confidence.
    interesting_rules:
        The subset surviving the interest measure (equal to ``rules`` when
        no interest level was configured).
    support_counts:
        Every frequent itemset with its absolute support count.
    frequent_items:
        The stage-3a output (item supports + per-attribute distributions).
    mapper:
        The encoded table; knows how to render items in raw-value terms.
    stats:
        Counters and timings for the run.
    observability:
        The run's :class:`~repro.obs.Observability` bundle (live tracer
        + metrics registry), or ``None`` when observability was off.
        ``result.observability.tracer.spans()`` is the full trace;
        ``result.observability.timing_report()`` renders it.
    """

    rules: list
    interesting_rules: list
    support_counts: dict
    frequent_items: FrequentItems
    mapper: TableMapper
    stats: MiningStats
    config: MinerConfig | None = None
    observability: object = None

    @property
    def num_records(self) -> int:
        return self.mapper.num_records

    def support(self, itemset) -> float:
        """Fractional support of a frequent itemset (0.0 if not frequent)."""
        count = self.support_counts.get(tuple(sorted(itemset)), 0)
        if self.num_records == 0:
            return 0.0
        return count / self.num_records

    def describe(self, rule: QuantitativeRule) -> str:
        """Render one rule with raw attribute names and value ranges."""
        lhs = self.mapper.describe_itemset(rule.antecedent)
        rhs = self.mapper.describe_itemset(rule.consequent)
        return (
            f"{lhs} => {rhs} "
            f"(sup={rule.support:.1%}, conf={rule.confidence:.1%})"
        )

    def describe_rules(self, rules=None, limit=None) -> str:
        """Multi-line rendering of a rule list (default: interesting).

        Ordered by descending support, then descending confidence, with
        the rule's canonical (antecedent, consequent) identity as the
        final tie-break so equal-metric rules render in a deterministic
        order regardless of how the input list was produced.
        """
        if rules is None:
            rules = self.interesting_rules
        ordered = sorted(
            rules,
            key=lambda r: (-r.support, -r.confidence, r.sort_key()),
        )
        if limit is not None:
            ordered = ordered[:limit]
        return "\n".join(self.describe(r) for r in ordered)

    # ------------------------------------------------------------------
    # Explanation and export
    # ------------------------------------------------------------------
    def explain(self, rule: QuantitativeRule):
        """Why was ``rule`` kept or pruned by the interest measure?

        Returns a :class:`~repro.core.explain.RuleExplanation`; render it
        with ``explanation.render(result.mapper)``.  Requires the result
        to carry its mining configuration (results from
        :class:`QuantitativeMiner` always do).
        """
        if self.config is None:
            raise ValueError(
                "this result carries no MinerConfig; explanation needs the "
                "interest parameters it was mined with"
            )
        from .explain import explain_rule

        evaluator = InterestEvaluator(
            self.support_counts, self.frequent_items, self.mapper, self.config
        )
        return explain_rule(
            rule, self.rules, self.interesting_rules, evaluator
        )

    def save_rules_json(self, path, rules=None) -> None:
        """Write rules (default: interesting) as a JSON document."""
        from .export import save_rules_json

        if rules is None:
            rules = self.interesting_rules
        metadata = {}
        if self.config is not None:
            metadata = {
                "min_support": self.config.min_support,
                "min_confidence": self.config.min_confidence,
                "max_support": self.config.max_support,
                "interest_level": self.config.interest_level,
                "num_records": self.num_records,
            }
        save_rules_json(rules, path, mapper=self.mapper, metadata=metadata)

    def save_rules_csv(self, path, rules=None) -> None:
        """Write rules (default: interesting) as a CSV table."""
        from .export import save_rules_csv

        if rules is None:
            rules = self.interesting_rules
        save_rules_csv(rules, path, mapper=self.mapper)


@dataclass
class AppendReport:
    """What one :meth:`QuantitativeMiner.append` call did.

    Attributes
    ----------
    records_appended:
        How many records the call added.
    num_records:
        Table size after the append.
    repartitioned:
        Whether the live partitioning was rebuilt.  ``False`` means the
        mapper's boundaries (and with them every cached shard artifact)
        were kept; the next :meth:`~QuantitativeMiner.mine` recounts
        only new/dirty shards.
    reason:
        Why a re-partition happened (``None`` when it did not): the
        realized partial-completeness level drifted past its budget, or
        the existing encoding could not absorb the new records (an
        unpartitioned value map met an unseen value).
    realized_completeness:
        The partial-completeness level K measured from the live
        boundaries *after* the append (Equation 1 machinery).
    completeness_budget:
        The K threshold that would have forced (or did force) a
        re-partition.
    artifacts_gc:
        Shard artifacts garbage-collected from the cache because a
        re-partition orphaned their encoding.
    """

    records_appended: int
    num_records: int
    repartitioned: bool
    reason: str | None
    realized_completeness: float
    completeness_budget: float
    artifacts_gc: int = 0


class QuantitativeMiner:
    """Mines quantitative association rules from a relational table.

    Splitting encoding (construction) from mining (:meth:`mine`) lets
    parameter sweeps that only change confidence/interest reuse the same
    partitioning — but note that ``min_support`` and
    ``partial_completeness`` affect the partitioning itself (Equation 2),
    so sweeps over those must construct a fresh miner per point, as the
    module-level convenience function does.

    The miner also owns the artifact cache (built from
    ``config.cache``) and hands it to every :meth:`mine` call, so a
    sweep that only changes ``min_confidence`` or ``interest_level``
    re-enters the pipeline at rule generation against cached
    ``support_counts`` instead of re-counting the table.
    """

    def __init__(
        self,
        table: RelationalTable,
        config: MinerConfig,
        *,
        cache=None,
        observability=None,
        span_parent=None,
    ) -> None:
        check_injected_cache(cache)
        self._table = table
        self._config = config
        self._mapper = TableMapper(table, config)
        # Fail loudly at construction when a goal-directed target names
        # no attribute (rather than deep inside the first pass).
        resolve_target_attribute(self._mapper, config.target)
        #: An explicitly injected cache (the async job runner shares one
        #: across every job's miner) wins over the config-built one for
        #: every run on this miner.
        self._injected_cache = cache
        self._cache = cache if cache is not None else config.cache.build()
        #: Likewise for observability: an injected bundle (the job
        #: runner shares one tracer/registry across concurrent jobs)
        #: wins over the config-built one.
        self._injected_obs = observability
        self._observability = (
            observability
            if observability is not None
            else config.observability.build()
        )
        #: Parent span for this miner's run spans (the job runner passes
        #: its job span so runs nest under their jobs).
        self._span_parent = span_parent
        self._cumulative_stage_seconds: dict = {}
        #: K measured at construction time — the anchor the append
        #: path's drift budget is relative to.
        self._baseline_completeness = self.realized_completeness(
            config.min_support
        )

    @property
    def mapper(self) -> TableMapper:
        return self._mapper

    @property
    def config(self) -> MinerConfig:
        return self._config

    @property
    def cache(self):
        """The artifact cache shared by this miner's runs (or ``None``)."""
        return self._cache

    @property
    def observability(self):
        """The observability bundle this miner's runs record into."""
        return self._observability

    def _cache_for(self, config: MinerConfig):
        """The cache a run with ``config`` should use.

        Runs whose cache configuration matches the construction-time one
        share the miner's cache (that sharing is what makes sweeps
        incremental); a run overriding the cache block gets its own.
        An explicitly injected cache always wins — that is how the async
        job runner makes concurrent jobs share warm stages.
        """
        if self._injected_cache is not None:
            return self._injected_cache
        if config is self._config or config.cache == self._config.cache:
            return self._cache
        return config.cache.build()

    def _obs_for(self, config: MinerConfig):
        """The observability bundle a run with ``config`` records into.

        Same resolution as :meth:`_cache_for`: an injected bundle always
        wins (concurrent jobs then share one tracer, nesting their runs
        in one tree), runs matching the construction-time block share
        the miner's bundle (a sweep accumulates one trace), and a run
        overriding the block gets its own.
        """
        if self._injected_obs is not None:
            return self._injected_obs
        if (
            config is self._config
            or config.observability == self._config.observability
        ):
            return self._observability
        return config.observability.build()

    def mine(self, config: MinerConfig | None = None) -> MiningResult:
        """Run steps 3-5 and return the full result.

        ``config`` overrides the construction-time configuration for this
        run (callers are responsible for keeping partitioning-relevant
        fields unchanged; see the class docstring).

        The three steps run as pipeline stages through the execution
        engine: the executor and shard layout come from
        ``config.execution``, and the engine's per-stage wall-clock lands
        in ``stats.phase_seconds`` under the historical phase names.
        """
        run = self._begin_run(config)
        config, stats, started, engine, context, obs, run_span = run
        try:
            with context.executor:
                engine.run(self._stages(), context)
        except BaseException:
            run_span.finish(error=True)
            raise
        return self._finish_run(
            config, stats, started, engine, context, obs, run_span
        )

    async def mine_async(
        self, config: MinerConfig | None = None, *, progress=None, offload=None
    ) -> MiningResult:
        """Run steps 3-5 off the event loop; awaitable :meth:`mine`.

        Identical semantics and bit-identical output to :meth:`mine` —
        the same stages run through the same engine against the same
        cache; only the driving thread differs (stage work executes on
        ``offload``, a ``concurrent.futures`` executor, or the event
        loop's default pool).  ``progress`` — sync or ``async`` callable
        — receives a :class:`~repro.engine.StageEvent` per completed
        stage, nested level-wise passes included.

        Cancelling the awaiting task takes effect at the next stage
        boundary (threads are uninterruptible); the shared cache stays
        consistent because entries are content-addressed and writes
        complete before cancellation propagates.
        """
        run = self._begin_run(config)
        config, stats, started, engine, context, obs, run_span = run
        async_engine = AsyncExecutionEngine(engine, offload=offload)
        try:
            await async_engine.run(
                self._stages(), context, progress=progress
            )
        except BaseException:
            run_span.finish(error=True)
            raise
        finally:
            context.executor.close()
        return self._finish_run(
            config, stats, started, engine, context, obs, run_span
        )

    @staticmethod
    def _stages() -> list:
        """The pipeline steps 3-5, in order, as fresh stage objects."""
        return [
            FrequentItemsetSearch(),
            RuleGenerationStage(),
            InterestFilterStage(),
        ]

    def _begin_run(self, config: MinerConfig | None):
        """Resolve one run's config, stats, engine, context and run span."""
        config = config or self._config
        stats = MiningStats(
            num_records=self._mapper.num_records,
            num_attributes=self._mapper.num_attributes,
            partitions_per_attribute={
                m.name: m.cardinality for m in self._mapper.mappings
            },
        )
        stats.realized_completeness = self.realized_completeness(
            config.min_support
        )
        started = time.perf_counter()

        obs = self._obs_for(config)
        tracer = obs.tracer if obs is not None else NULL_TRACER
        run_span = tracer.start_span(
            "mine",
            kind="run",
            parent=self._span_parent,
            records=self._mapper.num_records,
            attributes_counted=self._mapper.num_attributes,
            executor=config.execution.executor,
        )
        engine, context = build_engine_context(
            self._mapper,
            config,
            stats,
            cache=self._cache_for(config),
            observability=obs,
        )
        # The run span is the root of this run's stage stack: stages the
        # engine executes nest under it.
        context.span_stack.append(run_span)
        return config, stats, started, engine, context, obs, run_span

    def _finish_run(
        self, config, stats, started, engine, context, obs=None, run_span=None
    ) -> MiningResult:
        """Fold one finished run's artifacts and timings into a result."""
        artifacts = context.artifacts
        stats.phase_seconds["frequent_itemsets"] = engine.stage_seconds[
            "frequent_itemsets"
        ]
        stats.phase_seconds["rule_generation"] = engine.stage_seconds[
            "rule_generation"
        ]
        stats.phase_seconds["interest"] = engine.stage_seconds["interest"]
        # The engine is rebuilt per run, so per-run timings come straight
        # from it while the miner folds them into its own cumulative view
        # (one per stage name across every mine() call on this miner).
        for name, seconds in engine.stage_seconds.items():
            self._cumulative_stage_seconds[name] = (
                self._cumulative_stage_seconds.get(name, 0.0) + seconds
            )
        if stats.execution is not None:
            stats.execution.stage_seconds = dict(engine.stage_seconds)
            stats.execution.cumulative_stage_seconds = dict(
                self._cumulative_stage_seconds
            )
        # The result's objects are assembled here, from the artifacts:
        # the interest stage keeps positions into ``rules``, not rules.
        rules = artifacts["rules"]
        interesting = [
            rules[i] for i in artifacts["interesting_positions"].tolist()
        ]
        # Result-set sizes come from the artifacts, not from inside the
        # stages: a cache hit restores outputs without running the stage,
        # and these counts must be right either way.
        stats.num_frequent_itemsets = len(artifacts["support_counts"])
        stats.num_rules = len(rules)
        stats.num_interesting_rules = len(interesting)

        stats.total_seconds = time.perf_counter() - started
        if run_span is not None:
            if context.span_stack and context.span_stack[-1] is run_span:
                context.span_stack.pop()
            run_span.finish(
                frequent_itemsets=stats.num_frequent_itemsets,
                rules=stats.num_rules,
                interesting_rules=stats.num_interesting_rules,
            )
        if obs is not None:
            self._record_run_metrics(obs, stats)
            obs.export()
        return MiningResult(
            rules=rules,
            interesting_rules=interesting,
            support_counts=artifacts["support_counts"],
            frequent_items=artifacts["frequent_items"],
            mapper=self._mapper,
            stats=stats,
            config=config,
            observability=obs,
        )

    @staticmethod
    def _record_run_metrics(obs, stats) -> None:
        """Fold one run's summary quantities into the metrics registry."""
        metrics = obs.metrics
        metrics.counter("runs.completed").increment()
        metrics.histogram("run_seconds").observe(stats.total_seconds)
        metrics.gauge("run.records").set(stats.num_records)
        metrics.gauge("run.rules").set(stats.num_rules)
        metrics.gauge("run.interesting_rules").set(
            stats.num_interesting_rules
        )
        counting_seconds = sum(p.counting_seconds for p in stats.passes)
        if counting_seconds > 0:
            metrics.gauge("run.rows_counted_per_second").set(
                stats.num_records * len(stats.passes) / counting_seconds
            )
        hits = metrics.counter("cache.hit").value
        misses = metrics.counter("cache.miss").value
        if hits + misses:
            metrics.gauge("cache.hit_ratio").set(hits / (hits + misses))

    def realized_completeness(self, min_support: float) -> float:
        """Equation 1 applied to the realized partitioning.

        Uses the highest support among multi-value base intervals across
        quantitative attributes (measured once per encoding, see
        :meth:`TableMapper.max_multi_value_support`); returns 1.0 (no
        loss) when every interval is a single value.
        """
        num_quantitative = sum(
            1 for m in self._mapper.mappings if m.is_quantitative
        )
        return completeness_from_partitioning(
            self._mapper.max_multi_value_support(),
            min_support,
            num_quantitative,
        )

    def _completeness_budget(self) -> float:
        """The K level past which an append forces a re-partition.

        Anchored at the larger of the construction-time realized K and
        the configured target (a partitioning that starts *better* than
        requested is allowed to drift up to the request), scaled by the
        configured relative drift budget.
        """
        anchor = max(
            self._baseline_completeness, self._config.partial_completeness
        )
        return anchor * (1.0 + self._config.incremental.k_drift_budget)

    def append(self, records) -> AppendReport:
        """Append ``records`` to the table and maintain the encoding.

        The online half of the incremental dataflow.  The table absorbs
        the records in place (existing categorical codes and shard
        bytes are preserved; only the fingerprint tail dirties), then
        the mapper is rebuilt *reusing the live partitionings* so shard
        count artifacts keyed on them stay valid.  The realized
        partial-completeness level K is re-measured on the grown data:
        while it stays within :meth:`_completeness_budget` the kept
        boundaries stand, and the next :meth:`mine` recounts only
        new/dirty shards.  Past the budget — or when the encoding
        cannot absorb the records at all — the partitioning is rebuilt
        from the full data (exactly the cold path) and the orphaned
        shard artifacts are garbage-collected from the cache.
        """
        config = self._config
        shm_parent = None
        if config.incremental.enabled:
            # Captured before the table mutates: the pre-append
            # fingerprint names any still-published shm segment whose
            # prefix the grown table can extend in place.
            shm_parent = (
                self._mapper.fingerprint(),
                self._table.num_records,
            )
        appended = self._table.append(records)
        reason = None
        try:
            self._mapper = TableMapper(
                self._table, config, reuse=self._mapper
            )
        except ValueError as exc:
            reason = f"encoding could not absorb the appended records: {exc}"
        realized = None
        if reason is None:
            realized = self.realized_completeness(config.min_support)
            budget = self._completeness_budget()
            if realized > budget:
                reason = (
                    f"realized completeness {realized:.4g} drifted past "
                    f"the budget {budget:.4g}"
                )
        repartitioned = reason is not None
        removed = 0
        if not repartitioned and shm_parent is not None:
            # Coded prefix preserved: advertise the lineage so a shared
            # column store can tail-fill the parent's segment.
            self._mapper._shm_parent = shm_parent
        if repartitioned:
            self._mapper = TableMapper(self._table, config)
            self._baseline_completeness = self.realized_completeness(
                config.min_support
            )
            realized = self._baseline_completeness
            if config.incremental.enabled and self._cache is not None:
                removed = gc_orphaned_shard_artifacts(
                    self._cache, self._mapper.encoding_fingerprint()
                )
        budget = self._completeness_budget()
        if self._observability is not None:
            metrics = self._observability.metrics
            metrics.counter("incremental.appends").increment()
            metrics.counter("incremental.records_appended").increment(
                appended
            )
            if repartitioned:
                metrics.counter("incremental.repartitions").increment()
            if removed:
                metrics.counter("incremental.artifacts_gc").increment(
                    removed
                )
        return AppendReport(
            records_appended=appended,
            num_records=self._table.num_records,
            repartitioned=repartitioned,
            reason=reason,
            realized_completeness=float(realized),
            completeness_budget=float(budget),
            artifacts_gc=removed,
        )


def _resolve_config(
    config: MinerConfig | None, overrides: dict
) -> MinerConfig:
    """Build the effective config for a one-call mining API."""
    if config is not None:
        if overrides:
            raise TypeError(
                "pass either a MinerConfig or keyword overrides, not both"
            )
        return config
    return MinerConfig(**overrides)


def mine_quantitative_rules(
    table: RelationalTable, config: MinerConfig | None = None, **overrides
) -> MiningResult:
    """One-call API: encode ``table`` and mine with ``config``.

    Keyword overrides build a :class:`MinerConfig` when none is given,
    so they are exactly its fields, e.g.
    ``mine_quantitative_rules(table, min_support=0.2)``.  An operational
    block is passed as its block object or as a dict of its fields:
    ``mine_quantitative_rules(table, execution={"executor": "parallel",
    "num_workers": 4})``.
    """
    config = _resolve_config(config, overrides)
    return QuantitativeMiner(table, config).mine()


async def mine_quantitative_rules_async(
    table: RelationalTable,
    config: MinerConfig | None = None,
    *,
    progress=None,
    offload=None,
    cache=None,
    **overrides,
) -> MiningResult:
    """One-call async API: ``await`` an encode-and-mine of ``table``.

    Accepts the configs and keyword overrides of
    :func:`mine_quantitative_rules` and returns a bit-identical
    :class:`MiningResult`; the pipeline runs off the event loop (table
    encoding and every stage execute on ``offload`` or the loop's
    default thread pool).  ``progress`` receives a
    :class:`~repro.engine.StageEvent` per completed stage.  ``cache`` is
    this function's own parameter, not the config block: it injects a
    shared :class:`~repro.engine.ArtifactCache` so concurrent calls
    reuse each other's warm stages, and the ``cache`` block goes in
    through ``config=``.  See
    :class:`~repro.core.async_miner.MiningJobRunner` for the managed
    version with concurrency limits, timeouts and cancellation.
    """
    import asyncio

    resolved = _resolve_config(config, overrides)
    loop = asyncio.get_running_loop()
    # Table encoding (steps 1-2) is CPU work too; keep it off the loop.
    miner = await loop.run_in_executor(
        offload, lambda: QuantitativeMiner(table, resolved, cache=cache)
    )
    return await miner.mine_async(progress=progress, offload=offload)
