"""Unit tests for the staged execution engine (`repro.engine`).

Covers the three engine layers in isolation — executors, record-range
shards, and the stage/engine contract — plus the configuration surface
(`ExecutionConfig`) and the miner-facing integration seams
(`build_engine_context`, `mine_quantitative_rules(executor=...)`,
CLI flags).
"""

import time

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    ExecutionStats,
    MinerConfig,
    QuantitativeMiner,
    mine_quantitative_rules,
)
from repro.core.apriori_quant import build_engine_context
from repro.core.mapper import TableMapper
from repro.engine import (
    ExecutionEngine,
    MemoryCache,
    ParallelExecutor,
    PipelineStage,
    SerialExecutor,
    ShardView,
    StageContext,
    StageError,
    TableShard,
    plan_shards,
    resolve_executor,
    shard_view,
    sharded_map,
)
from repro.obs import Tracer
from repro.table import RelationalTable, TableSchema, categorical, quantitative


def small_table(n=60, seed=0):
    rng = np.random.default_rng(seed)
    schema = TableSchema(
        [
            quantitative("age"),
            quantitative("income"),
            categorical("married", ("yes", "no")),
        ]
    )
    return RelationalTable.from_columns(
        schema,
        [
            rng.integers(20, 70, size=n).astype(float),
            rng.integers(10, 200, size=n).astype(float),
            rng.integers(0, 2, size=n),
        ],
    )


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
class TestShards:
    def test_shards_cover_table_exactly(self):
        shards = plan_shards(100, shard_size=33)
        assert shards[0].start == 0
        assert shards[-1].stop == 100
        for prev, nxt in zip(shards, shards[1:]):
            assert prev.stop == nxt.start
        assert sum(s.num_records for s in shards) == 100

    def test_explicit_shard_size(self):
        shards = plan_shards(10, shard_size=4)
        assert [(s.start, s.stop) for s in shards] == [(0, 4), (4, 8), (8, 10)]

    def test_single_worker_defaults_to_one_shard(self):
        assert plan_shards(1000, num_workers=1) == (TableShard(0, 1000),)

    def test_multi_worker_default_layout_oversubscribes(self):
        shards = plan_shards(1000, num_workers=4)
        # two shards per worker so a fast worker can steal extra work
        assert len(shards) == 8
        assert shards[-1].stop == 1000

    def test_empty_table_yields_one_empty_shard(self):
        assert plan_shards(0) == (TableShard(0, 0),)
        assert plan_shards(0)[0].num_records == 0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            TableShard(-1, 5)
        with pytest.raises(ValueError):
            TableShard(5, 4)

    def test_shard_view_slices_columns(self):
        cols = [np.arange(10), np.arange(10) * 2]
        view = ShardView(cols, [10, 20], 10)
        sub = shard_view(view, TableShard(3, 7))
        assert sub.num_records == 4
        assert sub.num_attributes == 2
        assert list(sub.column(0)) == [3, 4, 5, 6]
        assert list(sub.column(1)) == [6, 8, 10, 12]
        # cardinalities are table-global, not per-shard
        assert sub.cardinality(0) == 10
        assert sub.cardinality(1) == 20


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def _square(x):
    return x * x


class TestExecutors:
    def test_serial_map_preserves_order(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, [3, 1, 2]) == [9, 1, 4]
            assert ex.name == "serial"
            assert ex.num_workers == 1

    def test_parallel_map_preserves_order(self):
        with ParallelExecutor(num_workers=2) as ex:
            assert ex.map(_square, list(range(7))) == [
                x * x for x in range(7)
            ]

    def test_parallel_single_task_short_circuits(self):
        ex = ParallelExecutor(num_workers=2)
        assert ex.map(_square, [5]) == [25]
        assert ex._pool is None  # no pool spawned for one task
        ex.close()

    def test_parallel_close_is_idempotent(self):
        ex = ParallelExecutor(num_workers=2)
        ex.map(_square, [1, 2, 3])
        ex.close()
        ex.close()

    def test_parallel_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(num_workers=0)

    def test_resolve_executor(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        ex = resolve_executor("parallel", 3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.num_workers == 3
        with pytest.raises(ValueError):
            resolve_executor("threads")


# ----------------------------------------------------------------------
# sharded_map
# ----------------------------------------------------------------------
def _sum_first_column(view, offset):
    return int(view.column(0).sum()) + offset


class TestShardedMap:
    def test_results_in_shard_order_and_merge_exactly(self):
        cols = [np.arange(100, dtype=np.int64)]
        view = ShardView(cols, [100], 100)
        shards = plan_shards(100, shard_size=17)
        partial = sharded_map(None, view, shards, _sum_first_column, 0)
        assert sum(partial) == int(np.arange(100).sum())

    def test_payload_reaches_workers(self):
        view = ShardView([np.zeros(4, dtype=np.int64)], [1], 4)
        out = sharded_map(None, view, plan_shards(4, 2), _sum_first_column, 7)
        assert out == [7, 7]

    def test_records_per_shard_seconds(self):
        stats = ExecutionStats(executor="serial", num_workers=1)
        view = ShardView([np.zeros(6, dtype=np.int64)], [1], 6)
        sharded_map(
            None,
            view,
            plan_shards(6, 2),
            _sum_first_column,
            0,
            stats=stats,
            stage="demo",
        )
        assert len(stats.stage_shard_seconds["demo"]) == 3
        assert stats.num_shard_tasks == 3
        assert stats.total_shard_seconds() >= 0.0
        assert stats.total_shard_seconds("demo") == stats.total_shard_seconds()

    def test_executor_and_inprocess_agree(self):
        cols = [np.arange(40, dtype=np.int64)]
        view = ShardView(cols, [40], 40)
        shards = plan_shards(40, shard_size=9)
        direct = sharded_map(None, view, shards, _sum_first_column, 1)
        with ParallelExecutor(num_workers=2) as ex:
            pooled = sharded_map(ex, view, shards, _sum_first_column, 1)
        assert direct == pooled


# ----------------------------------------------------------------------
# Stage / engine contract
# ----------------------------------------------------------------------
class _Producer(PipelineStage):
    name = "producer"
    outputs = ("value",)

    def run(self, context):
        return {"value": 41}


class _Consumer(PipelineStage):
    name = "consumer"
    inputs = ("value",)
    outputs = ("doubled",)

    def run(self, context):
        return {"doubled": context.artifacts["value"] * 2}


class _Liar(PipelineStage):
    name = "liar"
    outputs = ("promised",)

    def run(self, context):
        return {"something_else": 1}


class _Cached(PipelineStage):
    name = "cached"
    outputs = ("value",)
    cacheable = True

    def fingerprint(self, context):
        return "cached-key"

    def run(self, context):
        return {"value": 7}


class _SlowPutCache(MemoryCache):
    """A cache whose writes take far longer than the stage it stores."""

    def put(self, key, value):
        time.sleep(0.05)
        super().put(key, value)


class TestExecutionEngine:
    def test_artifacts_flow_between_stages(self):
        engine = ExecutionEngine()
        context = StageContext()
        artifacts = engine.run([_Producer(), _Consumer()], context)
        assert artifacts["value"] == 41
        assert artifacts["doubled"] == 82
        assert set(engine.stage_seconds) == {"producer", "consumer"}

    def test_missing_input_raises_stage_error(self):
        engine = ExecutionEngine()
        with pytest.raises(StageError, match="missing inputs"):
            engine.run([_Consumer()], StageContext())

    def test_undeclared_output_raises_stage_error(self):
        engine = ExecutionEngine()
        with pytest.raises(StageError, match="declared outputs"):
            engine.run([_Liar()], StageContext())

    def test_stage_seconds_accumulate_over_reruns(self):
        engine = ExecutionEngine()
        context = StageContext()
        first = engine.run_stage(_Producer(), context)
        second = engine.run_stage(_Producer(), context)
        assert engine.stage_seconds["producer"] == pytest.approx(
            first + second
        )

    def test_context_gets_backref_to_engine(self):
        engine = ExecutionEngine()
        context = StageContext()
        engine.run_stage(_Producer(), context)
        assert context.engine is engine

    def test_stage_seconds_cover_the_traced_cache_put(self):
        engine = ExecutionEngine(cache=_SlowPutCache())
        tracer = Tracer()
        seconds = engine.run_stage(_Cached(), StageContext(tracer=tracer))
        spans = tracer.spans()
        (stage,) = [span for span in spans if span.kind == "stage"]
        (put,) = [span for span in spans if span.name == "cache.put"]
        assert stage.attributes["cache"] == "miss"
        assert put.kind == "cache_store"
        assert put.parent_id == stage.span_id
        assert put.attributes["stage"] == "cached"
        assert put.duration >= 0.05
        assert seconds >= put.duration
        assert engine.stage_seconds["cached"] == seconds
        # A hit reads instead of writing: no second put.
        engine.run_stage(_Cached(), StageContext(tracer=tracer))
        assert len([s for s in tracer.spans() if s.name == "cache.put"]) == 1


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestExecutionConfig:
    def test_defaults_are_serial(self):
        cfg = ExecutionConfig()
        assert cfg.executor == "serial"
        assert cfg.resolved_num_workers == 1

    def test_serial_ignores_worker_count(self):
        assert ExecutionConfig(num_workers=8).resolved_num_workers == 1

    def test_parallel_resolves_worker_count(self):
        cfg = ExecutionConfig(executor="parallel", num_workers=3)
        assert cfg.resolved_num_workers == 3
        assert ExecutionConfig(executor="parallel").resolved_num_workers >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(executor="threads")
        with pytest.raises(ValueError):
            ExecutionConfig(num_workers=0)
        with pytest.raises(ValueError):
            ExecutionConfig(shard_size=0)

    def test_miner_config_normalizes_execution(self):
        assert MinerConfig().execution == ExecutionConfig()
        cfg = MinerConfig(execution={"executor": "parallel", "num_workers": 2})
        assert cfg.execution == ExecutionConfig("parallel", 2)
        with pytest.raises(TypeError):
            MinerConfig(execution="parallel")

    def test_flat_overrides_build_execution_block(self):
        table = small_table(40)
        result = mine_quantitative_rules(
            table, min_support=0.3, execution={"shard_size": 11}
        )
        assert result.config.execution.shard_size == 11

    def test_flat_overrides_conflict_with_execution_block(self):
        # The block is the one spelling: an execution field passed flat
        # is an unknown keyword, with or without the block beside it.
        table = small_table(40)
        with pytest.raises(TypeError, match="'executor'"):
            mine_quantitative_rules(
                table,
                executor="parallel",
                execution=ExecutionConfig(),
            )


# ----------------------------------------------------------------------
# Miner integration
# ----------------------------------------------------------------------
class TestMinerIntegration:
    def test_build_engine_context_resolves_config(self):
        table = small_table(50)
        config = MinerConfig(
            min_support=0.3,
            execution=ExecutionConfig(shard_size=13),
        )
        mapper = TableMapper(table, config)
        engine, context = build_engine_context(mapper, config)
        try:
            assert isinstance(context.executor, SerialExecutor)
            assert all(s.num_records <= 13 for s in context.shards)
            assert context.shards[-1].stop == mapper.num_records
            assert context.execution_stats.num_shards == len(context.shards)
        finally:
            context.executor.close()

    def test_parallel_run_matches_serial(self):
        table = small_table(80, seed=3)
        common = dict(min_support=0.25, min_confidence=0.4, interest_level=1.1)
        serial = mine_quantitative_rules(table, **common)
        parallel = mine_quantitative_rules(
            table,
            execution={
                "executor": "parallel", "num_workers": 2, "shard_size": 17
            },
            **common,
        )
        assert parallel.support_counts == serial.support_counts
        assert list(parallel.support_counts) == list(serial.support_counts)
        assert parallel.rules == serial.rules
        assert parallel.interesting_rules == serial.interesting_rules

    def test_stats_report_execution(self):
        table = small_table(60)
        config = MinerConfig(
            min_support=0.3,
            execution=ExecutionConfig(
                executor="parallel", num_workers=2, shard_size=15
            ),
        )
        result = QuantitativeMiner(table, config).mine()
        execution = result.stats.execution
        assert execution is not None
        assert execution.executor == "parallel"
        assert execution.num_workers == 2
        assert execution.num_shards == 4
        assert execution.num_shard_tasks > 0
        summary = result.stats.summary()
        assert "executor:" in summary
        assert "shard task(s)" in summary

    def test_cli_jobs_flag_implies_parallel(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["mine", "x.csv", "--jobs", "4", "--shard-size", "100"]
        )
        assert args.executor == "serial"  # flag default; _run_mine upgrades
        assert args.jobs == 4
        assert args.shard_size == 100

    def test_cli_executor_choices(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "x.csv", "--executor", "gpu"])
