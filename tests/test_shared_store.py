"""Zero-copy shard handoff: descriptors, lifecycle, and leak detection.

The engine's contract after the shared-memory refactor: a parallel
fan-out publishes the coded column matrix once, ships descriptor-only
task payloads (no column data ever pickled), produces bit-identical
results, and unlinks every segment when the executor closes.  A store
dropped with live segments must warn instead of silently leaking.
"""

import gc
import pickle

import numpy as np
import pytest

from repro.core import ExecutionConfig, MinerConfig, QuantitativeMiner, TableMapper
from repro.engine import (
    ParallelExecutor,
    SerialExecutor,
    SharedColumnStore,
    SharedShardView,
    ShardView,
    executor_table_view,
    plan_shards,
    plan_task_views,
    shard_view,
    shared_memory_available,
)
from repro.obs import MetricsRegistry
from repro.table import RelationalTable, TableSchema, categorical, quantitative

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="platform lacks usable POSIX shared memory",
)


def build_mapper(n=20_000, seed=7):
    rng = np.random.default_rng(seed)
    schema = TableSchema(
        [
            quantitative("x"),
            quantitative("y"),
            categorical("c", ("a", "b")),
        ]
    )
    table = RelationalTable.from_columns(
        schema,
        [
            rng.integers(0, 8, n).astype(float),
            rng.integers(0, 8, n).astype(float),
            rng.integers(0, 2, n),
        ],
    )
    return TableMapper(
        table,
        MinerConfig(min_support=0.1, num_partitions={"x": 8, "y": 8}),
    )


class TestDescriptorPayloads:
    def test_parallel_tasks_pickle_no_column_data(self):
        """Acceptance: task submission ships descriptors, not columns."""
        mapper = build_mapper()
        executor = ParallelExecutor(num_workers=2)
        try:
            shards = plan_shards(mapper.num_records, num_workers=2)
            views, mode = plan_task_views(executor, mapper, shards)
            assert mode == "zero-copy"
            assert all(isinstance(v, SharedShardView) for v in views)
            task = (None, views[0], ("payload",))
            descriptor_bytes = len(pickle.dumps(task))
            assert descriptor_bytes < 1024, descriptor_bytes
            copied_bytes = len(
                pickle.dumps((None, shard_view(mapper, shards[0]), ()))
            )
            assert descriptor_bytes < copied_bytes / 100
        finally:
            executor.close()

    def test_descriptor_roundtrip_matches_slices(self):
        mapper = build_mapper(n=1_000)
        executor = ParallelExecutor(num_workers=2)
        try:
            shards = plan_shards(mapper.num_records, num_workers=2)
            views, _ = plan_task_views(executor, mapper, shards)
            for shard, view in zip(shards, views):
                clone = pickle.loads(pickle.dumps(view))
                assert clone.num_records == shard.num_records
                assert clone.num_attributes == mapper.num_attributes
                for a in range(mapper.num_attributes):
                    np.testing.assert_array_equal(
                        clone.column(a),
                        mapper.column(a)[shard.start:shard.stop],
                    )
                    assert clone.cardinality(a) == mapper.cardinality(a)
        finally:
            executor.close()

    def test_serial_executor_copies(self):
        mapper = build_mapper(n=500)
        shards = plan_shards(mapper.num_records, shard_size=100)
        views, mode = plan_task_views(SerialExecutor(), mapper, shards)
        assert mode == "copied"
        assert all(isinstance(v, ShardView) for v in views)

    def test_single_full_table_shard_passes_view_through(self):
        mapper = build_mapper(n=500)
        shards = plan_shards(mapper.num_records)
        views, mode = plan_task_views(None, mapper, shards)
        assert mode == "copied"
        assert views == [mapper]

    def test_shared_memory_opt_out_copies(self):
        mapper = build_mapper(n=500)
        executor = ParallelExecutor(num_workers=2, use_shared_memory=False)
        try:
            assert executor.column_store() is None
            shards = plan_shards(mapper.num_records, num_workers=2)
            views, mode = plan_task_views(executor, mapper, shards)
            assert mode == "copied"
            assert all(isinstance(v, ShardView) for v in views)
        finally:
            executor.close()

    def test_executor_table_view_is_descriptor_under_parallel(self):
        mapper = build_mapper(n=2_000)
        executor = ParallelExecutor(num_workers=2)
        try:
            view = executor_table_view(executor, mapper)
            assert isinstance(view, SharedShardView)
            assert view.num_records == mapper.num_records
            assert len(pickle.dumps(view)) < 1024
            serial_view = executor_table_view(SerialExecutor(), mapper)
            assert isinstance(serial_view, ShardView)
        finally:
            executor.close()


class TestStoreLifecycle:
    def test_publish_cached_per_fingerprint(self):
        mapper = build_mapper(n=300)
        store = SharedColumnStore()
        try:
            first = store.publish(mapper)
            second = store.publish(mapper)
            assert first is second
            assert len(store) == 1
        finally:
            store.close()

    def test_close_unlinks_segments(self):
        from multiprocessing import shared_memory

        mapper = build_mapper(n=300)
        store = SharedColumnStore()
        handle = store.publish(mapper)
        assert handle is not None
        released = store.close()
        assert released == 1
        assert store.close() == 0  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.segment)

    def test_publish_declines_views_without_fingerprint(self):
        mapper = build_mapper(n=300)
        plain = shard_view(mapper, plan_shards(mapper.num_records)[0])
        store = SharedColumnStore()
        try:
            assert store.publish(plain) is None
        finally:
            store.close()

    def test_dropped_store_warns_and_counts_leak(self):
        from multiprocessing import shared_memory

        mapper = build_mapper(n=300)
        metrics = MetricsRegistry()
        store = SharedColumnStore(metrics=metrics)
        handle = store.publish(mapper)
        with pytest.warns(ResourceWarning, match="still published"):
            del store
            gc.collect()
        assert metrics.counter("shm.segments_leaked").value == 1
        # The backstop still released the segment.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.segment)

    def test_publish_metrics(self):
        mapper = build_mapper(n=300)
        metrics = MetricsRegistry()
        store = SharedColumnStore()
        store.publish(mapper, metrics=metrics)
        store.close()
        assert metrics.counter("shm.segments_published").value == 1
        assert metrics.counter("shm.segments_released").value == 1
        assert metrics.counter("shm.bytes_published").value >= (
            mapper.num_attributes * mapper.num_records * 8
        )


class TestEndToEnd:
    def test_parallel_mine_zero_copy_and_identical(self):
        rng = np.random.default_rng(3)
        n = 400
        schema = TableSchema(
            [
                quantitative("x"),
                quantitative("y"),
                categorical("c", ("a", "b", "d")),
            ]
        )
        table = RelationalTable.from_columns(
            schema,
            [
                rng.integers(0, 10, n).astype(float),
                rng.integers(0, 10, n).astype(float),
                rng.integers(0, 3, n),
            ],
        )

        def mine(execution, budget=MinerConfig().memory_budget_bytes):
            config = MinerConfig(
                min_support=0.15,
                min_confidence=0.3,
                memory_budget_bytes=budget,
                execution=execution,
            )
            return QuantitativeMiner(table, config).mine()

        pool = ExecutionConfig(executor="parallel", num_workers=2)
        reference = mine(ExecutionConfig())
        parallel = mine(pool)
        # Budget 0: every group on the R*-tree over the shared views.
        parallel_rtree = mine(pool, budget=0)
        for result in (parallel, parallel_rtree):
            assert result.support_counts == reference.support_counts
            assert list(result.support_counts) == list(
                reference.support_counts
            )
            assert result.rules == reference.rules

        execution = parallel.stats.execution
        assert execution.shard_handoff == "zero-copy"
        assert "zero-copy" in execution.stage_handoff.values()
        assert reference.stats.execution.shard_handoff == "copied"
        assert "zero-copy handoff" in parallel.stats.summary()
        assert parallel.stats.counting_groups_by_backend.get("array", 0) > 0
        assert (
            parallel_rtree.stats.counting_groups_by_backend.get("rtree", 0)
            > 0
        )
        assert "rtree=" in parallel_rtree.stats.summary()
