"""Shard-parallel map: run a worker function over partitioned work.

The bridge between the executor layer and the stages' hot paths.  Two
entry points share one trampoline:

- ``sharded_map(executor, view, shards, fn, payload)`` applies
  ``fn(shard_view, payload)`` to each *table shard* (contiguous record
  range) — the record-linear counting surface.
- ``partitioned_map(executor, fn, payloads)`` applies ``fn(payload)``
  to each element of an arbitrary work partition — the surface the rule
  stages fan out through, where work splits by frequent-itemset block
  or attribute-signature group rather than by record range.

Results always come back in task order, so callers get a deterministic
merge for free.  ``fn`` must be a module-level function and payloads
picklable so the same call works under
:class:`~repro.engine.executor.ParallelExecutor`.  Per-task wall-clock
is measured inside the worker and reported to an optional stats sink
via ``stats.record_shards(stage, seconds)`` — the engine stays
duck-typed here so it never imports ``repro.core``.

Shard handoff has two local modes, chosen per dispatch by
:func:`plan_task_views`: ``"zero-copy"`` publishes the table once
through the executor's :class:`~repro.engine.shm.SharedColumnStore` and
ships tiny :class:`~repro.engine.shm.SharedShardView` descriptors, while
``"copied"`` falls back to pickling
:class:`~repro.engine.shards.ShardView` column slices.  An executor
exposing ``map_shards`` (the distributed
:class:`~repro.engine.remote.RemoteExecutor`) takes over the handoff
entirely and reports the third mode, ``"remote"``.  All modes produce
bit-identical results; the mode is reported via
``stats.record_handoff(stage, mode)`` and a ``shard_handoff.<mode>``
metric counter so runs stay diagnosable.
"""

from __future__ import annotations

import math
import time

from ..obs import NULL_METRICS, NULL_TRACER
from .shards import TableShard, shard_view
from .shm import SharedShardView


def _record_task_spans(
    tracer, metrics, stage, parent, results, dispatched, *,
    records=None, lanes=None,
) -> None:
    """Record one ``shard_task`` span + histogram sample per task.

    Workers measure their own wall-clock (they may live in another
    process or on another host, out of the tracer's reach); the
    dispatching side records the measurements post-hoc, on synthetic
    per-task lanes so exporters draw the fan-out as parallel bars.
    ``records`` optionally gives the per-task record counts (table
    shards know theirs); ``lanes`` optionally names each task's lane —
    the remote executor passes ``remote/<host:port>`` per task so an
    exported trace shows which worker served which shard.
    """
    if stage is None:
        return
    if tracer.enabled:
        for i, (_, seconds) in enumerate(results):
            attributes = {"stage": stage, "task": i}
            if records is not None:
                attributes["records"] = records[i]
            if lanes is not None:
                lane = lanes[i]
                attributes["worker"] = lane
            else:
                lane = f"{stage}/task-{i}"
            tracer.record(
                f"{stage}[{i}]",
                "shard_task",
                parent,
                start=dispatched,
                duration=seconds,
                thread=lane,
                **attributes,
            )
    metrics.histogram(f"shard_seconds.{stage}").observe_many(
        seconds for _, seconds in results
    )


def plan_blocks(items, num_workers: int = 1, block_size: int | None = None):
    """Split a work list into deterministic contiguous blocks.

    The work-partition sibling of
    :func:`~repro.engine.shards.plan_shards`: ``block_size`` pins the
    items per block; ``None`` derives two blocks per worker so a fast
    worker steals a second block instead of idling at the barrier.
    Blocks preserve item order, so order-sensitive merges stay
    deterministic.
    """
    items = list(items)
    if block_size is None:
        block_size = max(
            1, math.ceil(len(items) / (max(1, num_workers) * 2))
        )
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return [
        items[start:start + block_size]
        for start in range(0, len(items), block_size)
    ]


def plan_task_views(executor, view, shards, metrics=None):
    """One mapper-compatible view per shard, plus the handoff mode.

    Returns ``(views, mode)`` with ``mode`` one of ``"zero-copy"``
    (descriptor views over the executor's shared column store) or
    ``"copied"`` (today's sliced :class:`ShardView` path).  Zero-copy
    requires a genuine fan-out — at least two shards *and* two workers —
    plus an executor exposing a column store and a view the store can
    publish (i.e. one with a table fingerprint); anything else takes the
    copying path, and a single shard covering the whole table passes the
    view through untouched (the in-process short-circuit never pickles
    it).
    """
    shards = tuple(shards)
    store = executor.column_store() if executor is not None else None
    if (
        store is not None
        and len(shards) > 1
        and getattr(executor, "num_workers", 1) > 1
    ):
        handle = store.publish(view, metrics=metrics)
        if handle is not None:
            views = [
                SharedShardView(handle, shard.start, shard.stop)
                for shard in shards
            ]
            return views, "zero-copy"
    if (
        len(shards) == 1
        and shards[0].start == 0
        and shards[0].stop == view.num_records
    ):
        return [view], "copied"
    return [shard_view(view, shard) for shard in shards], "copied"


def executor_table_view(executor, view, metrics=None):
    """A cheaply picklable full-table view for executor payloads.

    For stages that ship the *whole* table inside each task payload
    (e.g. the interest filter's on-demand support counting), returns a
    :class:`~repro.engine.shm.SharedShardView` descriptor over the
    executor's column store when available, else a full-range copying
    :class:`ShardView`.  Either way the result is mapper-compatible and
    picklable.
    """
    store = executor.column_store() if executor is not None else None
    if store is not None and getattr(executor, "num_workers", 1) > 1:
        handle = store.publish(view, metrics=metrics)
        if handle is not None:
            return SharedShardView(handle, 0, view.num_records)
    return shard_view(view, TableShard(0, view.num_records))


def _run_shard(task):
    """Worker trampoline: unpack one shard task and time it."""
    fn, view, payload = task
    started = time.perf_counter()
    result = fn(view, payload)
    return result, time.perf_counter() - started


def sharded_map(
    executor,
    view,
    shards,
    fn,
    payload,
    *,
    stats=None,
    stage: str | None = None,
    tracer=None,
    parent=None,
    metrics=None,
) -> list:
    """Apply ``fn(shard_view, payload)`` to every shard; shard order kept.

    ``executor=None`` runs in-process (identical to a
    :class:`~repro.engine.executor.SerialExecutor`).  When ``stats`` is
    given, per-shard worker seconds are recorded under ``stage``, plus —
    when the sink exposes ``record_handoff`` — how the shard views
    reached the workers (``"copied"`` vs ``"zero-copy"``, see
    :func:`plan_task_views`).  A ``tracer`` additionally gets one
    ``shard_task`` span per shard (child of ``parent``, worker-measured
    duration) and a ``metrics`` registry a ``shard_seconds.<stage>``
    histogram sample per shard and one ``shard_handoff.<mode>`` count
    per dispatch.
    """
    shards = tuple(shards)
    registry = metrics if metrics is not None else NULL_METRICS
    lanes = remote_info = None
    map_shards = getattr(executor, "map_shards", None)
    dispatched = time.perf_counter()
    if map_shards is not None:
        # A distributed executor owns the whole shard handoff: it
        # publishes the view to its workers itself, so the local
        # zero-copy/copied planning never runs.
        results, handoff, lanes, remote_info = map_shards(
            view, shards, fn, payload, stage=stage, metrics=registry,
            tracer=tracer, parent=parent,
        )
    else:
        views, handoff = plan_task_views(
            executor, view, shards, metrics=registry
        )
        tasks = [(fn, task_view, payload) for task_view in views]
        dispatched = time.perf_counter()
        if executor is None:
            results = [_run_shard(task) for task in tasks]
        else:
            results = executor.map(_run_shard, tasks)
    registry.counter(f"shard_handoff.{handoff}").increment()
    if stats is not None and stage is not None:
        stats.record_shards(stage, [seconds for _, seconds in results])
        record_handoff = getattr(stats, "record_handoff", None)
        if record_handoff is not None:
            record_handoff(stage, handoff)
        record_remote = getattr(stats, "record_remote", None)
        if record_remote is not None and remote_info is not None:
            record_remote(stage, remote_info)
    _record_task_spans(
        tracer if tracer is not None else NULL_TRACER,
        registry,
        stage,
        parent,
        results,
        dispatched,
        records=[shard.num_records for shard in shards],
        lanes=lanes,
    )
    return [result for result, _ in results]


def _run_partition(task):
    """Worker trampoline: unpack one work-partition task and time it."""
    fn, payload = task
    started = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - started


def partitioned_map(
    executor,
    fn,
    payloads,
    *,
    stats=None,
    stage: str | None = None,
    tracer=None,
    parent=None,
    metrics=None,
) -> list:
    """Apply ``fn(payload)`` to every payload; payload order kept.

    The non-record-sharded sibling of :func:`sharded_map`: the caller
    has already partitioned its work (itemset blocks, rule groups) and
    just needs each partition run under the configured executor with
    per-task timing.  ``executor=None`` runs in-process.  ``tracer`` /
    ``parent`` / ``metrics`` behave as in :func:`sharded_map`.
    """
    tasks = [(fn, payload) for payload in payloads]
    dispatched = time.perf_counter()
    if executor is None:
        results = [_run_partition(task) for task in tasks]
    else:
        results = executor.map(_run_partition, tasks)
    if stats is not None and stage is not None:
        stats.record_shards(stage, [seconds for _, seconds in results])
    _record_task_spans(
        tracer if tracer is not None else NULL_TRACER,
        metrics if metrics is not None else NULL_METRICS,
        stage,
        parent,
        results,
        dispatched,
    )
    return [result for result, _ in results]
