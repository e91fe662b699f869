"""The asyncio front end: bit-identity, cancellation, timeouts, sharing.

The async API is a scheduling layer over the same staged engine, so its
core contract is the sync one's: for every executor and cache backend,
``await mine_quantitative_rules_async(...)`` must be bit-identical to
``mine_quantitative_rules(...)`` — rules, interesting rules, and support
counts including dict insertion order.  On top of that the job runner
promises clean cancellation (pool slot released, shared cache left
consistent), per-job timeouts, and cache sharing across concurrent jobs.

No pytest-asyncio in the container, so every test drives its own loop
via ``asyncio.run``.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CacheConfig,
    ExecutionConfig,
    MinerConfig,
    MiningJobCancelled,
    MiningJobRunner,
    MiningJobTimeout,
    mine_quantitative_rules,
    mine_quantitative_rules_async,
)
from repro.core.async_miner import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_TIMED_OUT,
)
from repro.engine import MemoryCache, StageEvent
from repro.table import RelationalTable, TableSchema, categorical, quantitative


def build_table(x_values, c_values):
    schema = TableSchema(
        [quantitative("x"), categorical("c", ("a", "b", "d"))]
    )
    return RelationalTable.from_columns(
        schema,
        [
            np.array(x_values, dtype=float),
            np.array(c_values, dtype=np.int64) % 3,
        ],
    )


def small_table():
    return build_table(list(range(30)), [v % 3 for v in range(30)])


def assert_identical(actual, expected):
    """The full bit-identity contract, including dict insertion order."""
    assert actual.rules == expected.rules
    assert actual.interesting_rules == expected.interesting_rules
    assert actual.support_counts == expected.support_counts
    assert list(actual.support_counts) == list(expected.support_counts)


class TestAsyncMatchesSync:
    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    @pytest.mark.parametrize("backend", ["none", "memory", "disk"])
    def test_every_executor_cache_combination(
        self, executor, backend, tmp_path
    ):
        if backend == "none":
            cache = CacheConfig(enabled=False)
        elif backend == "memory":
            cache = CacheConfig()
        else:
            cache = CacheConfig(backend="disk", directory=str(tmp_path))
        config = MinerConfig(
            min_support=0.2,
            min_confidence=0.4,
            interest_level=1.1,
            execution=ExecutionConfig(executor=executor, num_workers=2),
            cache=cache,
        )
        table = small_table()
        sync_result = mine_quantitative_rules(table, config)
        async_result = asyncio.run(
            mine_quantitative_rules_async(table, config)
        )
        assert_identical(async_result, sync_result)

    @given(
        x=st.lists(
            st.integers(min_value=0, max_value=50), min_size=12, max_size=40
        ),
        min_conf=st.sampled_from([0.3, 0.5, 0.7]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_bit_identical(self, x, min_conf):
        table = build_table(x, [v % 3 for v in range(len(x))])
        config = MinerConfig(
            min_support=0.2, min_confidence=min_conf, interest_level=1.1
        )
        sync_result = mine_quantitative_rules(table, config)
        async_result = asyncio.run(
            mine_quantitative_rules_async(table, config)
        )
        assert_identical(async_result, sync_result)

    def test_flat_overrides_match_sync_path(self):
        # Blocks go in as dicts; not ``cache``, which on the async call
        # is the injected ArtifactCache.
        table = small_table()
        overrides = dict(min_support=0.2, execution={"shard_size": 16})
        sync_result = mine_quantitative_rules(table, **overrides)
        async_result = asyncio.run(
            mine_quantitative_rules_async(table, **overrides)
        )
        assert_identical(async_result, sync_result)

    def test_conflicting_async_overrides_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            asyncio.run(
                mine_quantitative_rules_async(
                    small_table(), MinerConfig(), min_support=0.3
                )
            )


class TestProgressEvents:
    def test_sync_callback_sees_every_stage(self):
        events = []

        async def run():
            return await mine_quantitative_rules_async(
                small_table(),
                MinerConfig(min_support=0.2, interest_level=1.1),
                progress=events.append,
            )

        result = asyncio.run(run())
        assert result.support_counts
        assert all(isinstance(e, StageEvent) for e in events)
        stages = [e.stage for e in events]
        # Nested passes report through the same hook as top-level stages.
        assert "frequent_items" in stages
        assert "frequent_itemsets" in stages
        assert "rule_generation" in stages
        assert "interest" in stages
        assert all(
            e.cache_event in ("hit", "miss", "skipped") for e in events
        )

    def test_async_callback_awaited(self):
        events = []

        async def progress(event):
            await asyncio.sleep(0)
            events.append(event.stage)

        async def run():
            return await mine_quantitative_rules_async(
                small_table(),
                MinerConfig(min_support=0.2),
                progress=progress,
            )

        asyncio.run(run())
        assert "rule_generation" in events


class TestJobRunner:
    def config(self, **kwargs):
        base = dict(min_support=0.2, min_confidence=0.4, interest_level=1.1)
        base.update(kwargs)
        return MinerConfig(**base)

    def test_sweep_results_bit_identical_to_sync(self):
        table = small_table()
        configs = [
            self.config(min_confidence=c) for c in (0.3, 0.5, 0.7)
        ]
        expected = [mine_quantitative_rules(table, c) for c in configs]

        async def run():
            async with MiningJobRunner(max_concurrent_jobs=3) as runner:
                return await runner.run_sweep(table, configs)

        results = asyncio.run(run())
        for actual, want in zip(results, expected):
            assert_identical(actual, want)

    def test_serialized_jobs_share_warm_cache(self):
        # With the concurrency bound at 1 the jobs run back to back, so
        # cache accounting is deterministic: the first job misses every
        # cacheable stage, and each later job re-hits the
        # confidence-independent frequent_itemsets artifact.
        table = small_table()
        configs = [
            self.config(min_confidence=c) for c in (0.3, 0.5, 0.7)
        ]

        async def run():
            async with MiningJobRunner(
                max_concurrent_jobs=1, cache=MemoryCache()
            ) as runner:
                await runner.run_sweep(table, configs)
                return runner.stats

        stats = asyncio.run(run())
        assert stats.submitted == stats.completed == 3
        assert stats.cache_hits == 2
        per_job = sorted(j.cache_hits for j in stats.jobs)
        assert per_job == [0, 1, 1]

    def test_concurrent_jobs_complete_and_account(self):
        table = small_table()
        configs = [self.config(min_confidence=c) for c in (0.3, 0.5)]

        async def run():
            async with MiningJobRunner(max_concurrent_jobs=2) as runner:
                jobs = [runner.submit(table, c) for c in configs]
                results = [await job.wait() for job in jobs]
                return runner.stats, jobs, results

        stats, jobs, results = asyncio.run(run())
        assert [j.status for j in jobs] == [JOB_COMPLETED] * 2
        assert stats.completed == 2
        assert stats.cancelled == stats.failed == stats.timed_out == 0
        assert len(stats.jobs) == 2
        assert all(j.seconds >= 0 for j in stats.jobs)
        assert all(r.support_counts for r in results)

    def test_cancellation_mid_stage_releases_slot_and_cache(self):
        table = build_table(
            list(range(120)), [v % 3 for v in range(120)]
        )
        config = self.config()
        expected = mine_quantitative_rules(table, config)
        cache = MemoryCache()

        async def run():
            async with MiningJobRunner(
                max_concurrent_jobs=1, cache=cache
            ) as runner:
                victim = runner.submit(table, config)
                assert victim.cancel()
                with pytest.raises(MiningJobCancelled):
                    await victim.wait()
                assert victim.status == JOB_CANCELLED
                assert victim.done

                # The pool slot and the shared cache both survive: a
                # follow-up job on the same runner completes normally
                # and is still bit-identical to the sync run.
                survivor = runner.submit(table, config)
                result = await survivor.wait()
                assert survivor.status == JOB_COMPLETED
                return runner.stats, result

        stats, result = asyncio.run(run())
        assert stats.cancelled == 1
        assert stats.completed == 1
        assert_identical(result, expected)

    def test_cancel_while_running_stops_later_stages(self):
        table = build_table(
            list(range(120)), [v % 3 for v in range(120)]
        )
        config = self.config()
        events = []

        async def run():
            async with MiningJobRunner(max_concurrent_jobs=1) as runner:
                job = None

                def progress(event):
                    events.append(event.stage)
                    if len(events) == 1:
                        job.cancel()

                job = runner.submit(table, config, progress=progress)
                with pytest.raises(MiningJobCancelled):
                    await job.wait()
                return job

        job = asyncio.run(run())
        assert job.status == JOB_CANCELLED
        # The cancel landed at a stage boundary: the interest filter
        # (the last stage) never ran.
        assert "interest" not in events

    def test_timeout_marks_job_timed_out(self):
        table = build_table(
            list(range(200)), [v % 3 for v in range(200)]
        )

        async def run():
            async with MiningJobRunner(max_concurrent_jobs=1) as runner:
                job = runner.submit(
                    table, self.config(), timeout=1e-6
                )
                with pytest.raises(MiningJobTimeout):
                    await job.wait()
                return runner.stats, job

        stats, job = asyncio.run(run())
        assert job.status == JOB_TIMED_OUT
        assert stats.timed_out == 1
        assert stats.completed == 0

    def test_runner_default_timeout_applies(self):
        table = build_table(
            list(range(200)), [v % 3 for v in range(200)]
        )

        async def run():
            async with MiningJobRunner(
                max_concurrent_jobs=1, job_timeout=1e-6
            ) as runner:
                job = runner.submit(table, self.config())
                with pytest.raises(MiningJobTimeout):
                    await job.wait()
                # A per-submission override can lift the default.
                ok = runner.submit(table, self.config(), timeout=None)
                await ok.wait()
                return job, ok

        job, ok = asyncio.run(run())
        assert job.status == JOB_TIMED_OUT
        assert ok.status == JOB_COMPLETED

    def test_mining_timeout_without_budget_records_reason(self):
        # A TimeoutError escaping the mining work itself on a
        # budget-less job must not blow up the except handler trying to
        # format a None timeout; the job lands in timed_out cleanly.
        async def run():
            async with MiningJobRunner(max_concurrent_jobs=1) as runner:
                async def explode(job, table, progress):
                    raise TimeoutError("inner work timed out")

                runner._mine = explode
                job = runner.submit(small_table(), self.config())
                with pytest.raises(MiningJobTimeout):
                    await job.wait()
                return runner.stats, job

        stats, job = asyncio.run(run())
        assert job.status == JOB_TIMED_OUT
        assert job.cancel_reason == "timed out"
        assert stats.timed_out == 1

    def test_retention_cap_prunes_finished_jobs(self):
        table = small_table()

        async def run():
            async with MiningJobRunner(
                max_concurrent_jobs=2, max_retained_jobs=2
            ) as runner:
                for _ in range(5):
                    runner.submit(table, self.config())
                await runner.join()
                return runner

        runner = asyncio.run(run())
        assert len(runner.jobs) <= 2
        assert len(runner.stats.jobs) <= 2
        # Aggregate counters survive pruning.
        assert runner.stats.submitted == 5
        assert runner.stats.completed == 5

    def test_failed_job_raises_original_error(self):
        async def run():
            async with MiningJobRunner(max_concurrent_jobs=1) as runner:
                # A bogus table fails inside the job, not at submit.
                job = runner.submit(None, self.config())
                with pytest.raises(Exception):
                    await job.wait()
                return runner.stats, job

        stats, job = asyncio.run(run())
        assert job.status == "failed"
        assert stats.failed == 1

    def test_external_offload_pool_not_closed(self):
        table = small_table()
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            async def run():
                async with MiningJobRunner(
                    max_concurrent_jobs=1, offload=pool
                ) as runner:
                    job = runner.submit(table, self.config())
                    await job.wait()

            asyncio.run(run())
            # Still usable after the runner closed: it never owned it.
            assert pool.submit(lambda: 42).result() == 42
        finally:
            pool.shutdown()

    def test_limits_validated(self):
        with pytest.raises(ValueError, match="max_concurrent_jobs"):
            MiningJobRunner(max_concurrent_jobs=0)
        with pytest.raises(ValueError, match="job_timeout"):
            MiningJobRunner(job_timeout=0)

    def test_submit_requires_running_loop(self):
        runner = MiningJobRunner(max_concurrent_jobs=1)
        with pytest.raises(RuntimeError):
            runner.submit(small_table(), self.config())


class TestCancelCompletionRace:
    """A cancel that races natural completion must lose cleanly.

    ``Task.cancel()`` can return True (the task is not done) and stamp
    a cancel reason, yet the job coroutine may already be past its last
    suspension point and complete normally — the CancelledError is
    never delivered.  The job must then report a clean ``completed``
    status with no lingering cancel reason: completed means completed.
    """

    def test_cancel_racing_completion_completes_clean(self):
        table = small_table()
        config = MinerConfig(min_support=0.2, min_confidence=0.5)
        expected = mine_quantitative_rules(table, config)
        transitions = []

        async def run():
            async with MiningJobRunner(max_concurrent_jobs=1) as runner:
                async def racing_mine(job, table_, progress):
                    # Simulate the race deterministically: cancel lands
                    # while the coroutine is in its final synchronous
                    # stretch, so Task.cancel() accepts (and stamps a
                    # reason) but the job still finishes first.
                    assert job.cancel(reason="raced too late")
                    assert job.cancel_reason == "raced too late"
                    return expected

                runner._mine = racing_mine
                job = runner.submit(
                    table,
                    config,
                    status_hook=lambda j: transitions.append(
                        (j.status, j.cancel_reason)
                    ),
                )
                result = await job.wait()
                return runner.stats, job, result

        stats, job, result = asyncio.run(run())
        assert job.status == JOB_COMPLETED
        assert job.cancel_reason is None
        assert job.job_stats().cancel_reason is None
        assert result is expected
        assert stats.completed == 1
        assert stats.cancelled == 0
        # The terminal transition the hook observed is the clean one.
        assert transitions[-1] == (JOB_COMPLETED, None)

    def test_cancel_after_completion_reports_false(self):
        table = small_table()
        config = MinerConfig(min_support=0.2, min_confidence=0.5)

        async def run():
            async with MiningJobRunner() as runner:
                job = runner.submit(table, config)
                await job.wait()
                assert not job.cancel(reason="way too late")
                return job

        job = asyncio.run(run())
        assert job.status == JOB_COMPLETED
        assert job.cancel_reason is None
