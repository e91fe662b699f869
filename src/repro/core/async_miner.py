"""Concurrent mining jobs: multiplex many miners over one shared pool.

The asyncio front end of the staged engine lets one event loop drive
many mining pipelines at once; this module adds the service-side
plumbing a production caller needs around that:

- :class:`MiningJobRunner` — submits jobs (table + config), bounds how
  many mine at once with a semaphore, offloads all blocking work to one
  shared worker pool, and hands every job the *same*
  :class:`~repro.engine.ArtifactCache` so concurrent parameter sweeps
  share warm stages.
- :class:`MiningJob` — a handle on one submitted job: status, result,
  error, timing, ``await job.wait()`` and ``job.cancel()``.

Timeout and cancellation semantics
----------------------------------
A job's timeout (per submission, defaulting to the runner's) covers its
mining phase, not its time queued behind the concurrency limit.  Both
timeout and explicit :meth:`MiningJob.cancel` take effect at the next
stage boundary — worker threads are uninterruptible — and the engine
waits out the in-flight stage before the cancellation is observed, so a
cancelled job never leaks its pool slot and the shared cache never sees
a torn write (entries are content-addressed; whatever a cancelled job
finished computing is warm state for the next job, not damage).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time

from ..engine.cache import check_injected_cache
from ..obs import NULL_TRACER
from .config import MinerConfig
from .miner import MiningResult, QuantitativeMiner, _resolve_config
from .stats import JobStats, RunnerStats

#: Job lifecycle states (``MiningJob.status``).
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_COMPLETED = "completed"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_TIMED_OUT = "timed_out"

#: Sentinel for "use the runner's default timeout".
_DEFAULT = object()


class MiningJobCancelled(RuntimeError):
    """Awaited a job that was cancelled before it produced a result."""


class MiningJobTimeout(TimeoutError):
    """Awaited a job that exceeded its wall-clock budget."""


class MiningJob:
    """Handle on one submitted mining job.

    Attributes
    ----------
    job_id:
        The submission's identifier (caller-chosen or ``job-N``).
    status:
        One of ``pending`` / ``running`` / ``completed`` / ``failed`` /
        ``cancelled`` / ``timed_out``.
    result:
        The :class:`~repro.core.miner.MiningResult` once completed.
    error:
        The exception a failed or timed-out job ended with.
    seconds:
        Submission-to-finish wall-clock (queueing included).
    timeout:
        The wall-clock budget this job runs under (``None`` = none);
        resolved at submission from the explicit override or the
        runner's default, so status payloads can report it.
    cancel_reason:
        Why a cancelled or timed-out job ended early (the reason given
        to :meth:`cancel`, or the timeout description), ``None``
        otherwise.
    status_hook:
        Optional callable invoked with the job on every status
        transition (on the event loop for transitions the runner makes
        there).  The serving layer uses it to journal lifecycle changes
        and feed event streams.
    span:
        The job's root :class:`~repro.obs.SpanHandle` when the runner
        has a shared observability bundle, else ``None`` — external
        layers parent their own spans (e.g. per-HTTP-request) under it.
    """

    def __init__(self, job_id: str, config: MinerConfig) -> None:
        self.job_id = job_id
        self.config = config
        self.status = JOB_PENDING
        self.result: MiningResult | None = None
        self.error: BaseException | None = None
        self.seconds = 0.0
        self.timeout: float | None = None
        self.cancel_reason: str | None = None
        self.status_hook = None
        self.span = None
        self._task: asyncio.Task | None = None
        self._submitted = 0.0

    def _set_status(self, status: str) -> None:
        """Transition to ``status``, notifying the hook (if any)."""
        self.status = status
        hook = self.status_hook
        if hook is not None:
            hook(self)

    def cancel(self, reason: str | None = None) -> bool:
        """Request cancellation; return False if the job already ended.

        A queued job cancels immediately; a running one at its next
        stage boundary (see the module docstring).  ``reason`` is
        recorded as :attr:`cancel_reason` for status payloads.  A job
        that already reached a terminal state — including one whose
        final stage finished while this call raced it — is left
        untouched and reports ``False``.
        """
        if self._task is None or self._task.done():
            return False
        if not self._task.cancel():
            return False
        if self.cancel_reason is None:
            self.cancel_reason = reason or "cancelled by caller"
        return True

    @property
    def done(self) -> bool:
        """Whether the job has reached a terminal status."""
        return self.status in (
            JOB_COMPLETED, JOB_FAILED, JOB_CANCELLED, JOB_TIMED_OUT
        )

    async def wait(self) -> MiningResult:
        """Wait for the job; return its result or raise its outcome.

        Raises :class:`MiningJobCancelled` for a cancelled job,
        :class:`MiningJobTimeout` for a timed-out one, and the original
        exception for a failed one.
        """
        try:
            await self._task
        except asyncio.CancelledError:
            if self.status == JOB_COMPLETED and self.result is not None:
                # A cancel raced the final step and lost: CPython marks
                # the *task* cancelled when cancel() lands during its
                # last synchronous stretch, but the job finished.
                # Completed means completed.
                return self.result
            if self.status == JOB_CANCELLED or self._task.cancelled():
                raise MiningJobCancelled(self.job_id) from None
            raise  # the *waiter* was cancelled, not the job
        if self.status == JOB_TIMED_OUT:
            raise MiningJobTimeout(
                f"job {self.job_id!r} exceeded its timeout"
            ) from self.error
        if self.status == JOB_FAILED:
            raise self.error
        return self.result

    def job_stats(self) -> JobStats:
        """This job's outcome as a :class:`~repro.core.stats.JobStats`."""
        stats = JobStats(
            job_id=self.job_id,
            status=self.status,
            seconds=self.seconds,
            timeout=self.timeout,
            cancel_reason=self.cancel_reason,
        )
        if self.result is not None:
            stats.num_rules = self.result.stats.num_rules
            stats.num_interesting_rules = (
                self.result.stats.num_interesting_rules
            )
            execution = self.result.stats.execution
            if execution is not None:
                stats.cache_hits = execution.cache_hits
                stats.cache_misses = execution.cache_misses
        return stats


class MiningJobRunner:
    """Multiplex N concurrent mining jobs over one shared worker pool.

    Parameters
    ----------
    max_concurrent_jobs:
        How many jobs may mine simultaneously; excess submissions queue
        on a semaphore.  ``None`` uses the host's core count.
    job_timeout:
        Default per-job wall-clock budget in seconds (``None`` = no
        limit); individual submissions may override it.
    cache:
        The :class:`~repro.engine.ArtifactCache` every job's miner
        shares, so concurrent sweeps reuse each other's warm stages.
        ``None`` builds the default bounded in-memory LRU; pass a
        :class:`~repro.engine.NullCache` to disable sharing.
    offload:
        A ``concurrent.futures`` executor for the blocking mining work.
        ``None`` lets the runner own a thread pool sized to the
        concurrency bound (closed by :meth:`aclose`).
    observability:
        A shared :class:`~repro.obs.Observability` bundle.  When given,
        every job gets a ``job`` span and its miner records into the
        *same* tracer/registry, so a whole concurrent sweep
        reconstructs as one span forest (one ``job`` root per job, the
        runs and stages nested beneath).  ``None`` leaves jobs on
        whatever their own configs say.
    max_retained_jobs:
        How many *finished* jobs stay referenced from :attr:`jobs` and
        the per-job list in :attr:`stats`.  ``None`` (the default, the
        sweep-shaped library case) keeps everything; a long-running
        server passes a cap so handles — each holding a full
        :class:`~repro.core.miner.MiningResult` — do not accumulate
        forever.  The aggregate outcome counters are never pruned;
        ``stats.cache_hits``/``cache_misses`` sum over the retained
        window only.

    Use as an async context manager to guarantee the pool is released::

        async with MiningJobRunner(max_concurrent_jobs=4) as runner:
            jobs = [runner.submit(table, cfg) for cfg in configs]
            results = [await job.wait() for job in jobs]
    """

    def __init__(
        self,
        max_concurrent_jobs: int | None = None,
        job_timeout: float | None = None,
        *,
        cache=None,
        offload=None,
        observability=None,
        max_retained_jobs: int | None = None,
    ) -> None:
        from .config import CacheConfig

        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ValueError(
                f"max_concurrent_jobs must be >= 1, got {max_concurrent_jobs}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {job_timeout}")
        self.max_concurrent_jobs = max_concurrent_jobs or os.cpu_count() or 1
        self.job_timeout = job_timeout
        check_injected_cache(cache)
        self.cache = cache if cache is not None else CacheConfig().build()
        self.observability = observability
        self.max_retained_jobs = max_retained_jobs
        self.stats = RunnerStats()
        self.jobs: list = []
        self._offload = offload
        self._owns_offload = offload is None
        self._semaphore: asyncio.Semaphore | None = None
        self._ids = itertools.count(1)

    def _ensure_started(self) -> None:
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_concurrent_jobs)
        if self._offload is None:
            from concurrent.futures import ThreadPoolExecutor

            self._offload = ThreadPoolExecutor(
                max_workers=self.max_concurrent_jobs,
                thread_name_prefix="repro-mine",
            )

    def submit(
        self,
        table,
        config: MinerConfig | None = None,
        *,
        job_id: str | None = None,
        timeout=_DEFAULT,
        progress=None,
        status_hook=None,
        **overrides,
    ) -> MiningJob:
        """Queue one mining job; return its handle immediately.

        ``config``/``overrides`` follow
        :func:`~repro.core.miner.mine_quantitative_rules` exactly: the
        keywords are :class:`~repro.core.config.MinerConfig`'s fields.
        ``timeout`` overrides the runner's default budget for this job;
        ``progress`` receives a :class:`~repro.engine.StageEvent` per
        completed stage; ``status_hook`` is called with the job on
        every lifecycle transition.  Must be called with a running
        event loop.
        """
        resolved = _resolve_config(config, overrides)
        if timeout is _DEFAULT:
            timeout = self.job_timeout
        job = MiningJob(job_id or f"job-{next(self._ids)}", resolved)
        job.timeout = timeout
        job.status_hook = status_hook
        self._ensure_started()
        job._submitted = time.perf_counter()
        job._task = asyncio.get_running_loop().create_task(
            self._run_job(job, table, timeout, progress),
            name=f"mining-{job.job_id}",
        )
        job._task.add_done_callback(lambda task: self._reap(job, task))
        self.jobs.append(job)
        self.stats.submitted += 1
        return job

    def _reap(self, job, task) -> None:
        """Account for a job cancelled before its task ever started.

        ``Task.cancel`` on a never-scheduled task prevents its coroutine
        from running at all, so :meth:`_run_job`'s own bookkeeping never
        fires; this done-callback catches exactly that window.
        """
        if task.cancelled() and not job.done:
            job.seconds = time.perf_counter() - job._submitted
            job._set_status(JOB_CANCELLED)
            self.stats.cancelled += 1
            self.stats.record(job.job_stats())
            self._prune_retained()

    def _prune_retained(self) -> None:
        """Drop the oldest *finished* jobs beyond the retention cap.

        Runs after every job settles (on the event loop, like every
        other mutation of :attr:`jobs`).  Live jobs are never dropped,
        so :meth:`join` still covers everything in flight; with the
        default ``max_retained_jobs=None`` this is a no-op.
        """
        cap = self.max_retained_jobs
        if cap is None:
            return
        excess = len(self.jobs) - cap
        if excess > 0:
            kept = []
            for job in self.jobs:
                if excess > 0 and job.done:
                    excess -= 1
                else:
                    kept.append(job)
            self.jobs[:] = kept
        stats_excess = len(self.stats.jobs) - cap
        if stats_excess > 0:
            del self.stats.jobs[:stats_excess]

    async def _run_job(self, job, table, timeout, progress) -> None:
        """Drive one job through the semaphore, recording its outcome."""
        try:
            async with self._semaphore:
                job._set_status(JOB_RUNNING)
                mining = self._mine(job, table, progress)
                if timeout is not None:
                    job.result = await asyncio.wait_for(mining, timeout)
                else:
                    job.result = await mining
        except asyncio.CancelledError:
            job.seconds = time.perf_counter() - job._submitted
            job._set_status(JOB_CANCELLED)
            self.stats.cancelled += 1
            raise
        except (TimeoutError, asyncio.TimeoutError) as exc:
            job.error = exc
            job.seconds = time.perf_counter() - job._submitted
            if job.cancel_reason is None:
                # A TimeoutError can also escape the mining work itself
                # on a budget-less job; never format None.
                job.cancel_reason = (
                    f"exceeded {timeout:g}s wall-clock budget"
                    if timeout is not None
                    else "timed out"
                )
            job._set_status(JOB_TIMED_OUT)
            self.stats.timed_out += 1
        except Exception as exc:
            job.error = exc
            job.seconds = time.perf_counter() - job._submitted
            job._set_status(JOB_FAILED)
            self.stats.failed += 1
        else:
            # A cancel() that raced natural completion may have stamped
            # a reason without ever stopping the job; completed means
            # completed.
            job.cancel_reason = None
            job.seconds = time.perf_counter() - job._submitted
            job._set_status(JOB_COMPLETED)
            self.stats.completed += 1
        finally:
            job.seconds = time.perf_counter() - job._submitted
            self.stats.record(job.job_stats())
            self._prune_retained()
            if self.observability is not None:
                metrics = self.observability.metrics
                metrics.counter(f"jobs.{job.status}").increment()
                metrics.histogram("job_seconds").observe(job.seconds)

    async def _mine(self, job, table, progress) -> MiningResult:
        """Encode and mine one job off the event loop."""
        loop = asyncio.get_running_loop()
        obs = self.observability
        tracer = obs.tracer if obs is not None else NULL_TRACER
        job_span = tracer.start_span(job.job_id, kind="job")
        if obs is not None:
            # Expose the root so external layers (e.g. the HTTP server's
            # per-request spans) can parent under this job.
            job.span = job_span
        try:
            # Table encoding (steps 1-2) is CPU-bound; off the loop too.
            miner = await loop.run_in_executor(
                self._offload,
                lambda: QuantitativeMiner(
                    table,
                    job.config,
                    cache=self.cache,
                    observability=obs,
                    span_parent=job_span if obs is not None else None,
                ),
            )
            result = await miner.mine_async(
                progress=progress, offload=self._offload
            )
        except BaseException as exc:
            job_span.finish(error=type(exc).__name__)
            raise
        job_span.finish(rules=result.stats.num_rules)
        return result

    async def run_sweep(self, table, configs, *, progress=None) -> list:
        """Mine ``table`` under every config concurrently; results in order.

        The convenience wrapper for the common sweep shape: submits one
        job per config, awaits them all, and returns their
        :class:`~repro.core.miner.MiningResult` in config order (any
        failure propagates).
        """
        jobs = [
            self.submit(table, config, progress=progress)
            for config in configs
        ]
        return [await job.wait() for job in jobs]

    async def join(self) -> None:
        """Wait until every submitted job has reached a terminal state."""
        tasks = [j._task for j in self.jobs if j._task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def aclose(self) -> None:
        """Wait for outstanding jobs and release the owned worker pool."""
        await self.join()
        if self._owns_offload and self._offload is not None:
            self._offload.shutdown(wait=True)
            self._offload = None

    async def __aenter__(self) -> "MiningJobRunner":
        """Enter the runner's scope (no-op; pools start lazily)."""
        return self

    async def __aexit__(self, *exc) -> None:
        """Close the runner, waiting for whatever is still mining."""
        await self.aclose()
