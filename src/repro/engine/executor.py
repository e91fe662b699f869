"""Pluggable executors: where pipeline work actually runs.

An :class:`Executor` exposes one operation — :meth:`~Executor.map` a
picklable function over a list of tasks — which is all the sharded
counting layer needs.  :class:`SerialExecutor` runs in-process;
:class:`ParallelExecutor` fans tasks out over a lazily created
``concurrent.futures.ProcessPoolExecutor``; the distributed
:class:`~repro.engine.remote.RemoteExecutor` (resolved here for the
``"remote"`` config value) additionally exposes the record-sharded
``map_shards`` surface that ships shard counting to worker servers.

Task functions handed to :meth:`Executor.map` must be module-level
callables and their tasks/results picklable, so the same call site works
under either implementation.

Executors also answer :meth:`Executor.column_store`: the parallel
executor owns a lazily created
:class:`~repro.engine.shm.SharedColumnStore` so the sharding layer can
hand workers zero-copy :class:`~repro.engine.shm.SharedShardView`
descriptors instead of pickled column slices; the serial executor
returns ``None`` (nothing crosses a process boundary, so there is
nothing to share).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

from .shm import SharedColumnStore, shared_memory_available

#: User-facing executor names (the ``execution.executor`` config values).
EXECUTOR_NAMES = ("serial", "parallel", "remote")


class Executor(ABC):
    """Maps a function over tasks; context manager owning worker state."""

    #: Name matching the configuration value that selects this executor.
    name: str = "executor"
    #: Worker processes the executor may use (1 for serial).
    num_workers: int = 1

    @abstractmethod
    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to every task, preserving task order."""

    def column_store(self):
        """Shared column store for zero-copy shard handoff, or ``None``.

        ``None`` — the default — tells the sharding layer to fall back
        to copying shard slices into each task, which is always correct
        and is all an in-process executor needs.
        """
        return None

    def close(self) -> None:
        """Release worker resources; the executor is unusable afterwards."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process execution — the default, and the reference semantics."""

    name = "serial"
    num_workers = 1

    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to every task in order, in the calling process."""
        return [fn(task) for task in tasks]


class ParallelExecutor(Executor):
    """Process-pool execution.

    The pool is created on first use so constructing a config-resolved
    executor stays free, and single-task maps short-circuit in-process
    (spawning workers for one task only adds overhead).

    When the platform supports it (see
    :func:`~repro.engine.shm.shared_memory_available`), the executor
    also owns a :class:`~repro.engine.shm.SharedColumnStore` so shard
    fan-outs ship zero-copy descriptors instead of column data; pass
    ``use_shared_memory=False`` to force the copying path.
    """

    name = "parallel"

    def __init__(
        self,
        num_workers: int | None = None,
        use_shared_memory: bool | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers or os.cpu_count() or 1
        if use_shared_memory is None:
            use_shared_memory = shared_memory_available()
        self._use_shared_memory = bool(use_shared_memory)
        self._pool = None
        self._store = None

    def column_store(self):
        """This executor's lazily created shared column store.

        ``None`` when shared memory is disabled or a single worker makes
        the in-process short-circuit certain (nothing would be pickled).
        """
        if not self._use_shared_memory or self.num_workers <= 1:
            return None
        if self._store is None:
            self._store = SharedColumnStore()
        return self._store

    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to every task over the process pool, in task order."""
        tasks = list(tasks)
        if len(tasks) <= 1 or self.num_workers == 1:
            return [fn(task) for task in tasks]
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.num_workers)
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        """Shut the pool down and unlink published segments; idempotent.

        The pool drains first so no worker is mid-task when the store
        unlinks its segments (POSIX would keep mapped segments alive
        anyway, but ordering keeps the lifecycle easy to reason about).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._store is not None:
            self._store.close()
            self._store = None


def resolve_executor(
    name: str = "serial",
    num_workers: int | None = None,
    remote=None,
) -> Executor:
    """Build the executor a configuration names.

    ``remote`` is the :class:`~repro.core.config.RemoteConfig` block
    carrying the distributed options, and is only consulted when
    ``name`` is ``"remote"`` — its ``workers`` are then required.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "parallel":
        return ParallelExecutor(num_workers)
    if name == "remote":
        from .remote import RemoteExecutor

        if remote is None or not remote.workers:
            raise ValueError(
                "the remote executor needs worker addresses "
                "(remote.workers / --workers host:port,...)"
            )
        return RemoteExecutor(
            remote.workers,
            task_timeout=remote.task_timeout,
            max_retries=remote.max_retries,
            backoff_seconds=remote.backoff_seconds,
            fallback_local=remote.fallback_local,
        )
    raise ValueError(
        f"executor must be one of {EXECUTOR_NAMES}, got {name!r}"
    )
