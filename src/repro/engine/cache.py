"""Pluggable artifact caches for fingerprinted pipeline stages.

The :class:`~repro.engine.stage.ExecutionEngine` consults an
:class:`ArtifactCache` before running a cacheable stage: the stage's
content fingerprint (see :mod:`~repro.engine.fingerprint`) is the key,
the mapping of its declared output artifacts is the value.  A hit
replaces the stage's run wholesale, which is what makes re-mining with
only downstream parameters changed (confidence, interest level)
incremental — the expensive counting stages short-circuit to their
cached artifacts.

Values are stored *serialized* (pickle) and deserialized on every
``get``.  That costs a copy but buys aliasing safety: cached artifacts
are handed to pipelines that may mutate them (the level-wise search
updates ``support_counts`` in place), and a cache that returned the
stored object itself would be poisoned by the first such mutation.  It
also makes the in-memory and on-disk stores behaviorally identical.

Backends:

- :class:`MemoryCache` — bounded LRU in process memory; the default.
- :class:`DiskCache` — one file per key under a directory (default
  ``~/.cache/repro``), so fingerprints persist across processes; a CLI
  sweep over confidence values skips counting on every invocation after
  the first.
- :class:`NullCache` — never stores, never hits; an explicit off switch
  that keeps call sites unconditional.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict

from ..obs import get_logger

_log = get_logger(__name__)

#: Sentinel distinguishing "cached None" from "not cached".
MISSING = object()

#: Default on-disk cache location (override per :class:`DiskCache`).
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro")


class ArtifactCache(ABC):
    """Key/value store for stage artifacts, keyed by content fingerprint.

    Implementations count their own ``hits`` / ``misses`` / ``puts`` so
    callers can report effectiveness without wrapping every access.

    Caches may be shared across concurrently mining jobs (the async job
    runner hands one cache to every job), so implementations must keep
    ``get`` / ``put`` and the counters safe to call from multiple
    threads; ``_lock`` is provided for that.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self._lock = threading.Lock()

    @abstractmethod
    def get(self, key: str):
        """Return the cached value for ``key``, or :data:`MISSING`."""

    @abstractmethod
    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (overwrites silently)."""

    def delete(self, key: str) -> bool:
        """Drop ``key`` if present; True when an entry was removed.

        Deliberate removal (e.g. garbage-collecting shard artifacts
        orphaned by a re-partition) — not counted as an eviction.
        """
        return False


def check_injected_cache(cache) -> None:
    """Raise ``TypeError`` unless ``cache`` can be injected as ``cache=``.

    A miner or job runner takes an already-built :class:`ArtifactCache`
    (or ``None``) as its ``cache=``.  A cache *block* — a
    ``CacheConfig`` or a dict of its fields — is configuration and goes
    in through ``config=``; caught here, it fails at construction rather
    than deep inside the first cached stage.
    """
    if cache is not None and not isinstance(cache, ArtifactCache):
        raise TypeError(
            "cache= takes an ArtifactCache instance or None, got "
            f"{type(cache).__name__}; pass the cache block through "
            "config=, e.g. config=MinerConfig(cache={...})"
        )


class NullCache(ArtifactCache):
    """The cache that is not there: every get misses, puts are dropped."""

    def get(self, key: str):
        """Miss unconditionally."""
        with self._lock:
            self.misses += 1
        return MISSING

    def put(self, key: str, value) -> None:
        """Drop ``value`` on the floor."""


class MemoryCache(ArtifactCache):
    """Bounded in-memory LRU over pickled artifact blobs."""

    def __init__(self, max_entries: int = 64) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """Return a fresh unpickle of the entry, or :data:`MISSING`."""
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self.misses += 1
                return MISSING
            self._entries.move_to_end(key)
            self.hits += 1
        return pickle.loads(blob)

    def put(self, key: str, value) -> None:
        """Pickle and store ``value``, evicting LRU entries past the bound."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            self.puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def delete(self, key: str) -> bool:
        """Drop ``key`` if present; True when an entry was removed."""
        with self._lock:
            return self._entries.pop(key, None) is not None


class DiskCache(ArtifactCache):
    """One pickle file per fingerprint under ``directory``.

    Writes go through a temporary file in the same directory plus
    ``os.replace``, so concurrent processes sharing the directory never
    observe a torn entry.  Unreadable/corrupt entries count as misses
    and are removed.

    With ``max_bytes`` set, the directory is bounded: after every write
    the least-recently-used entries (by file access order — reads touch
    their entry's mtime) are removed until the total size fits the
    budget.  Shard-granular artifacts multiply entry counts, so an
    unbounded directory would otherwise grow with every append.
    """

    def __init__(
        self,
        directory: str | None = None,
        *,
        max_bytes: int | None = None,
    ) -> None:
        super().__init__()
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = os.path.expanduser(directory or DEFAULT_CACHE_DIR)
        self.max_bytes = max_bytes
        os.makedirs(self.directory, exist_ok=True)
        self._total_bytes: int | None = None  # lazily scanned

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str):
        """Load the entry's file, or :data:`MISSING` (corrupt files too)."""
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return MISSING
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            _log.warning("removing corrupt cache entry %s", path)
            try:
                os.remove(path)
            except OSError:
                pass
            with self._lock:
                self.misses += 1
            return MISSING
        if self.max_bytes is not None:
            try:  # refresh recency so LRU eviction spares hot entries
                os.utime(path)
            except OSError:
                pass
        with self._lock:
            self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Write the entry atomically (tempfile + ``os.replace``)."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            written = os.path.getsize(tmp)
            path = self._path(key)
            with self._lock:
                replaced = 0
                try:
                    replaced = os.path.getsize(path)
                except OSError:
                    pass
                os.replace(tmp, path)
                if self._total_bytes is not None:
                    self._total_bytes += written - replaced
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.puts += 1
        self._enforce_budget(protect=key)

    def delete(self, key: str) -> bool:
        """Drop ``key``'s file if present; True when one was removed."""
        path = self._path(key)
        try:
            size = os.path.getsize(path)
            os.remove(path)
        except OSError:
            return False
        with self._lock:
            if self._total_bytes is not None:
                self._total_bytes -= size
        return True

    def total_bytes(self) -> int:
        """Current size of every entry in the directory, in bytes."""
        with self._lock:
            if self._total_bytes is None:
                self._total_bytes = sum(
                    size for _, _, size in self._scan()
                )
            return max(0, self._total_bytes)

    def _scan(self) -> list:
        """Every entry as ``(path, mtime, size)`` (unordered)."""
        out = []
        try:
            with os.scandir(self.directory) as it:
                for entry in it:
                    if not entry.name.endswith(".pkl"):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    out.append((entry.path, stat.st_mtime, stat.st_size))
        except OSError:
            pass
        return out

    def _enforce_budget(self, protect: str | None = None) -> None:
        """Evict LRU entries until the directory fits ``max_bytes``."""
        if self.max_bytes is None or self.total_bytes() <= self.max_bytes:
            return
        keep = None if protect is None else self._path(protect)
        entries = sorted(self._scan(), key=lambda e: e[1])
        total = sum(size for _, _, size in entries)
        with self._lock:
            self._total_bytes = total
        for path, _, size in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue  # never evict the entry just written
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            with self._lock:
                self.evictions += 1
                self._total_bytes = total
