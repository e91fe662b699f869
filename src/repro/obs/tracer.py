"""Hierarchical tracing: spans over the staged mining pipeline.

A :class:`Span` is one timed region of a run — the run itself, a
pipeline stage, one shard task of a fan-out, or one artifact-cache
lookup — with a name, a kind, free-form attributes and an explicit
parent, so a whole mining run (including concurrent async jobs and
process-pool fan-outs) reconstructs as a single tree from one flat
span list.

Design constraints, in order:

- **Zero cost when off.**  :data:`NULL_TRACER` implements the full
  surface as no-ops over shared singletons, so instrumented call sites
  stay unconditional and the disabled hot path allocates nothing
  (asserted by ``benchmarks/bench_obs_overhead.py``).
- **Thread/process safety.**  Span collection appends completed spans
  under a lock, so stages driven from asyncio offload threads and
  concurrent :class:`~repro.core.async_miner.MiningJobRunner` jobs
  interleave safely.  Process-pool shard tasks cannot append across the
  process boundary; their wall-clock is measured *inside* the worker
  (as the sharded layer always has) and recorded by the dispatching
  process via :meth:`Tracer.record`, preserving the tree.
- **Explicit parents.**  Parentage is passed explicitly (a span handle
  or id), never inferred from ambient thread-local state — offload
  threads and pool workers would silently break implicit context, and
  an explicit tree is trivially deterministic.

Timestamps are monotonic (``time.perf_counter``) offsets from the
tracer's construction; the tracer also records the wall-clock epoch so
exporters can place spans on a real timeline.
"""

from __future__ import annotations

import os
import secrets
import threading
import time
from dataclasses import dataclass, field
from itertools import count

#: Span kinds the pipeline emits (free-form; these are the conventions).
SPAN_KINDS = (
    "run", "job", "stage", "shard_task", "cache_lookup", "cache_store",
    "remote_dispatch", "worker_shard", "event", "span",
)

#: The 32-hex all-zero trace id W3C reserves as "invalid / no trace".
NULL_TRACE_ID = "0" * 32

_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id() -> str:
    """A fresh random 128-bit trace id as 32 lowercase hex digits."""
    while True:
        trace_id = secrets.token_hex(16)
        if trace_id != NULL_TRACE_ID:
            return trace_id


def new_span_id() -> int:
    """A fresh random nonzero 63-bit span id (JSON-safe integer)."""
    return secrets.randbits(63) or 1


def span_id_hex(span_id: int) -> str:
    """A span id as the 16-hex form ``traceparent`` and OTLP carry."""
    return f"{span_id & 0xFFFFFFFFFFFFFFFF:016x}"


def format_traceparent(trace_id: str, span_id: int) -> str:
    """A W3C ``traceparent`` header value for one trace/span pair."""
    return f"00-{trace_id}-{span_id_hex(span_id)}-01"


def parse_traceparent(header) -> tuple | None:
    """Parse a ``traceparent`` header into ``(trace_id, span_id)``.

    Returns ``None`` for anything malformed — an absent, truncated or
    all-zero context simply means "no propagation", never an error, so
    a worker can serve coordinators of any vintage.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_hex = parts[0], parts[1], parts[2]
    if len(version) != 2 or version == "ff":
        return None
    if len(trace_id) != 32 or not _HEX_DIGITS.issuperset(trace_id):
        return None
    if len(span_hex) != 16 or not _HEX_DIGITS.issuperset(span_hex):
        return None
    if trace_id == NULL_TRACE_ID:
        return None
    span_id = int(span_hex, 16)
    if span_id == 0:
        return None
    return trace_id, span_id


@dataclass
class Span:
    """One completed timed region of a traced run.

    Parameters
    ----------
    name:
        Human-readable label (stage name, ``"mine"``, ``"pass_3[shard 2]"``).
    kind:
        Coarse classification — one of :data:`SPAN_KINDS` by convention.
    span_id:
        Identifier unique within the owning tracer.
    parent_id:
        ``span_id`` of the enclosing span, or ``None`` for a root.
    start:
        Monotonic offset (seconds) from the tracer's epoch.
    duration:
        Wall-clock seconds the region took.
    attributes:
        Free-form measurements (candidate counts, cache outcome, shard
        sizes...).  Values should be JSON-serializable.
    thread:
        Label of the thread (or synthetic lane) the work ran on.
    pid:
        Process id of the recording process.
    trace_id:
        32-hex id of the distributed trace the span belongs to; filled
        from the owning tracer on append when left empty, so spans
        recorded on any one tracer — or propagated to it from a worker
        process — correlate across machines.
    """

    name: str
    kind: str = "span"
    span_id: int = 0
    parent_id: int | None = None
    start: float = 0.0
    duration: float = 0.0
    attributes: dict = field(default_factory=dict)
    thread: str = ""
    pid: int = 0
    trace_id: str = ""


def _parent_id(parent) -> int | None:
    """Normalize a parent (handle, span, id or ``None``) to a span id."""
    if parent is None:
        return None
    if isinstance(parent, int):
        return parent
    try:
        # A null handle's span_id is None — a root, not an error — so a
        # disabled layer can hand its handle to an enabled one safely.
        return parent.span_id
    except AttributeError:
        raise TypeError(
            f"parent must be a span, span handle, id or None; got "
            f"{type(parent).__name__}"
        ) from None


class SpanHandle:
    """An in-flight span: a context manager that records on exit.

    Returned by :meth:`Tracer.span` / :meth:`Tracer.start_span`.  Set
    attributes as the work progresses with :meth:`set`; the span is
    appended to the tracer's collection when the ``with`` block exits
    (or :meth:`finish` is called).  An exception escaping the block is
    recorded as an ``error`` attribute before propagating.
    """

    __slots__ = (
        "_tracer", "name", "kind", "span_id", "parent_id", "attributes",
        "_started", "_finished",
    )

    def __init__(self, tracer, name, kind, span_id, parent_id, attributes):
        self._tracer = tracer
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self._started = time.perf_counter()
        self._finished = False

    def set(self, **attributes) -> "SpanHandle":
        """Attach attributes to the in-flight span; returns ``self``."""
        self.attributes.update(attributes)
        return self

    def finish(self, **attributes) -> None:
        """Close the span now (idempotent), recording final attributes."""
        if self._finished:
            return
        self._finished = True
        self.attributes.update(attributes)
        self._tracer._append(
            Span(
                name=self.name,
                kind=self.kind,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self._started - self._tracer.epoch,
                duration=time.perf_counter() - self._started,
                attributes=self.attributes,
                thread=threading.current_thread().name,
                pid=os.getpid(),
            )
        )

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.finish()


class _NullSpanHandle:
    """The shared do-nothing handle :class:`NullTracer` hands out."""

    __slots__ = ()
    span_id = None
    parent_id = None
    name = ""
    kind = "span"

    def set(self, **attributes) -> "_NullSpanHandle":
        """Discard attributes; returns ``self``."""
        return self

    def finish(self, **attributes) -> None:
        """Do nothing."""

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        return None


class Tracer:
    """Collects the spans of one (or many concurrent) mining runs.

    Handles are cheap; completed spans are appended under a lock, so
    one tracer may be shared by every job of an async runner.  The
    tracer never prunes: a long-lived service should hand each run (or
    bounded batch of runs) its own tracer and export between batches.

    Attributes
    ----------
    epoch:
        ``time.perf_counter()`` at construction; span ``start`` offsets
        are relative to it.
    epoch_wall:
        ``time.time()`` at construction, letting exporters place the
        monotonic offsets on the wall clock.
    trace_id:
        The 32-hex distributed-trace id stamped on every span this
        tracer appends (fresh per tracer unless adopted via the
        constructor, e.g. from a propagated ``traceparent``).

    Span ids combine a random per-tracer base with a counter, so they
    stay strictly increasing within one tracer while remaining unique
    across processes — a worker's spans merge into the coordinator's
    trace without id collisions.
    """

    #: Discriminates real tracers from :class:`NullTracer` without
    #: isinstance checks at call sites.
    enabled = True

    def __init__(self, trace_id: str | None = None) -> None:
        self.epoch = time.perf_counter()
        self.epoch_wall = time.time()
        self.trace_id = trace_id or new_trace_id()
        self._spans: list = []
        self._lock = threading.Lock()
        # Random bits 32..62 + a 32-bit counter: < 2**63, JSON-safe.
        self._ids = count((secrets.randbits(31) or 1) << 32)

    def span(self, name, kind: str = "span", parent=None, **attributes):
        """Open a span as a context manager.

        ``parent`` is a :class:`SpanHandle`, :class:`Span`, span id or
        ``None`` (a root span).  Keyword arguments become initial
        attributes; add more later via :meth:`SpanHandle.set`.
        """
        return self.start_span(name, kind, parent, **attributes)

    def start_span(
        self, name, kind: str = "span", parent=None, **attributes
    ) -> SpanHandle:
        """Open a span explicitly; close it with :meth:`SpanHandle.finish`.

        The non-``with`` form for regions that start and end in
        different scopes (a run span opened in ``_begin_run`` and
        finished in ``_finish_run``).
        """
        return SpanHandle(
            self, name, kind, next(self._ids), _parent_id(parent), attributes
        )

    def record(
        self,
        name,
        kind: str = "span",
        parent=None,
        *,
        start: float | None = None,
        duration: float = 0.0,
        thread: str | None = None,
        **attributes,
    ) -> Span:
        """Append an already-measured span (no handle, no clock reads).

        The bridge for work timed somewhere this tracer cannot reach —
        a process-pool worker measures its own wall-clock and the
        dispatching side records it here.  ``start`` is a monotonic
        ``time.perf_counter()`` reading (defaulting to "now minus
        duration"); ``thread`` labels the lane the work conceptually ran
        on (e.g. ``"shard-3"``) for exporters that draw lanes.
        """
        if start is None:
            start = time.perf_counter() - duration
        span = Span(
            name=name,
            kind=kind,
            span_id=next(self._ids),
            parent_id=_parent_id(parent),
            start=start - self.epoch,
            duration=duration,
            attributes=dict(attributes),
            thread=thread or threading.current_thread().name,
            pid=os.getpid(),
        )
        self._append(span)
        return span

    def adopt(self, span: Span) -> Span:
        """Append an externally measured span, keeping its identifiers.

        The ingestion half of trace propagation: a remote worker built
        the span in its own process (own random ``span_id``, the
        propagated ``trace_id``, a ``parent_id`` naming the dispatch
        span) and the coordinator adopts it into the merged trace
        verbatim.  The caller is responsible for having rebased
        ``span.start`` onto this tracer's epoch.
        """
        self._append(span)
        return span

    def _append(self, span: Span) -> None:
        if not span.trace_id:
            span.trace_id = self.trace_id
        with self._lock:
            self._spans.append(span)

    def spans(self) -> list:
        """Snapshot of every completed span, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class NullTracer:
    """The tracer that is not there: every operation is a shared no-op.

    Instrumented call sites use it unconditionally
    (``tracer = context.tracer or NULL_TRACER``), so disabling
    observability costs one attribute lookup and a no-op method call
    per *stage* — and nothing at all per record counted.
    """

    enabled = False
    epoch = 0.0
    epoch_wall = 0.0
    trace_id = NULL_TRACE_ID
    _handle = _NullSpanHandle()

    def span(self, name, kind: str = "span", parent=None, **attributes):
        """Return the shared no-op handle."""
        return self._handle

    def start_span(self, name, kind: str = "span", parent=None, **attributes):
        """Return the shared no-op handle."""
        return self._handle

    def record(self, name, kind: str = "span", parent=None, **kwargs):
        """Discard the measurement."""
        return None

    def adopt(self, span):
        """Discard nothing, record nothing: hand the span back."""
        return span

    def spans(self) -> list:
        """No spans, ever."""
        return []

    def __len__(self) -> int:
        return 0


#: Shared no-op tracer instance (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


class timeit:
    """Time a block; optionally record it as a span.

    The one idiom for ad-hoc wall-clock measurement across the
    codebase, replacing paired ``time.perf_counter()`` reads::

        with timeit() as timer:
            work()
        seconds = timer.seconds

    With a tracer the measurement is also recorded as a span::

        with timeit("encode", tracer=tracer, parent=run_span) as timer:
            work()

    Parameters
    ----------
    name:
        Span name when recording (ignored without a tracer).
    tracer:
        A :class:`Tracer` (or :data:`NULL_TRACER`/``None``) to record
        the measurement on.
    kind:
        Span kind when recording.
    parent:
        Parent span handle/id when recording.
    **attributes:
        Initial span attributes; extend in-flight via :meth:`set`.
    """

    __slots__ = ("name", "kind", "seconds", "_tracer", "_parent",
                 "_attributes", "_started")

    def __init__(
        self, name: str = "timed", *, tracer=None, kind: str = "span",
        parent=None, **attributes,
    ) -> None:
        self.name = name
        self.kind = kind
        self.seconds = 0.0
        self._tracer = tracer
        self._parent = parent
        self._attributes = attributes

    def set(self, **attributes) -> "timeit":
        """Attach attributes to the recorded span; returns ``self``."""
        self._attributes.update(attributes)
        return self

    def __enter__(self) -> "timeit":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._started
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            if exc_type is not None:
                self._attributes.setdefault("error", exc_type.__name__)
            tracer.record(
                self.name,
                self.kind,
                self._parent,
                start=self._started,
                duration=self.seconds,
                **self._attributes,
            )
