"""Pipeline stages and the engine that runs them.

A :class:`PipelineStage` declares which artifacts it reads (``inputs``)
and which it produces (``outputs``) over a shared namespace held by the
:class:`StageContext`.  The :class:`ExecutionEngine` validates those
declarations at run time — a stage scheduled before its inputs exist, or
one that fails to produce a declared output, raises :class:`StageError`
instead of surfacing as a ``KeyError`` three stages later — and records
per-stage wall-clock.

Stages receive the context's executor and shard plan, so the *same*
stage implementation runs serially or fanned out across workers
depending on configuration, not code.

Cacheable stages additionally declare ``config_keys`` — the
configuration fields their output is a function of — and the engine
consults its :class:`~repro.engine.cache.ArtifactCache` (when given
one) before running them: the stage's content fingerprint (table bytes
+ declared config fields + stage identity) addresses the cache, a hit
restores the declared outputs without running the stage, and a miss
runs the stage and stores them.  Because the key is content-addressed,
invalidation is automatic — any change to the table or to a declared
config field changes the key.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..obs import NULL_METRICS, NULL_TRACER, get_logger
from .cache import MISSING, ArtifactCache
from .executor import Executor, SerialExecutor
from .fingerprint import Unfingerprintable, fingerprint

_log = get_logger(__name__)


class StageError(RuntimeError):
    """A stage's input/output contract was violated."""


@dataclass(frozen=True)
class StageEvent:
    """One completed stage execution, as observed by a stage hook.

    Parameters
    ----------
    stage:
        The stage's ``name`` (its timing bucket).
    seconds:
        Wall-clock the execution took (near zero for a cache hit).
    cache_event:
        How the artifact cache treated the stage: ``"hit"`` (outputs
        restored without running), ``"miss"`` (ran, outputs stored) or
        ``"skipped"`` (cache not consulted).
    """

    stage: str
    seconds: float
    cache_event: str


@dataclass
class StageContext:
    """Shared state threaded through a pipeline run.

    ``artifacts`` is the blackboard stages read from and write to;
    ``executor``/``shards`` tell sharded stages where and how to fan
    out; ``stats`` / ``execution_stats`` are optional sinks for mining
    and per-shard timing counters (duck-typed — the engine never imports
    their classes).
    """

    artifacts: dict = field(default_factory=dict)
    executor: Executor | None = None
    shards: tuple = ()
    stats: object = None
    execution_stats: object = None
    engine: "ExecutionEngine | None" = None
    #: Span sink (:class:`~repro.obs.tracer.Tracer` or ``None`` = off).
    tracer: object = None
    #: Metric sink (:class:`~repro.obs.metrics.MetricsRegistry` or ``None``).
    metrics: object = None
    #: Per-shard count artifact cache
    #: (:class:`~repro.engine.shard_cache.ShardCountCache` or ``None`` =
    #: stage-granular caching only).  Sharded counting stages pass it to
    #: their dispatch so untouched shards short-circuit pre-fan-out.
    shard_cache: object = None
    #: Open-span stack maintained by the engine; the top is the parent
    #: for anything a running stage records (stages within one run are
    #: sequential, so a plain stack is race-free even under the async
    #: engine's thread offload).
    span_stack: list = field(default_factory=list)

    @property
    def current_span(self):
        """The innermost open span (parent for new spans), or ``None``."""
        return self.span_stack[-1] if self.span_stack else None

    def annotate(self, **attributes) -> None:
        """Attach attributes to the innermost open span (no-op untraced)."""
        span = self.current_span
        if span is not None:
            span.set(**attributes)


class PipelineStage(ABC):
    """One named step of the mining pipeline.

    Subclasses set ``name`` (used for timing buckets), ``inputs`` (artifact
    keys that must exist before the stage runs) and ``outputs`` (keys the
    stage's return mapping must contain).  ``run`` returns a mapping of
    newly produced artifacts, which the engine merges into the context.

    Stages whose declared outputs are a pure function of the encoded
    table plus a known set of configuration fields opt into caching by
    setting ``cacheable = True`` and listing those fields (attribute
    names on the context's ``config`` artifact — plain fields or derived
    properties) in ``config_keys``.  Stages that mutate artifacts in
    place, or whose output depends on other run-time state, must stay
    uncacheable (the default).
    """

    name: str = "stage"
    inputs: tuple = ()
    outputs: tuple = ()
    #: Whether the engine may satisfy this stage from its artifact cache.
    cacheable: bool = False
    #: Config attribute names this stage's declared outputs depend on.
    config_keys: tuple = ()

    @abstractmethod
    def run(self, context: StageContext) -> dict | None:
        """Execute the stage; return produced artifacts (or ``None``)."""

    def fingerprint(self, context: StageContext) -> str | None:
        """Content-address of this stage's outputs, or ``None``.

        Combines the stage identity (class, name, declared outputs), the
        table fingerprint exposed by the context's ``mapper`` artifact,
        and the values of the declared ``config_keys`` on the ``config``
        artifact.  Returns ``None`` — "do not cache" — when the stage is
        not cacheable, when the context lacks a fingerprintable mapper,
        or when any config value has no stable encoding.
        """
        if not self.cacheable:
            return None
        artifacts = context.artifacts
        mapper = artifacts.get("mapper")
        config = artifacts.get("config")
        table_fingerprint = getattr(mapper, "fingerprint", None)
        if table_fingerprint is None or config is None:
            return None
        try:
            return fingerprint(
                type(self).__name__,
                self.name,
                tuple(self.outputs),
                table_fingerprint(),
                tuple(
                    (key, getattr(config, key)) for key in self.config_keys
                ),
            )
        except Unfingerprintable:
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ExecutionEngine:
    """Runs stages against a context, enforcing their declared contracts."""

    def __init__(
        self,
        executor: Executor | None = None,
        shards=(),
        cache: ArtifactCache | None = None,
    ) -> None:
        self.executor = executor or SerialExecutor()
        self.shards = tuple(shards)
        self.cache = cache
        #: Callables invoked with a :class:`StageEvent` after every stage
        #: execution — including stages nested inside composite stages.
        #: Hooks observe; they must not mutate artifacts or raise.
        self.stage_hooks: list = []
        #: Wall-clock per stage name for the *current* run (reset by
        #: :meth:`begin_run`); within a run, re-runs of a same-named
        #: stage add up.
        self.stage_seconds: dict = {}
        #: Wall-clock per stage name accumulated across every run this
        #: engine has executed (never reset).
        self.cumulative_stage_seconds: dict = {}

    def begin_run(self) -> None:
        """Start a new run: per-run timings reset, cumulative ones keep."""
        self.stage_seconds = {}

    def run_stage(self, stage: PipelineStage, context: StageContext) -> float:
        """Run one stage (or restore it from cache); returns its seconds."""
        if context.engine is None:
            context.engine = self
        missing = [k for k in stage.inputs if k not in context.artifacts]
        if missing:
            raise StageError(
                f"stage {stage.name!r} is missing inputs {missing}; "
                f"available artifacts: {sorted(context.artifacts)}"
            )
        tracer = context.tracer if context.tracer is not None else NULL_TRACER
        metrics = (
            context.metrics if context.metrics is not None else NULL_METRICS
        )
        key = stage.fingerprint(context) if self.cache is not None else None
        stage_span = tracer.start_span(
            stage.name, kind="stage", parent=context.current_span
        )
        context.span_stack.append(stage_span)
        started = time.perf_counter()
        try:
            produced = MISSING
            if key is not None:
                with tracer.span(
                    "cache.get",
                    kind="cache_lookup",
                    parent=stage_span,
                    stage=stage.name,
                    backend=type(self.cache).__name__,
                ) as lookup:
                    produced = self.cache.get(key)
                    lookup.set(
                        outcome="hit" if produced is not MISSING else "miss"
                    )
            cache_hit = produced is not MISSING
            if not cache_hit:
                produced = stage.run(context) or {}
            absent = [k for k in stage.outputs if k not in produced]
            if absent:
                raise StageError(
                    f"stage {stage.name!r} did not produce declared outputs "
                    f"{absent}"
                )
            context.artifacts.update(produced)
            if key is not None and not cache_hit:
                with tracer.span(
                    "cache.put",
                    kind="cache_store",
                    parent=stage_span,
                    stage=stage.name,
                    backend=type(self.cache).__name__,
                ):
                    self.cache.put(
                        key, {k: produced[k] for k in stage.outputs}
                    )
            # The stage's seconds cover its cache read or write.
            elapsed = time.perf_counter() - started
        except BaseException:
            context.span_stack.pop()
            stage_span.finish(error=True)
            raise
        cache_event = (
            "skipped" if key is None else ("hit" if cache_hit else "miss")
        )
        context.span_stack.pop()
        stage_span.finish(cache=cache_event)
        metrics.counter("stages.executed").increment()
        metrics.counter(f"cache.{cache_event}").increment()
        metrics.histogram(f"stage_seconds.{stage.name}").observe(elapsed)
        if tracer.enabled:
            _log.debug(
                "stage %s finished in %.4fs (cache=%s)",
                stage.name,
                elapsed,
                cache_event,
            )
        self._record_cache_event(context, stage, key, cache_hit)
        for bucket in (self.stage_seconds, self.cumulative_stage_seconds):
            bucket[stage.name] = bucket.get(stage.name, 0.0) + elapsed
        if self.stage_hooks:
            event = StageEvent(
                stage=stage.name,
                seconds=elapsed,
                cache_event=cache_event,
            )
            for hook in self.stage_hooks:
                hook(event)
        return elapsed

    @staticmethod
    def _record_cache_event(context, stage, key, cache_hit) -> None:
        sink = context.execution_stats
        record = getattr(sink, "record_cache", None)
        if record is None:
            return
        if key is None:
            record(stage.name, "skipped")
        else:
            record(stage.name, "hit" if cache_hit else "miss")

    def run(self, stages, context: StageContext) -> dict:
        """Run ``stages`` in order; returns the final artifact namespace.

        Each call is one *run*: per-run ``stage_seconds`` start empty
        while ``cumulative_stage_seconds`` keep accumulating, so a
        reused engine reports both faithfully.
        """
        self.begin_run()
        for stage in stages:
            self.run_stage(stage, context)
        return context.artifacts
