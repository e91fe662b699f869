"""Layer probes for the traced pass: spans around each layer's public calls.

The probes live in the benchmark, not in the program: installing them
replaces each named function or method with a wrapper that records one
span per call while an operation is open.  Every span carries its name,
start, end, parent span and operation id; the tracer keeps them in
memory and writes them once, when the run ends.  A ``gc.callbacks``
probe records each garbage collection as a ``runtime.gc`` span under
whatever span was open when it started.

If a probed name no longer exists, :func:`install_probes` raises, so a
refactor that moves a layer shows up as an error, never as a silent 0.

The tracer here is deliberately not ``repro.obs``: the program's own
instrumentation and its overhead are part of what is being measured.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


def _len_result(args, kwargs, result):
    return {"n": len(result)}


def _pairs_counted(args, kwargs, result):
    frequent, num_candidates = result
    return {"n": num_candidates}


def _filter_funnel(args, kwargs, result):
    rules = args[1] if len(args) > 1 else kwargs["rules"]
    return {"in": len(rules), "n": len(result)}


def _cache_outcome(args, kwargs, result):
    from repro.engine.cache import MISSING

    return {"hit": int(result is not MISSING)}


#: (module, attribute path, span name, per-call counter or None).  The
#: attribute path is looked up on the module at install time; a method
#: is patched on its class, a function where the caller binds it.
PROBES = (
    ("repro.core.mapper", "TableMapper.__init__", "mapper.encode", None),
    (
        "repro.core.miner",
        "QuantitativeMiner.realized_completeness",
        "miner.realized_k",
        None,
    ),
    (
        "repro.core.frequent_items",
        "find_frequent_items",
        "frequent_items.find",
        None,
    ),
    (
        "repro.core.apriori_quant",
        "generate_candidates",
        "candidates.generate",
        _len_result,
    ),
    ("repro.core.counting", "group_candidates", "counting.group", None),
    ("repro.core.counting", "count_groups", "counting.kernel", None),
    (
        "repro.core.apriori_quant",
        "count_frequent_pairs",
        "counting.pairs",
        _pairs_counted,
    ),
    (
        "repro.core.apriori_quant",
        "count_itemsets",
        "counting.itemsets",
        _len_result,
    ),
    ("repro.core.counting", "sharded_map_cached", "engine.dispatch", None),
    ("repro.core.rulegen", "generate_rules", "rulegen.generate", _len_result),
    (
        "repro.core.interest",
        "InterestEvaluator.filter_rules",
        "interest.filter",
        _filter_funnel,
    ),
    ("repro.engine.stage", "ExecutionEngine.run_stage", "engine.stage", None),
    ("repro.engine.cache", "MemoryCache.put", "cache.put", None),
    ("repro.engine.cache", "MemoryCache.get", "cache.get", _cache_outcome),
    ("repro.rules.index", "RuleIndex.from_result", "rules.build", None),
    (
        "repro.rules.index",
        "RuleIndex.encode_record",
        "rules.encode_record",
        None,
    ),
    ("repro.rules.index", "RuleIndex.match", "rules.match", _len_result),
    ("repro.rules.index", "RuleIndex.predict", "rules.predict", None),
    ("repro.rtree.rstar", "RStarTree.insert", "rtree.insert", None),
    (
        "repro.rtree.rstar",
        "RStarTree.containing_point",
        "rtree.containing_point",
        None,
    ),
)

GC_SPAN = "runtime.gc"


class Tracer:
    """In-memory span recorder for one process.

    Spans are tuples ``(name, start, end, parent, op, counts)`` where
    ``parent`` is the index of the enclosing span in :attr:`spans` (or
    ``None`` at the top of an operation) and ``op`` the operation id.
    Nothing is recorded outside :meth:`op`, so set-up and output checks
    stay out of the trace.
    """

    def __init__(self) -> None:
        self.spans: list = []
        #: ``(op id, start, end)`` per traced operation.
        self.ops: list = []
        self._op = None
        self._stack: list = []
        self._gc_started = None

    @contextmanager
    def op(self, op_id):
        """Record the spans of one operation; yields nothing."""
        self._op = op_id
        self._stack = []
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._op = None
            self.ops.append((op_id, start, end))

    def call(self, name, counter, fn, args, kwargs):
        if self._op is None:
            return fn(*args, **kwargs)
        stack = self._stack
        # Reserve the span's slot now so children can name it as parent.
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        counts = None
        start = _clock()
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, kwargs, result)
            return result
        finally:
            end = _clock()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self._op, counts)

    def gc_callback(self, phase, info) -> None:
        if self._op is None:
            return
        if phase == "start":
            self._gc_started = _clock()
            return
        if self._gc_started is None:
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            (GC_SPAN, self._gc_started, _clock(), parent, self._op, None)
        )
        self._gc_started = None

    def write(self, path) -> None:
        """Write every span and operation once, as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "counts"],
                    "spans": self.spans,
                    "ops": self.ops,
                },
                fh,
            )


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, raw attribute)`` for a probe path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise LookupError(
            f"layer probe {module_name}.{path} no longer exists; update "
            "PROBES in pipebench/probes.py to the layer's new public call"
        ) from None
    if not callable(getattr(owner, attr)):
        raise LookupError(f"layer probe {module_name}.{path} is not callable")
    return owner, attr, raw


def _wrap(tracer, name, counter, fn):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        return tracer.call(name, counter, fn, args, kwargs)

    return probe


@contextmanager
def install_probes(tracer: Tracer, probes=PROBES):
    """Wrap every probed call and hook the collector; undo on exit.

    Every probe path is resolved before anything is patched, so a
    missing name leaves the program untouched and raises
    :class:`LookupError`.
    """
    resolved = [
        (_resolve(module, path), name, counter)
        for module, path, name, counter in probes
    ]
    patched = []
    try:
        for (owner, attr, raw), name, counter in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(
                    _wrap(tracer, name, counter, raw.__func__)
                )
            else:
                replacement = _wrap(tracer, name, counter, raw)
            had_own = attr in vars(owner)
            setattr(owner, attr, replacement)
            patched.append((owner, attr, raw, had_own))
        gc.callbacks.append(tracer.gc_callback)
        yield tracer
    finally:
        if tracer.gc_callback in gc.callbacks:
            gc.callbacks.remove(tracer.gc_callback)
        for owner, attr, raw, had_own in reversed(patched):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: summed self seconds, call count and counter sums.

    Self time is a span's duration minus the durations of its direct
    children (spans nest strictly in this single-threaded run, so the
    children never overlap).  ``unattributed`` is each operation's wall
    time not covered by any of its top-level spans.
    """
    spans = tracer.spans
    child_seconds = [0.0] * len(spans)
    top_seconds: dict = {}
    for name, start, end, parent, op, _ in spans:
        if parent is None:
            top_seconds[op] = top_seconds.get(op, 0.0) + (end - start)
        else:
            child_seconds[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_seconds[i]
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    wall = sum(end - start for _, start, end in tracer.ops)
    covered = sum(top_seconds.values())
    return {
        "layers": totals,
        "ops": len(tracer.ops),
        "op_wall_s": wall,
        "unattributed_s": wall - covered,
    }
