"""Trace and metrics exporters: JSON-lines, Chrome trace, text report.

Three consumers, three formats, one span list:

- :func:`write_spans_jsonl` / :func:`read_spans_jsonl` — the lossless
  machine format (one JSON object per span per line); round-trips back
  into :class:`~repro.obs.tracer.Span` objects for offline analysis.
- :func:`write_chrome_trace` — the Chrome trace-event format
  (``chrome://tracing`` / https://ui.perfetto.dev): stages, shard
  tasks and cache lookups as complete (``"ph": "X"``) events on named
  lanes, so a sweep's concurrency structure is visible on a timeline.
- :func:`render_timing_report` — the human ``--explain-timing`` text:
  the span tree with durations, cache outcomes and shard-balance
  summaries.

The ``validate_*`` functions define the exporter schemas operationally
— ``tools/check_trace_schema.py`` and the CI smoke step call them, so
"valid" means exactly "these functions return no errors".
"""

from __future__ import annotations

import json

from .tracer import Span
from .views import shard_seconds, shard_skew, span_tree

#: Required span-record fields and the types their values must have.
SPAN_RECORD_FIELDS = {
    "span_id": int,
    "parent_id": (int, type(None)),
    "trace_id": str,
    "name": str,
    "kind": str,
    "start": (int, float),
    "duration": (int, float),
    "thread": str,
    "pid": int,
    "attributes": dict,
}

_HEX_DIGITS = frozenset("0123456789abcdef")


def span_to_record(span: Span) -> dict:
    """One span as the plain JSON-serializable record the log stores."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "name": span.name,
        "kind": span.kind,
        "start": span.start,
        "duration": span.duration,
        "thread": span.thread,
        "pid": span.pid,
        "attributes": span.attributes,
    }


def span_from_record(record: dict) -> Span:
    """Rebuild a :class:`~repro.obs.tracer.Span` from its JSON record."""
    return Span(
        name=record["name"],
        kind=record["kind"],
        span_id=record["span_id"],
        parent_id=record["parent_id"],
        start=record["start"],
        duration=record["duration"],
        attributes=record.get("attributes", {}),
        thread=record.get("thread", ""),
        pid=record.get("pid", 0),
        trace_id=record.get("trace_id", ""),
    )


def write_spans_jsonl(spans, path) -> None:
    """Write one JSON object per span per line (the ``--trace-out`` log)."""
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span_to_record(span), sort_keys=True))
            f.write("\n")


def read_spans_jsonl(path) -> list:
    """Reload a span log written by :func:`write_spans_jsonl`."""
    spans = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(span_from_record(json.loads(line)))
    return spans


def validate_span_record(record, line: int | None = None) -> list:
    """Schema-check one span record; returns a list of error strings."""
    where = "record" if line is None else f"line {line}"
    if not isinstance(record, dict):
        return [f"{where}: expected a JSON object, got {type(record).__name__}"]
    errors = []
    for name, types in SPAN_RECORD_FIELDS.items():
        if name not in record:
            errors.append(f"{where}: missing field {name!r}")
        elif not isinstance(record[name], types) or (
            # bool is an int subclass; never a valid numeric/int field.
            isinstance(record[name], bool)
        ):
            errors.append(
                f"{where}: field {name!r} has type "
                f"{type(record[name]).__name__}"
            )
    for name in record:
        if name not in SPAN_RECORD_FIELDS:
            errors.append(f"{where}: unknown field {name!r}")
    if not errors and record["duration"] < 0:
        errors.append(f"{where}: negative duration")
    if not errors:
        trace_id = record["trace_id"]
        if trace_id and (
            len(trace_id) != 32 or not _HEX_DIGITS.issuperset(trace_id)
        ):
            errors.append(
                f"{where}: trace_id must be empty or 32 lowercase hex "
                f"digits, got {trace_id!r}"
            )
    return errors


def validate_spans_jsonl(path) -> list:
    """Schema-check a span log file; returns a list of error strings.

    Beyond per-record validation, checks referential integrity: every
    non-null ``parent_id`` must name a ``span_id`` present in the log
    (the property that makes the log a self-contained tree).
    """
    errors = []
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not valid JSON ({exc})")
                continue
            errors.extend(validate_span_record(record, lineno))
            records.append(record)
    if not records:
        errors.append("no span records found")
    if errors:
        return errors
    ids = {record["span_id"] for record in records}
    if len(ids) != len(records):
        errors.append("duplicate span_id values")
    for record in records:
        parent = record["parent_id"]
        if parent is not None and parent not in ids:
            errors.append(
                f"span {record['span_id']} references missing parent "
                f"{parent}"
            )
    return errors


def chrome_trace_document(spans, epoch_wall: float = 0.0) -> dict:
    """Spans as a Chrome trace-event document (``chrome://tracing``).

    Every span becomes a complete event (``"ph": "X"``) with
    microsecond timestamps on the wall clock (``epoch_wall`` places the
    tracer's monotonic offsets).  Lanes (``tid``) come from the span's
    ``thread`` label — shard tasks carry synthetic per-task lanes so a
    fan-out renders as parallel bars — and each lane is named with a
    ``thread_name`` metadata event.
    """
    tids: dict = {}
    events = []
    for span in spans:
        lane = (span.pid, span.thread)
        if lane not in tids:
            tids[lane] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": span.pid,
                    "tid": tids[lane],
                    "args": {"name": span.thread},
                }
            )
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.kind,
                "ts": (epoch_wall + span.start) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": tids[lane],
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path, epoch_wall: float = 0.0) -> None:
    """Write :func:`chrome_trace_document` as a JSON file."""
    with open(path, "w") as f:
        json.dump(chrome_trace_document(spans, epoch_wall), f)


def validate_chrome_trace(document) -> list:
    """Schema-check a Chrome trace document; returns error strings."""
    if not isinstance(document, dict):
        return ["expected a JSON object with a traceEvents array"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    errors = []
    seen_complete = False
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            errors.append(f"event {i}: unsupported phase {phase!r}")
            continue
        required = (
            ("name", "pid", "tid") if phase == "M"
            else ("name", "cat", "ts", "dur", "pid", "tid")
        )
        for field in required:
            if field not in event:
                errors.append(f"event {i}: missing field {field!r}")
        if phase == "X":
            seen_complete = True
            if event.get("dur", 0) < 0:
                errors.append(f"event {i}: negative duration")
    if not seen_complete and not errors:
        errors.append("no complete ('ph': 'X') events found")
    return errors


def validate_metrics_snapshot(document) -> list:
    """Schema-check a metrics snapshot document; returns error strings."""
    if not isinstance(document, dict):
        return ["expected a JSON object"]
    errors = []
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(document.get(section), dict):
            errors.append(f"missing or non-object section {section!r}")
    for name in document:
        if name not in ("counters", "gauges", "histograms"):
            errors.append(f"unknown section {name!r}")
    if errors:
        return errors
    for name, value in document["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"counter {name!r}: value must be an integer")
    for name, value in document["gauges"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"gauge {name!r}: value must be a number")
    for name, summary in document["histograms"].items():
        if not isinstance(summary, dict):
            errors.append(f"histogram {name!r}: summary must be an object")
            continue
        for field in ("count", "sum", "min", "max", "mean"):
            if field not in summary:
                errors.append(f"histogram {name!r}: missing {field!r}")
    return errors


def _format_seconds(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms" if seconds < 1.0 else f"{seconds:.2f}s"


def render_timing_report(spans, metrics_snapshot: dict | None = None) -> str:
    """The human ``--explain-timing`` view of one trace.

    Renders the span tree indented by depth — runs, jobs and stages as
    their own lines, each stage's shard fan-out folded into a one-line
    summary (task count, summed worker time, skew), cache lookups
    folded into the stage's ``cache=...`` annotation, cache writes
    (``cache.put``) on a line of their own — followed by the metrics
    snapshot when given.
    """
    tree = span_tree(spans)
    per_stage_shards = shard_seconds(spans)
    skews = shard_skew(spans)
    lines: list = []

    def describe(span) -> str:
        label = f"{span.name} [{span.kind}]"
        cache = span.attributes.get("cache")
        if cache is not None and cache != "skipped":
            label += f" cache={cache}"
        return f"{label}: {_format_seconds(span.duration)}"

    def walk(span, depth: int) -> None:
        lines.append("  " * depth + describe(span))
        shards = [
            child for child in tree.get(span.span_id, ())
            if child.kind == "shard_task"
        ]
        by_stage: dict = {}
        for child in shards:
            by_stage.setdefault(
                child.attributes.get("stage", child.name), []
            ).append(child)
        for stage_name in by_stage:
            seconds = [child.duration for child in by_stage[stage_name]]
            skew = skews.get(stage_name)
            skew_note = f", skew {skew:.2f}" if skew is not None else ""
            lines.append(
                "  " * (depth + 1)
                + f"{stage_name}: {len(seconds)} shard task(s), "
                f"{_format_seconds(sum(seconds))} worker time{skew_note}"
            )
        for child in tree.get(span.span_id, ()):
            # Per-shard remote dispatch/worker spans and point events
            # are folded into the shard summary lines above, like the
            # local shard_task spans they mirror.
            if child.kind not in (
                "shard_task", "cache_lookup",
                "remote_dispatch", "worker_shard", "event",
            ):
                walk(child, depth + 1)

    for root in tree[None]:
        walk(root, 0)
    if not lines:
        lines.append("(no spans recorded)")
    if per_stage_shards:
        total = sum(sum(v) for v in per_stage_shards.values())
        count = sum(len(v) for v in per_stage_shards.values())
        lines.append(
            f"total shard tasks: {count} ({_format_seconds(total)} "
            "worker time)"
        )
    if metrics_snapshot:
        lines.append("")
        lines.append("metrics:")
        for name, value in metrics_snapshot.get("counters", {}).items():
            lines.append(f"  {name}: {value}")
        for name, value in metrics_snapshot.get("gauges", {}).items():
            rendered = (
                f"{value:.4g}" if isinstance(value, float) else str(value)
            )
            lines.append(f"  {name}: {rendered}")
        for name, summary in metrics_snapshot.get("histograms", {}).items():
            lines.append(
                f"  {name}: n={summary['count']} "
                f"sum={summary['sum']:.4g} "
                f"min={summary['min']:.4g} max={summary['max']:.4g}"
                if summary["count"]
                else f"  {name}: n=0"
            )
    return "\n".join(lines)
