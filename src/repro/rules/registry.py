"""Named, persisted rulesets and their query indexes.

:class:`RulesetRegistry` is the state behind the serving layer's
``/v1/rulesets`` routes and the CLI's offline ``predict``: it holds
exported rule documents by caller-chosen id, persists them as one
atomic JSON file each under an optional directory (reloaded on
construction, mirroring the serve job store), and lazily builds one
:class:`~repro.rules.index.RuleIndex` per distinct document *content* —
two ids uploading the same document share one index, both in memory and
through the optional :class:`~repro.engine.cache.ArtifactCache`, which
also lets a restarted process skip the index rebuild entirely.

Ruleset ids share the job-id charset (filename-safe, no separators) so
an id can never traverse out of the storage directory; validation is
local to keep :mod:`repro.rules` importable without the serve layer.

Every query emits ``rules.*`` metrics (counters + latency histograms)
and a span when an :class:`~repro.obs.Observability` bundle is
attached; without one the no-op instruments keep the hot path clean.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from ..core.export import write_json_atomic
from ..engine.fingerprint import fingerprint
from ..obs import DEFAULT_LATENCY_BUCKETS, NULL_METRICS, NULL_TRACER
from .index import INDEX_CACHE_PREFIX, RuleIndex

#: Same shape as the serve job store's id rule: leading alphanumeric,
#: then filename-safe characters only, at most 100 total.  Anything that
#: could escape the storage directory (slashes, leading dots) is out.
_SAFE_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,99}$")

#: Filename suffix for persisted ruleset documents.
_DOC_SUFFIX = ".ruleset.json"


def validate_ruleset_id(ruleset_id: str) -> str:
    """Return ``ruleset_id`` if storable; raise ``ValueError`` otherwise."""
    if not isinstance(ruleset_id, str) or not _SAFE_ID.match(ruleset_id):
        raise ValueError(
            "ruleset id must be 1-100 characters of [A-Za-z0-9_.-] "
            f"starting alphanumeric, got {ruleset_id!r}"
        )
    return ruleset_id


def document_fingerprint(document: dict) -> str:
    """Content address of a ruleset document (key of the index cache)."""
    return fingerprint(
        "RulesetDocumentV1", json.dumps(document, sort_keys=True)
    )


class RulesetRegistry:
    """Uploadable rulesets with per-content query indexes.

    Parameters
    ----------
    directory:
        Where to persist uploaded documents (one atomic JSON file per
        id), and reload them from at startup.  ``None`` keeps the
        registry memory-only.
    cache:
        An :class:`~repro.engine.cache.ArtifactCache` for built indexes,
        keyed by document content — so identical rulesets (or process
        restarts over a :class:`~repro.engine.cache.DiskCache`) reuse
        one index.  ``None`` builds indexes fresh per document content.
    observability:
        Metrics/tracing bundle; queries emit ``rules.*`` counters,
        latency histograms and spans through it.
    """

    def __init__(self, directory=None, cache=None, observability=None) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._cache = cache
        self._metrics = (
            observability.metrics if observability is not None
            else NULL_METRICS
        )
        self._tracer = (
            observability.tracer if observability is not None
            else NULL_TRACER
        )
        self._documents: dict = {}
        self._indexes: dict = {}  # document fingerprint -> RuleIndex
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._load_persisted()

    def _load_persisted(self) -> None:
        for path in sorted(self._directory.glob("*" + _DOC_SUFFIX)):
            ruleset_id = path.name[: -len(_DOC_SUFFIX)]
            if not _SAFE_ID.match(ruleset_id):
                continue
            try:
                self._documents[ruleset_id] = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # torn/foreign file: skip, never crash startup

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, ruleset_id: str, document: dict) -> dict:
        """Store ``document`` under ``ruleset_id``; returns its metadata.

        Overwrites silently (re-uploading a mined result under the same
        name is the natural refresh idiom); the index for the new
        content is built lazily on first query.
        """
        validate_ruleset_id(ruleset_id)
        if not isinstance(document, dict):
            raise ValueError("ruleset document must be a JSON object")
        # Validate eagerly: a document the index cannot ingest should
        # fail the upload, not the first query.
        index = self._index_for(document)
        self._documents[ruleset_id] = document
        if self._directory is not None:
            write_json_atomic(
                document, self._directory / (ruleset_id + _DOC_SUFFIX)
            )
        self._metrics.counter("rules.rulesets_uploaded").increment()
        return self.describe(ruleset_id, index=index)

    def delete(self, ruleset_id: str) -> bool:
        """Drop a ruleset; True when one existed under that id."""
        validate_ruleset_id(ruleset_id)
        existed = self._documents.pop(ruleset_id, None) is not None
        if existed and self._directory is not None:
            path = self._directory / (ruleset_id + _DOC_SUFFIX)
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return existed

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def ids(self) -> list:
        return sorted(self._documents)

    def __contains__(self, ruleset_id) -> bool:
        return ruleset_id in self._documents

    def document(self, ruleset_id: str) -> dict:
        validate_ruleset_id(ruleset_id)
        return self._documents[ruleset_id]  # KeyError -> 404 upstream

    def index(self, ruleset_id: str) -> RuleIndex:
        """The query index for one ruleset (built/cached on demand)."""
        return self._index_for(self.document(ruleset_id))

    def describe(self, ruleset_id: str, index=None) -> dict:
        """JSON-ready metadata for one ruleset (the GET route body)."""
        document = self.document(ruleset_id)
        if index is None:
            index = self._index_for(document)
        return {
            "ruleset_id": ruleset_id,
            "format": document.get("format"),
            "num_rules": index.num_rules,
            "attributes": list(index.attribute_names),
            "fingerprint": document_fingerprint(document),
            "indexed": index.indexed,
        }

    def _index_for(self, document: dict) -> RuleIndex:
        fp = document_fingerprint(document)
        index = self._indexes.get(fp)
        if index is not None:
            return index
        key = INDEX_CACHE_PREFIX + fp
        if self._cache is not None:
            index = RuleIndex.load(self._cache, key)
        if index is None:
            span = self._tracer.start_span("rules.build_index", kind="stage")
            index = RuleIndex.from_document(document)
            span.finish(num_rules=index.num_rules)
            self._metrics.counter("rules.indexes_built").increment()
            if self._cache is not None:
                self._cache.put(key, index)
        self._indexes[fp] = index
        return index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def match(self, ruleset_id: str, record: dict) -> list:
        """Fired rules for ``record``, instrumented."""
        index = self.index(ruleset_id)
        span = self._tracer.start_span(
            "rules.match", kind="event", ruleset_id=ruleset_id
        )
        start = time.perf_counter()
        matches = index.match(record)
        elapsed = time.perf_counter() - start
        span.finish(matches=len(matches))
        self._observe("match", ruleset_id, elapsed)
        return matches

    def predict(
        self, ruleset_id: str, record: dict, target: str, top=None
    ):
        """Target-directed match + prediction, instrumented."""
        index = self.index(ruleset_id)
        span = self._tracer.start_span(
            "rules.predict", kind="event",
            ruleset_id=ruleset_id, target=target,
        )
        start = time.perf_counter()
        prediction = index.predict(record, target, top=top)
        elapsed = time.perf_counter() - start
        span.finish(matches=len(prediction.matches))
        self._observe("predict", ruleset_id, elapsed)
        return prediction

    def _observe(self, op: str, ruleset_id: str, elapsed: float) -> None:
        labels = {"op": op, "ruleset": ruleset_id}
        self._metrics.counter("rules.queries", labels).increment()
        self._metrics.histogram(
            "rules.query_seconds", labels, buckets=DEFAULT_LATENCY_BUCKETS
        ).observe(elapsed)
