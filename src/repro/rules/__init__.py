"""Rule serving: goal-directed mining output as a queryable model.

The mining side of the repo answers "which rules hold over this table";
this package answers the inverse, operational question — "which rules
fire for *this record*, and what do they predict" — at interactive
latency:

- :class:`~repro.rules.index.RuleIndex` — range-containment index over
  a ruleset's antecedents (per-attribute bound arrays over the mapped
  code space, linear scan as the proven-equivalent fallback), with
  ``match`` and ``predict`` point queries, document/JSON round-trips
  and content-addressed persistence.
- :class:`~repro.rules.registry.RulesetRegistry` — named uploaded
  rulesets with per-content index caching, disk persistence and
  ``rules.*`` observability; the state behind ``/v1/rulesets``.

Pairs with goal-directed mining (``MinerConfig(target=...)``), which
produces exactly the rules concluding on one attribute while counting
strictly fewer candidates — mine toward the attribute you want to
predict, then serve the result here.
"""

from .index import (
    INDEX_CACHE_PREFIX,
    MISSING_CODE,
    Prediction,
    RuleIndex,
    RuleMatch,
    filter_rules_to_target,
)
from .registry import (
    RulesetRegistry,
    document_fingerprint,
    validate_ruleset_id,
)

__all__ = [
    "INDEX_CACHE_PREFIX",
    "MISSING_CODE",
    "Prediction",
    "RuleIndex",
    "RuleMatch",
    "RulesetRegistry",
    "document_fingerprint",
    "filter_rules_to_target",
    "validate_ruleset_id",
]
