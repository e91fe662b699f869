"""Candidate generation for quantitative itemsets (Section 5.1).

Three phases over the frequent (k-1)-itemsets L_{k-1}, held as rows of
catalog ids (:mod:`repro.core.levels`):

1. **Join** — itemsets agreeing on their lexicographically first k-2 items
   whose last items lie on *different attributes* are merged.  (Requiring
   distinct attributes is what keeps two ranges over the same attribute
   from appearing in one itemset.)  Within a prefix group the last items
   are sorted, so their attributes form runs, and each row pairs only
   with the rows past its own run.
2. **Subset prune** — candidates with any (k-1)-subset missing from
   L_{k-1} are deleted, exactly as in boolean Apriori.  The join already
   guarantees the two subsets that drop a joined item, so only the k-2
   that drop a prefix item are looked up.
3. **Interest prune** — handled one level earlier: Lemma 5 removes
   over-supported quantitative *items* at the end of pass 1 (see
   ``frequent_items._interest_prune``), so no candidate containing one is
   ever constructed here.
"""

from __future__ import annotations

import numpy as np

from .levels import ItemCatalog, RowIndex, expand_ranges


def _segment_ends(starts: np.ndarray) -> np.ndarray:
    """Per row, the end of its segment; ``starts[i]`` marks row i as a
    segment's first row (``starts[0]`` is always set)."""
    first = np.flatnonzero(starts)
    ends = np.append(first[1:], len(starts))
    return ends[np.cumsum(starts) - 1]


def generate_candidates(catalog: ItemCatalog, rows: np.ndarray) -> np.ndarray:
    """Join + subset prune: candidate k-itemsets from L_{k-1}'s id rows.

    Returns an (m, k) ``int32`` id matrix in canonical order.
    """
    n, width = rows.shape
    if width < 1:
        raise ValueError("candidate generation starts at k=2")
    rows = rows[np.lexsort(rows.T[::-1])]
    last = rows[:, -1]
    group_starts = np.zeros(n, dtype=bool)
    group_starts[:1] = True
    group_starts[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    attribute = catalog.attribute[last]
    run_starts = group_starts.copy()
    run_starts[1:] |= attribute[1:] != attribute[:-1]
    run_ends = _segment_ends(run_starts)
    left, right = expand_ranges(run_ends, _segment_ends(group_starts) - run_ends)
    candidates = np.concatenate([rows[left], last[right, None]], axis=1)
    if width > 1 and len(candidates):
        index = RowIndex(list(rows.T), n)
        keep = np.ones(len(candidates), dtype=bool)
        for drop in range(width - 1):
            subset = [candidates[:, c] for c in range(width + 1) if c != drop]
            start, stop = index.ranges(subset, len(candidates))
            keep &= stop > start
        candidates = candidates[keep]
    return candidates
