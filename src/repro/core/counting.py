"""Support counting via super-candidates (Section 5.2).

Candidates sharing the same attributes and the same categorical values are
grouped into a *super-candidate*: its categorical part is a fixed
conjunction of <attribute, value> pairs, and its quantitative part is a set
of n-dimensional rectangles (one per candidate).  A record whose
categorical attributes match contributes the point formed by its
quantitative values; the candidate's support is the number of such points
its rectangle contains.

Counting is *record-shardable*: every primitive here runs identically on
the full table or on one :class:`~repro.engine.shards.TableShard`'s
:class:`~repro.engine.shards.ShardView`, and per-shard counts are plain
integers that sum to the exact global counts.  The structure for each
group is chosen once, against full-table cardinalities, before any
fan-out, so the shard layout can never change which structure answers a
group.

Two structures answer "how many points fall in each rectangle":

``array``
    The paper's multi-dimensional array: a joint histogram over the
    quantitative attributes' mapped values, turned into an inclusive
    prefix-sum table so each rectangle is answered with a 2^n-corner
    inclusion–exclusion in O(1).  Cheap CPU, memory proportional to the
    product of attribute cardinalities.
``rtree``
    The paper's R*-tree: rectangles are indexed, each record issues one
    point-containment query.  Memory proportional to the number of
    candidates, CPU higher.

One rule picks between them (``choose_backend``): every counting table
is charged against the memory budget at 8 bytes a cell.  A table within
the budget is counted with the array, a table past it with the R*-tree.
Pass 2 applies the rule per attribute pair: a pair whose table fits is
answered as one cross product, a pair past the budget is counted as
explicit super-candidates, each under the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from ..engine.shard_cache import sharded_map_cached
from ..engine.shards import plan_shards
from ..rtree import Rect, bulk_load
from .levels import ItemCatalog, Level, RowIndex
from .mapper import TableMapper

#: Bytes a counting table is charged per cell (one int64 count).
_CELL_BYTES = 8

#: Pseudo-backend for pure-categorical groups: the support is the
#: categorical mask's population count, no spatial structure involved.
MASK_BACKEND = "mask"


@dataclass
class SuperCandidate:
    """A group of candidates differing only in their quantitative ranges."""

    categorical_items: tuple  # items fixing the categorical attributes
    quant_attrs: tuple  # quantitative attribute indices, sorted
    candidates: np.ndarray  # (m, k) catalog-id rows, one per candidate
    lo: np.ndarray  # (m, ndim) rectangle lower bounds, by quant_attrs
    hi: np.ndarray  # (m, ndim) rectangle upper bounds

    @property
    def ndim(self) -> int:
        return len(self.quant_attrs)

    def rectangles(self) -> tuple:
        """(lo, hi) integer arrays of shape (num_candidates, ndim)."""
        return self.lo, self.hi


def group_candidates(catalog: ItemCatalog, rows, quantitative: set) -> list:
    """Partition candidate id rows into super-candidates.

    ``quantitative`` is the set of quantitative attribute indices; items on
    other attributes form the fixed categorical part of the key.  Groups
    come in order of their first row, and keep their rows in order.
    """
    num_rows = len(rows)
    if not num_rows:
        return []
    attribute = catalog.attribute[rows]
    quant = np.isin(attribute, list(quantitative))
    # One key column per position: the categorical item's id, or the
    # quantitative attribute past every id.
    key = np.where(quant, attribute + len(catalog), rows)
    index = RowIndex(list(key.T), num_rows)
    order, keys = index.order, index.keys
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    stops = np.append(starts[1:], num_rows)
    groups = []
    for g in np.argsort(order[starts], kind="stable"):
        members = order[starts[g]:stops[g]]
        first = members[0]
        quant_at = np.flatnonzero(quant[first])
        member_rows = rows[members]
        bounds = member_rows[:, quant_at]
        groups.append(
            SuperCandidate(
                tuple(
                    catalog.items[i]
                    for i in member_rows[0][~quant[first]].tolist()
                ),
                tuple(attribute[first, quant_at].tolist()),
                member_rows,
                catalog.lo[bounds],
                catalog.hi[bounds],
            )
        )
    return groups


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def categorical_mask(mapper: TableMapper, items) -> np.ndarray | None:
    """Boolean record mask for a conjunction of categorical items.

    Returns ``None`` for an empty conjunction (every record matches),
    letting callers skip the masking cost entirely.
    """
    mask = None
    for item in items:
        column_match = mapper.column(item.attribute) == item.lo
        mask = column_match if mask is None else mask & column_match
    return mask


class RecordSelection:
    """The records of ``view`` that match a categorical conjunction.

    Presents the view's counting surface (``num_records`` / ``column`` /
    ``cardinality``) over just those records, so a
    :class:`PrefixSumCounter` or an R*-tree scan built on it sees only
    the matching records.  The conjunction's mask is built once; each
    column is gathered by index on first use, narrowed to the smallest
    unsigned type that holds the attribute's cardinality, and kept as
    long as the selection is, so every group sharing the conjunction
    reuses it.  An empty conjunction selects every record and gathers
    nothing.
    """

    def __init__(self, view, items) -> None:
        self._view = view
        mask = categorical_mask(view, items)
        self._rows = None if mask is None else np.flatnonzero(mask)
        self._columns: dict = {}

    @property
    def num_records(self) -> int:
        if self._rows is None:
            return self._view.num_records
        return len(self._rows)

    def column(self, index: int) -> np.ndarray:
        if self._rows is None:
            return self._view.column(index)
        column = self._columns.get(index)
        if column is None:
            codes = np.min_scalar_type(self.cardinality(index))
            column = self._view.column(index).take(self._rows).astype(codes)
            self._columns[index] = column
        return column

    def cardinality(self, index: int) -> int:
        return self._view.cardinality(index)


def _flat_cells(columns, shape) -> np.ndarray:
    """Each record's C-order cell index in a table of ``shape``.

    The arithmetic of ``np.ravel_multi_index`` without its bounds check
    (mapped codes always lie within their attribute's cardinality), in
    ``intp`` so that narrow code columns cannot overflow.
    """
    flat = columns[0]
    for column, size in zip(columns[1:], shape[1:]):
        flat = np.multiply(flat, size, dtype=np.intp)
        flat += column
    return flat


class PrefixSumCounter:
    """The multi-dimensional array of Section 5.2, with prefix sums.

    Builds the joint histogram of the given quantitative attributes over
    every record of ``mapper`` (a table, a shard or a
    :class:`RecordSelection`) and pre-computes an inclusive prefix-sum
    table, after which any axis-aligned integer rectangle is counted in
    O(2^ndim).
    """

    def __init__(self, mapper: TableMapper, quant_attrs) -> None:
        self._shape = tuple(mapper.cardinality(a) for a in quant_attrs)
        flat = _flat_cells(
            [mapper.column(a) for a in quant_attrs], self._shape
        )
        hist = np.bincount(
            flat, minlength=int(np.prod(self._shape))
        ).reshape(self._shape)
        # Zero-padded cumulative table: P[i1..in] counts points with
        # coordinate_d < i_d in every dimension d.
        table = hist.astype(np.int64)
        for axis in range(table.ndim):
            table = np.cumsum(table, axis=axis)
        self._table = np.pad(table, [(1, 0)] * table.ndim)

    def count_rects(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Counts for rectangles given as (m, ndim) integer bound arrays."""
        ndim = len(self._shape)
        counts = np.zeros(len(lo), dtype=np.int64)
        # Inclusion–exclusion over the 2^ndim corners: pick hi_d + 1
        # (inside) or lo_d (outside) per dimension; sign flips per
        # "outside" choice.
        for corner in product((0, 1), repeat=ndim):
            idx = tuple(
                hi[:, d] + 1 if corner[d] else lo[:, d] for d in range(ndim)
            )
            sign = 1 if (ndim - sum(corner)) % 2 == 0 else -1
            counts += sign * self._table[idx]
        return counts

    def count_cross(self, ranges_per_dim) -> np.ndarray:
        """Counts for the full cross product of per-dimension range lists.

        ``ranges_per_dim[d]`` holds (lo, hi) pairs; the result has
        shape ``(len(ranges_per_dim[0]), ..., len(ranges_per_dim[-1]))``.
        This is the pass-2 fast path: outer indexing answers every
        combination without materializing candidate objects.
        """
        ndim = len(self._shape)
        bounds = [
            np.asarray(dim, dtype=np.int64).reshape(-1, 2)
            for dim in ranges_per_dim
        ]
        los = [dim[:, 0] for dim in bounds]
        his = [dim[:, 1] for dim in bounds]
        shape = tuple(len(dim) for dim in ranges_per_dim)
        counts = np.zeros(shape, dtype=np.int64)
        for corner in product((0, 1), repeat=ndim):
            idx = np.ix_(
                *(
                    his[d] + 1 if corner[d] else los[d]
                    for d in range(ndim)
                )
            )
            sign = 1 if (ndim - sum(corner)) % 2 == 0 else -1
            counts += sign * self._table[idx]
        return counts


# ----------------------------------------------------------------------
# Per-group structures
# ----------------------------------------------------------------------
def _count_group_array(group, selection) -> list:
    counter = PrefixSumCounter(selection, group.quant_attrs)
    lo, hi = group.rectangles()
    return counter.count_rects(lo, hi).tolist()


def _count_group_rtree(group, selection) -> list:
    lo, hi = group.rectangles()
    # STR bulk loading: the rectangle set is fully known up front, so
    # packing beats incremental R* insertion and yields a tighter tree.
    tree = bulk_load(
        (
            (Rect(lo[i], hi[i]), i)
            for i in range(len(group.candidates))
        ),
        max_entries=16,
    )
    columns = [selection.column(a) for a in group.quant_attrs]
    counts = [0] * len(group.candidates)
    for point in zip(*columns):
        for candidate_index in tree.containing_point(point):
            counts[candidate_index] += 1
    return counts


def _table_bytes(view, attrs) -> int:
    """Bytes of a counting table over ``attrs``: one cell per value tuple.

    Reads full-table cardinalities only, so a shard of the table is
    charged exactly what the whole table is.
    """
    cells = 1
    for attribute in attrs:
        cells *= view.cardinality(attribute)
    return cells * _CELL_BYTES


def choose_backend(
    group: SuperCandidate, view, memory_budget_bytes: int
) -> str:
    """The structure that counts one super-candidate group.

    A pure-categorical group needs none (``"mask"``).  Otherwise the
    group's array is charged against the budget: within it the array
    counts the group, past it the R*-tree (Section 5.2).
    """
    if group.ndim == 0:
        return MASK_BACKEND
    if _table_bytes(view, group.quant_attrs) <= memory_budget_bytes:
        return "array"
    return "rtree"


_GROUP_BACKENDS = {
    "array": _count_group_array,
    "rtree": _count_group_rtree,
}


def count_groups(groups, backends, view) -> list:
    """Per-candidate counts for each group on ``view``.

    ``view`` is the full table or one shard; the result is a list (per
    group) of lists (per candidate) of integer counts, merge-ready by
    elementwise addition.  ``backends`` holds each group's
    :func:`choose_backend` verdict.

    Groups are counted conjunction by conjunction: each distinct
    categorical conjunction's :class:`RecordSelection` is built once,
    counts every group that shares it, and is dropped before the next,
    so at most one conjunction's gathered columns are held at a time.
    """
    by_conjunction: dict = {}
    for position, group in enumerate(groups):
        by_conjunction.setdefault(group.categorical_items, []).append(
            position
        )
    out: list = [None] * len(groups)
    for items, positions in by_conjunction.items():
        selection = RecordSelection(view, items)
        for position in positions:
            group, resolved = groups[position], backends[position]
            if resolved == MASK_BACKEND:
                out[position] = [selection.num_records] * len(
                    group.candidates
                )
            else:
                out[position] = _GROUP_BACKENDS[resolved](group, selection)
    return out


def _count_groups_shard(view, payload):
    """Shard worker: count every group's candidates on one shard."""
    groups, backends = payload
    return count_groups(groups, backends, view)


def _merge_group_counts(per_shard: list) -> list:
    """Sum per-shard ``count_groups`` results elementwise (exact)."""
    merged = per_shard[0]
    for shard_counts in per_shard[1:]:
        merged = [
            [a + b for a, b in zip(left, right)]
            for left, right in zip(merged, shard_counts)
        ]
    return merged


@dataclass
class CountingStats:
    """Structure usage tally across super-candidate groups.

    Keys are ``"array"``, ``"rtree"`` or the pure-categorical ``"mask"``
    pseudo-backend, so groups whose array did not fit the memory budget
    show up as ``rtree``.
    """

    groups_by_backend: dict = field(default_factory=dict)

    def record(self, backend: str) -> None:
        self.groups_by_backend[backend] = (
            self.groups_by_backend.get(backend, 0) + 1
        )


def count_itemsets(
    catalog: ItemCatalog,
    rows,
    mapper: TableMapper,
    quantitative: set,
    memory_budget_bytes: int = 256 * 1024 * 1024,
    stats: CountingStats | None = None,
    *,
    executor=None,
    shards=None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
    shard_cache=None,
) -> Level:
    """Support counts for explicit candidates, given as catalog-id rows.

    Groups the candidates into super-candidates, picks each group's
    structure with :func:`choose_backend` and returns the candidates as
    a :class:`~repro.core.levels.Level`: the rows in group order, with
    their absolute support counts.  With an ``executor``/``shards``
    pair the counting fans out per record shard and the per-shard counts
    are summed — bit-identical to the unsharded path for any shard
    layout.  ``tracer``/``span_parent``/``metrics`` ride through to
    :func:`~repro.engine.sharded.sharded_map` so the fan-out shows up as
    ``shard_task`` spans under the calling stage.
    """
    groups = group_candidates(catalog, rows, quantitative)
    if not groups:
        return Level.concat([], rows.shape[1])
    backends = [
        choose_backend(group, mapper, memory_budget_bytes) for group in groups
    ]
    if executor is None and shards is None:
        per_group = count_groups(groups, backends, mapper)
    else:
        if shards is None:
            shards = plan_shards(mapper.num_records)
        per_shard = sharded_map_cached(
            shard_cache,
            executor,
            mapper,
            shards,
            _count_groups_shard,
            (groups, backends),
            stats=execution_stats,
            stage="count_itemsets",
            tracer=tracer,
            parent=span_parent,
            metrics=metrics,
        )
        per_group = _merge_group_counts(per_shard)
    if stats is not None:
        for resolved in backends:
            stats.record(resolved)
    return _grouped_level(groups, per_group)


def _grouped_level(groups, per_group) -> Level:
    """Every group's candidates and counts, group after group."""
    rows = np.concatenate([group.candidates for group in groups])
    counts = np.fromiter(
        chain.from_iterable(per_group), dtype=np.int64, count=len(rows)
    )
    return Level(rows, counts)


# ----------------------------------------------------------------------
# Pass-2 pair plans
# ----------------------------------------------------------------------
# Each attribute pair becomes one *plan*: a picklable description of the
# counting work whose ``shard_counts`` runs on any view (full table or
# shard) and whose ``emit`` thresholds the merged counts into the pair's
# frequent id rows.  Splitting count from emit is what makes pass 2
# record-shardable: raw counts merge associatively, thresholding happens
# exactly once on the global sums.  Every plan emits its pairs in
# row-major order over (first attribute's items, second attribute's).


def _pairs(ids_a, ids_b, ia, ib) -> np.ndarray:
    """Id rows of the pairs ``(ids_a[ia], ids_b[ib])``, ascending ids."""
    return np.stack([ids_a[ia], ids_b[ib]], axis=1)


@dataclass
class _QuantQuantPlan:
    """Both attributes quantitative: one cross-product prefix-sum query."""

    attrs: tuple
    ids_a: np.ndarray
    ids_b: np.ndarray
    ranges_a: np.ndarray  # (len(ids_a), 2) lo, hi
    ranges_b: np.ndarray

    def shard_counts(self, view) -> np.ndarray:
        counter = PrefixSumCounter(view, self.attrs)
        return counter.count_cross([self.ranges_a, self.ranges_b])

    def emit(self, counts, min_count, stats) -> Level:
        if stats is not None:
            stats.record("array")
        ia, ib = np.nonzero(counts >= min_count)
        return Level(_pairs(self.ids_a, self.ids_b, ia, ib), counts[ia, ib])


@dataclass
class _CatCatPlan:
    """Both attributes categorical: a joint histogram lookup."""

    attrs: tuple
    ids_a: np.ndarray
    ids_b: np.ndarray
    values_a: np.ndarray  # each item's categorical code
    values_b: np.ndarray

    def shard_counts(self, view) -> np.ndarray:
        a, b = self.attrs
        shape = (view.cardinality(a), view.cardinality(b))
        flat = _flat_cells((view.column(a), view.column(b)), shape)
        return np.bincount(
            flat, minlength=shape[0] * shape[1]
        ).reshape(shape)

    def emit(self, table, min_count, stats) -> Level:
        if stats is not None:
            stats.record("array")
        counts = table[np.ix_(self.values_a, self.values_b)]
        ia, ib = np.nonzero(counts >= min_count)
        return Level(_pairs(self.ids_a, self.ids_b, ia, ib), counts[ia, ib])


@dataclass
class _CatQuantPlan:
    """Mixed pair: one 1-D prefix-sum counter per categorical value."""

    cat_items: tuple
    cat_ids: np.ndarray
    quant_ids: np.ndarray
    quant_ranges: np.ndarray  # (len(quant_ids), 2) lo, hi
    quant_attr: int

    def shard_counts(self, view) -> np.ndarray:
        rows = [
            PrefixSumCounter(
                RecordSelection(view, (cat_item,)), (self.quant_attr,)
            ).count_cross([self.quant_ranges])
            for cat_item in self.cat_items
        ]
        return np.stack(rows)

    def emit(self, counts, min_count, stats) -> Level:
        if stats is not None:
            for _ in self.cat_items:
                stats.record("array")
        ic, iq = np.nonzero(counts >= min_count)
        if self.cat_items[0].attribute < self.quant_attr:
            rows = _pairs(self.cat_ids, self.quant_ids, ic, iq)
        else:
            rows = _pairs(self.quant_ids, self.cat_ids, iq, ic)
        return Level(rows, counts[ic, iq])


@dataclass
class _ExplicitPlan:
    """A pair whose table is past the budget: its candidates, per group."""

    groups: list
    backends: list

    def shard_counts(self, view) -> list:
        return count_groups(self.groups, self.backends, view)

    def emit(self, per_group, min_count, stats) -> Level:
        if stats is not None:
            for resolved in self.backends:
                stats.record(resolved)
        level = _grouped_level(self.groups, per_group)
        return level.select(level.counts >= min_count)


def build_pair_plans(
    catalog: ItemCatalog,
    item_buckets: dict,
    mapper: TableMapper,
    quantitative: set,
    memory_budget_bytes: int = 256 * 1024 * 1024,
    pair_filter=None,
):
    """One plan per attribute pair, plus the pass-2 candidate tally.

    ``item_buckets`` maps each attribute to the catalog ids of its
    frequent items, ascending.  A pair's table is charged against
    ``memory_budget_bytes`` like any super-candidate's array: the joint
    histogram for two categorical or two quantitative attributes, the
    quantitative attribute's array for a mixed pair.  A pair past the
    budget becomes an :class:`_ExplicitPlan` whose groups each get
    :func:`choose_backend`'s verdict.

    ``pair_filter``, when given, is a predicate over an attribute pair
    ``(a, b)`` with ``a < b``; pairs it rejects contribute no plan and no
    candidates (goal-directed mining uses this to count only the waves
    it needs).
    """
    plans: list = []
    num_candidates = 0
    attrs = sorted(item_buckets)

    def ranges(ids):
        return np.stack([catalog.lo[ids], catalog.hi[ids]], axis=1)

    for i, a in enumerate(attrs):
        for b in attrs[i + 1:]:
            if pair_filter is not None and not pair_filter(a, b):
                continue
            ids_a, ids_b = item_buckets[a], item_buckets[b]
            num_candidates += len(ids_a) * len(ids_b)
            a_quant, b_quant = a in quantitative, b in quantitative
            if a_quant == b_quant:
                table_attrs = (a, b)
            else:
                table_attrs = (a,) if a_quant else (b,)
            if _table_bytes(mapper, table_attrs) > memory_budget_bytes:
                explicit = np.stack(
                    [np.repeat(ids_a, len(ids_b)), np.tile(ids_b, len(ids_a))],
                    axis=1,
                )
                groups = group_candidates(catalog, explicit, quantitative)
                backends = [
                    choose_backend(group, mapper, memory_budget_bytes)
                    for group in groups
                ]
                plans.append(_ExplicitPlan(groups, backends))
            elif a_quant and b_quant:
                plans.append(
                    _QuantQuantPlan(
                        (a, b), ids_a, ids_b, ranges(ids_a), ranges(ids_b)
                    )
                )
            elif not a_quant and not b_quant:
                plans.append(
                    _CatCatPlan(
                        (a, b), ids_a, ids_b, catalog.lo[ids_a], catalog.lo[ids_b]
                    )
                )
            else:
                cat_ids, quant_ids, quant_attr = (
                    (ids_a, ids_b, b) if b_quant else (ids_b, ids_a, a)
                )
                plans.append(
                    _CatQuantPlan(
                        tuple(catalog.items[i] for i in cat_ids.tolist()),
                        cat_ids,
                        quant_ids,
                        ranges(quant_ids),
                        quant_attr,
                    )
                )
    return plans, num_candidates


def _count_pairs_shard(view, plans):
    """Shard worker: raw counts for every pair plan on one shard."""
    return [plan.shard_counts(view) for plan in plans]


def _merge_pair_counts(left, right):
    if isinstance(left, np.ndarray):
        return left + right
    return [
        [a + b for a, b in zip(l_row, r_row)]
        for l_row, r_row in zip(left, right)
    ]


def count_frequent_pairs(
    catalog: ItemCatalog,
    item_buckets: dict,
    mapper: TableMapper,
    quantitative: set,
    min_count: float,
    memory_budget_bytes: int = 256 * 1024 * 1024,
    stats: CountingStats | None = None,
    *,
    executor=None,
    shards=None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
    shard_cache=None,
    pair_filter=None,
):
    """Pass 2, specialized: return frequent 2-itemsets and the candidate tally.

    The pass-2 candidate set is the cross product of frequent items over
    every attribute pair, which can be orders of magnitude larger than the
    surviving L_2.  A pair whose table fits the memory budget is answered
    as a whole cross product, by outer-indexed inclusion–exclusion or a
    joint histogram, and only its frequent pairs are emitted; a pair past
    the budget materializes its candidates as super-candidate groups
    (see :func:`build_pair_plans`).

    With an ``executor``/``shards`` pair, each shard computes raw counts
    for every plan, the per-shard counts are summed, and the minimum-count
    threshold is applied once to the exact global sums.

    Returns ``(frequent: Level, num_candidates: int)``, the frequent
    pairs plan after plan.
    """
    plans, num_candidates = build_pair_plans(
        catalog,
        item_buckets,
        mapper,
        quantitative,
        memory_budget_bytes,
        pair_filter=pair_filter,
    )
    if not plans:
        return Level.concat([], 2), num_candidates
    if executor is None and shards is None:
        merged = _count_pairs_shard(mapper, plans)
    else:
        if shards is None:
            shards = plan_shards(mapper.num_records)
        per_shard = sharded_map_cached(
            shard_cache,
            executor,
            mapper,
            shards,
            _count_pairs_shard,
            plans,
            stats=execution_stats,
            stage="count_pairs",
            tracer=tracer,
            parent=span_parent,
            metrics=metrics,
        )
        merged = per_shard[0]
        for shard_result in per_shard[1:]:
            merged = [
                _merge_pair_counts(m, s)
                for m, s in zip(merged, shard_result)
            ]
    frequent = [
        plan.emit(counts, min_count, stats)
        for plan, counts in zip(plans, merged)
    ]
    return Level.concat(frequent, 2), num_candidates
