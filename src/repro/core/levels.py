"""Itemsets as integer arrays: the item catalog and the level matrices.

After pass 1 every frequent item gets a dense ``int32`` id, in canonical
item order (:class:`ItemCatalog`).  Because ids follow item order, an
itemset is a row of ascending ids, and sorting id rows
lexicographically sorts the itemsets canonically: every later sort is
an integer sort.  A level of the search, its candidates or its frequent
itemsets, is an (n x k) id matrix plus an ``int64`` count vector
(:class:`Level`).  Passes 2..k, the super-candidate grouping and rule
generation all work on these arrays; ``Item`` tuples are built once,
where the itemsets leave the search (:class:`FrequentLevels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

#: Largest key a :class:`RowIndex` builds before it re-ranks its rows.
_KEY_LIMIT = 1 << 62


class ItemCatalog:
    """Dense ids for a set of items, in canonical item order.

    ``attribute``, ``lo`` and ``hi`` hold each id's fields, so any id
    array gathers its items' attributes or bounds with one index.
    """

    def __init__(self, items) -> None:
        self.items = sorted(items)
        fields = np.array(self.items, dtype=np.int64).reshape(-1, 3)
        self.attribute, self.lo, self.hi = fields.T
        self._objects = np.fromiter(
            self.items, dtype=object, count=len(self.items)
        )
        self._ids = {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def by_attribute(self) -> dict:
        """``{attribute: its items' ids}``; each id range is contiguous."""
        attributes, starts = np.unique(self.attribute, return_index=True)
        stops = np.append(starts[1:], len(self.items))
        return {
            int(a): np.arange(start, stop, dtype=np.int32)
            for a, start, stop in zip(attributes, starts, stops)
        }

    def encode(self, itemsets, k: int) -> np.ndarray:
        """(n, k) id rows of canonical k-itemsets."""
        ids = self._ids
        flat = np.fromiter(
            (ids[item] for itemset in itemsets for item in itemset),
            dtype=np.int32,
        )
        return flat.reshape(-1, k)

    def decode(self, rows: np.ndarray) -> list:
        """The itemset tuples of id rows, in row order."""
        return list(zip(*self._objects[rows].T))


@dataclass
class Level:
    """k-itemsets as catalog-id rows (ascending ids) plus their counts."""

    rows: np.ndarray  # (n, k) int32
    counts: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.rows)

    def select(self, keep) -> "Level":
        return Level(self.rows[keep], self.counts[keep])

    @staticmethod
    def concat(levels, k: int) -> "Level":
        if not levels:
            return Level(
                np.empty((0, k), dtype=np.int32), np.empty(0, dtype=np.int64)
            )
        return Level(
            np.concatenate([level.rows for level in levels]),
            np.concatenate([level.counts for level in levels]),
        )


class FrequentLevels:
    """The frequent itemsets of one search, level by level.

    ``levels[j]`` holds the (j + 1)-itemsets.  ``itemsets`` is every
    frequent itemset as a tuple of items, level by level and in row
    order within a level: the keys of :meth:`support_counts` and the
    sides of every rule, built once and shared.
    """

    def __init__(self, catalog: ItemCatalog, levels, itemsets=None) -> None:
        self.catalog = catalog
        self.levels = list(levels)
        if itemsets is None:
            itemsets = list(
                chain.from_iterable(
                    catalog.decode(level.rows) for level in self.levels
                )
            )
        self.itemsets = itemsets

    def support_counts(self) -> dict:
        """``{itemset: count}``, level by level, in row order."""
        counts = chain.from_iterable(
            level.counts.tolist() for level in self.levels
        )
        return dict(zip(self.itemsets, counts))

    @classmethod
    def from_support_counts(cls, support_counts: dict) -> "FrequentLevels":
        """The levels of a ``{canonical itemset: count}`` mapping."""
        catalog = ItemCatalog(
            {item for itemset in support_counts for item in itemset}
        )
        by_size: dict = {}
        for itemset, count in support_counts.items():
            by_size.setdefault(len(itemset), []).append((itemset, count))
        levels, itemsets = [], []
        for k in range(1, max(by_size, default=0) + 1):
            members = by_size.get(k, [])
            level_itemsets = [itemset for itemset, _ in members]
            levels.append(
                Level(
                    catalog.encode(level_itemsets, k),
                    np.array([c for _, c in members], dtype=np.int64),
                )
            )
            itemsets.extend(level_itemsets)
        return cls(catalog, levels, itemsets)


class RowIndex:
    """The rows of some integer key columns, sorted for lookups.

    Each row gets one ``int64`` key, built column by column as
    ``key * radix + column``, so keys order like the rows do.  Before a
    key could pass 2^62 the indexed rows' keys are replaced by their
    ranks, so no key overflows, however many columns it spans and
    however large the values are.  Queries follow the same steps, with
    binary searches for the ranks.
    """

    def __init__(self, columns: list, num_rows: int) -> None:
        key = np.zeros(num_rows, dtype=np.int64)
        span = 1
        #: ``(radix, None)`` per column, ``(None, keys)`` per re-ranking.
        self._steps: list = []
        for column in columns:
            radix = int(column.max()) + 1 if num_rows else 1
            if span * radix > _KEY_LIMIT:
                values, key = np.unique(key, return_inverse=True)
                self._steps.append((None, values))
                span = len(values)
            key = key * radix + column
            span *= radix
            self._steps.append((radix, None))
        #: Row numbers grouped by key, in row order within a key.
        self.order = np.argsort(key, kind="stable")
        #: The rows' keys, in :attr:`order`.
        self.keys = key[self.order]

    def ranges(self, columns: list, num_rows: int) -> tuple:
        """Per query row, the ``[start, stop)`` slice of :attr:`order`
        holding the indexed rows with the same key."""
        key = np.zeros(num_rows, dtype=np.int64)
        found = np.ones(num_rows, dtype=bool)
        columns = iter(columns)
        for radix, values in self._steps:
            if values is not None:
                at = np.minimum(np.searchsorted(values, key), len(values) - 1)
                found &= values[at] == key
                key = at
                continue
            column = next(columns)
            inside = column < radix
            found &= inside
            key = key * radix + np.where(inside, column, 0)
        start = np.searchsorted(self.keys, key, "left")
        stop = np.where(found, np.searchsorted(self.keys, key, "right"), start)
        return start, stop

    def find(self, columns: list, num_rows: int) -> np.ndarray:
        """Per query row, the indexed row with the same key, or -1."""
        start, stop = self.ranges(columns, num_rows)
        hit = stop > start
        out = np.full(num_rows, -1, dtype=np.int64)
        out[hit] = self.order[start[hit]]
        return out


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple:
    """``(owner, position)`` for every element of every range.

    Range ``i`` covers ``starts[i] .. starts[i] + counts[i] - 1``; the
    result lists its positions in order, each paired with ``i``.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return owner, np.arange(len(owner)) + shift[owner]
