"""The R*-tree of Beckmann, Kriegel, Schneider and Seeger [BKSS90].

The SIGMOD'96 paper uses the R*-tree as the memory-lean alternative to the
multi-dimensional array when counting which candidate rectangles contain a
record's point (Section 5.2).  This is a from-scratch implementation of the
structure with the R* improvements over the classic R-tree:

* **ChooseSubtree** descends by least overlap enlargement at the leaf level
  and least area enlargement above it.
* **Split** picks the split axis by minimum total margin over all
  distributions, then the distribution with minimum overlap (ties: minimum
  area).
* **Forced reinsertion**: the first time a node overflows at each level
  during one insertion, the ``p`` entries farthest from the node's center
  are reinserted instead of splitting, which tightens the tree.

Entries carry an opaque ``value`` so callers can attach candidate ids.
"""

from __future__ import annotations

import math

from .geometry import Rect, bounding_rect


class _Entry:
    """A (rectangle, payload) pair stored at the leaf level."""

    __slots__ = ("rect", "value")

    def __init__(self, rect: Rect, value) -> None:
        self.rect = rect
        self.value = value


class _Node:
    __slots__ = ("leaf", "entries", "children", "rect")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries = []  # _Entry when leaf
        self.children = []  # _Node when interior
        self.rect = None  # bounding Rect, maintained incrementally

    def members(self):
        return self.entries if self.leaf else self.children

    def recompute_rect(self) -> None:
        members = self.members()
        self.rect = bounding_rect(m.rect for m in members) if members else None


class RStarTree:
    """An R*-tree over n-dimensional rectangles with attached values.

    Support counting past the memory budget builds its trees with
    :func:`~repro.rtree.bulk_load` and queries them with
    :meth:`containing_point`; nothing in the package calls
    :meth:`insert`.  Insertion stays because it is the [BKSS90]
    structure itself: its ChooseSubtree, split and forced-reinsert
    steps are what the substrate tests exercise, and an incrementally
    built tree is the reference the bulk-loaded one is tested against.

    Parameters
    ----------
    ndim:
        Dimensionality of every stored rectangle.
    max_entries:
        Node capacity M (>= 4).
    min_fill:
        m/M ratio; [BKSS90] found 0.4 to perform best.
    reinsert_fraction:
        Fraction p/M of entries force-reinserted on first overflow
        ([BKSS90] recommends 0.3).
    """

    def __init__(
        self,
        ndim: int,
        max_entries: int = 16,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ) -> None:
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        if not 0.0 < reinsert_fraction < 1.0:
            raise ValueError("reinsert_fraction must be in (0, 1)")
        self._ndim = ndim
        self._max = max_entries
        self._min = max(2, int(math.ceil(min_fill * max_entries)))
        self._reinsert = max(1, int(reinsert_fraction * max_entries))
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of stored (rectangle, value) entries."""
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return self._height

    def insert(self, rect: Rect, value) -> None:
        """Insert one rectangle with an attached payload."""
        if rect.ndim != self._ndim:
            raise ValueError(
                f"rect has {rect.ndim} dimensions, tree expects {self._ndim}"
            )
        # Levels that already reinserted during this insertion; level 0 is
        # the leaf level.
        self._insert_entry(_Entry(rect, value), level=0, reinserted=set())
        self._size += 1

    def containing_point(self, point) -> list:
        """Values of all rectangles that contain ``point`` (inclusive).

        This is the query the support-counting phase issues once per record
        (Section 5.2 of the SIGMOD'96 paper).
        """
        point = tuple(float(v) for v in point)
        if len(point) != self._ndim:
            raise ValueError(
                f"point has {len(point)} dimensions, tree expects {self._ndim}"
            )
        out: list = []
        # Iterative descent: point queries run once per record during
        # counting and once per request when serving rules, so the
        # recursion overhead of the generic rect query is worth shaving.
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.rect is None or not node.rect.contains_point(point):
                continue
            if node.leaf:
                for e in node.entries:
                    if e.rect.contains_point(point):
                        out.append(e.value)
            else:
                stack.extend(node.children)
        return out

    def intersecting(self, rect: Rect) -> list:
        """Values of all rectangles intersecting ``rect``."""
        out: list = []
        self._query_rect(self._root, rect, out)
        return out

    def all_entries(self) -> list:
        """Every stored (rect, value) pair, in unspecified order."""
        out: list = []
        self._collect(self._root, out)
        return out

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------
    def _query_rect(self, node: _Node, rect: Rect, out: list) -> None:
        if node.rect is None or not node.rect.intersects(rect):
            return
        if node.leaf:
            for e in node.entries:
                if e.rect.intersects(rect):
                    out.append(e.value)
            return
        for child in node.children:
            self._query_rect(child, rect, out)

    def _collect(self, node: _Node, out: list) -> None:
        if node.leaf:
            out.extend((e.rect, e.value) for e in node.entries)
            return
        for child in node.children:
            self._collect(child, out)

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _insert_entry(self, entry, level: int, reinserted: set) -> None:
        """Insert ``entry`` (an _Entry or _Node) at tree ``level``."""
        path = self._choose_path(entry.rect, level)
        node = path[-1]
        if isinstance(entry, _Node):
            node.children.append(entry)
        else:
            node.entries.append(entry)
        node.rect = (
            entry.rect if node.rect is None else node.rect.union(entry.rect)
        )
        for ancestor in path[:-1]:
            ancestor.rect = (
                entry.rect
                if ancestor.rect is None
                else ancestor.rect.union(entry.rect)
            )
        if len(node.members()) > self._max:
            self._overflow(path, level, reinserted)

    def _choose_path(self, rect: Rect, level: int) -> list:
        """Root-to-target path to the node at ``level`` best fitting ``rect``.

        Level 0 is the leaf level; reinsertions of orphaned subtrees target
        higher levels so the tree stays balanced.
        """
        node = self._root
        path = [node]
        depth = self._height - 1  # levels remaining below `node`
        while depth > level:
            node = self._choose_subtree(node, rect, at_leaf_level=depth == level + 1)
            path.append(node)
            depth -= 1
        return path

    def _choose_subtree(self, node: _Node, rect: Rect, at_leaf_level: bool) -> _Node:
        children = node.children
        if at_leaf_level:
            # R* refinement: minimize overlap enlargement among siblings.
            best, best_key = None, None
            for child in children:
                union = child.rect.union(rect)
                overlap_before = sum(
                    child.rect.overlap_area(o.rect)
                    for o in children
                    if o is not child
                )
                overlap_after = sum(
                    union.overlap_area(o.rect)
                    for o in children
                    if o is not child
                )
                key = (
                    overlap_after - overlap_before,
                    union.area() - child.rect.area(),
                    child.rect.area(),
                )
                if best_key is None or key < best_key:
                    best, best_key = child, key
            return best
        # Interior levels: minimize area enlargement (ties: area).
        return min(
            children,
            key=lambda c: (c.rect.enlargement(rect), c.rect.area()),
        )

    def _overflow(self, path: list, level: int, reinserted: set) -> None:
        node = path[-1]
        is_root = node is self._root
        if not is_root and level not in reinserted:
            reinserted.add(level)
            self._force_reinsert(path, level, reinserted)
        else:
            self._split(path, level, reinserted)

    def _force_reinsert(self, path: list, level: int, reinserted: set) -> None:
        """Remove the p farthest members and insert them again [BKSS90 §4.3]."""
        node = path[-1]
        center = node.rect.center()
        members = sorted(
            node.members(),
            key=lambda m: -_center_distance_sq(m.rect, center),
        )
        orphans, keep = members[: self._reinsert], members[self._reinsert:]
        if node.leaf:
            node.entries = keep
        else:
            node.children = keep
        node.recompute_rect()
        for ancestor in reversed(path[:-1]):
            ancestor.recompute_rect()
        # [BKSS90] found "close reinsert" (nearest first) to perform best.
        for orphan in reversed(orphans):
            self._insert_entry(orphan, level, reinserted)

    def _split(self, path: list, level: int, reinserted: set) -> None:
        node = path[-1]
        members = node.members()
        left_members, right_members = self._rstar_split(members)

        sibling = _Node(leaf=node.leaf)
        if node.leaf:
            node.entries, sibling.entries = left_members, right_members
        else:
            node.children, sibling.children = left_members, right_members
        node.recompute_rect()
        sibling.recompute_rect()

        if node is self._root:
            new_root = _Node(leaf=False)
            new_root.children = [node, sibling]
            new_root.recompute_rect()
            self._root = new_root
            self._height += 1
            return
        parent = path[-2]
        parent.children.append(sibling)
        for ancestor in reversed(path[:-1]):
            ancestor.recompute_rect()
        if len(parent.children) > self._max:
            self._overflow(path[:-1], level + 1, reinserted)

    def _rstar_split(self, members: list) -> tuple:
        """R* split: choose axis by total margin, distribution by overlap."""
        best_axis, best_axis_margin = 0, None
        for axis in range(self._ndim):
            margin = 0.0
            for ordering in self._axis_orderings(members, axis):
                for left, right in self._distributions(ordering):
                    margin += left.margin() + right.margin()
            if best_axis_margin is None or margin < best_axis_margin:
                best_axis, best_axis_margin = axis, margin

        best_key, best_cut = None, None
        for ordering in self._axis_orderings(members, best_axis):
            for i, (left_rect, right_rect) in enumerate(
                self._distributions(ordering)
            ):
                key = (
                    left_rect.overlap_area(right_rect),
                    left_rect.area() + right_rect.area(),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    split_at = self._min + i
                    best_cut = (ordering[:split_at], ordering[split_at:])
        return best_cut

    def _axis_orderings(self, members: list, axis: int):
        """The two sortings (by lower and by upper bound) R* considers."""
        yield sorted(members, key=lambda m: (m.rect.lo[axis], m.rect.hi[axis]))
        yield sorted(members, key=lambda m: (m.rect.hi[axis], m.rect.lo[axis]))

    def _distributions(self, ordering: list):
        """Bounding-rect pairs for every legal split point of ``ordering``."""
        total = len(ordering)
        for split_at in range(self._min, total - self._min + 1):
            left = bounding_rect(m.rect for m in ordering[:split_at])
            right = bounding_rect(m.rect for m in ordering[split_at:])
            yield left, right

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"RStarTree(ndim={self._ndim}, size={self._size}, "
            f"height={self._height})"
        )


def _center_distance_sq(rect: Rect, center) -> float:
    return sum((a - b) ** 2 for a, b in zip(rect.center(), center))
