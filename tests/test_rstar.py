"""Unit tests for the R*-tree [BKSS90] (repro.rtree.rstar)."""

import random

import pytest

from repro.rtree import Rect, RStarTree


def random_rects(rng, n, ndim, extent=100.0, max_side=15.0):
    out = []
    for _ in range(n):
        lo = tuple(rng.uniform(0, extent) for _ in range(ndim))
        hi = tuple(low + rng.uniform(0, max_side) for low in lo)
        out.append(Rect(lo, hi))
    return out


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            RStarTree(ndim=0)
        with pytest.raises(ValueError):
            RStarTree(ndim=1, max_entries=3)
        with pytest.raises(ValueError):
            RStarTree(ndim=1, min_fill=0.6)
        with pytest.raises(ValueError):
            RStarTree(ndim=1, reinsert_fraction=1.5)

    def test_dimension_mismatch_rejected(self):
        tree = RStarTree(ndim=2)
        with pytest.raises(ValueError, match="dimensions"):
            tree.insert(Rect((0,), (1,)), "x")
        with pytest.raises(ValueError, match="dimensions"):
            tree.containing_point((0,))

    def test_size_and_height_grow(self):
        tree = RStarTree(ndim=1, max_entries=4)
        for i in range(40):
            tree.insert(Rect((i,), (i + 1,)), i)
        assert tree.size == 40
        assert tree.height >= 2
        assert len(tree) == 40


class TestPointQueries:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_linear_scan(self, ndim):
        rng = random.Random(ndim)
        rects = random_rects(rng, 300, ndim)
        tree = RStarTree(ndim=ndim, max_entries=8)
        for i, r in enumerate(rects):
            tree.insert(r, i)
        for _ in range(100):
            p = tuple(rng.uniform(-5, 110) for _ in range(ndim))
            got = sorted(tree.containing_point(p))
            want = sorted(
                i for i, r in enumerate(rects) if r.contains_point(p)
            )
            assert got == want

    def test_empty_tree(self):
        tree = RStarTree(ndim=2)
        assert tree.containing_point((1, 1)) == []

    def test_boundary_inclusive(self):
        tree = RStarTree(ndim=1)
        tree.insert(Rect((0,), (10,)), "r")
        assert tree.containing_point((0,)) == ["r"]
        assert tree.containing_point((10,)) == ["r"]
        assert tree.containing_point((10.001,)) == []

    def test_duplicate_rects_both_returned(self):
        tree = RStarTree(ndim=1)
        tree.insert(Rect((0,), (1,)), "a")
        tree.insert(Rect((0,), (1,)), "b")
        assert sorted(tree.containing_point((0.5,))) == ["a", "b"]

    def test_degenerate_point_rects(self):
        tree = RStarTree(ndim=2, max_entries=4)
        for i in range(30):
            tree.insert(Rect.point((i, i)), i)
        assert tree.containing_point((7, 7)) == [7]
        assert tree.containing_point((7, 8)) == []


class TestRectQueries:
    def test_intersecting_matches_linear_scan(self):
        rng = random.Random(5)
        rects = random_rects(rng, 200, 2)
        tree = RStarTree(ndim=2, max_entries=6)
        for i, r in enumerate(rects):
            tree.insert(r, i)
        for _ in range(50):
            probe = random_rects(rng, 1, 2, max_side=30.0)[0]
            got = sorted(tree.intersecting(probe))
            want = sorted(
                i for i, r in enumerate(rects) if r.intersects(probe)
            )
            assert got == want


class TestStructure:
    def test_all_entries_preserved(self):
        rng = random.Random(9)
        rects = random_rects(rng, 150, 2)
        tree = RStarTree(ndim=2, max_entries=5)
        for i, r in enumerate(rects):
            tree.insert(r, i)
        entries = tree.all_entries()
        assert len(entries) == 150
        assert sorted(v for _, v in entries) == list(range(150))
        for rect, value in entries:
            assert rect == rects[value]

    def test_node_mbrs_contain_children(self):
        # Walk the tree and assert the R-tree invariant at every level.
        rng = random.Random(13)
        tree = RStarTree(ndim=2, max_entries=5)
        for i, r in enumerate(random_rects(rng, 200, 2)):
            tree.insert(r, i)

        def check(node):
            members = node.entries if node.leaf else node.children
            for m in members:
                assert node.rect.contains_rect(m.rect)
                if not node.leaf:
                    check(m)

        check(tree._root)

    def test_leaves_at_same_depth(self):
        rng = random.Random(17)
        tree = RStarTree(ndim=1, max_entries=4)
        for i, r in enumerate(random_rects(rng, 120, 1)):
            tree.insert(r, i)
        depths = set()

        def walk(node, depth):
            if node.leaf:
                depths.add(depth)
                return
            for child in node.children:
                walk(child, depth + 1)

        walk(tree._root, 0)
        assert len(depths) == 1
        assert depths.pop() == tree.height - 1

    def test_repr(self):
        assert "RStarTree" in repr(RStarTree(ndim=2))
