"""merge_schedule() invariants -- hypothesis suite over random trees."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tree import GuideTree
from repro.tree import merge_schedule


@st.composite
def random_trees(draw):
    """Uniformly shaped random binary merge orders over 2..20 leaves."""
    n = draw(st.integers(min_value=2, max_value=20))
    avail = list(range(n))
    merges = []
    for step in range(n - 1):
        a = avail.pop(draw(st.integers(0, len(avail) - 1)))
        b = avail.pop(draw(st.integers(0, len(avail) - 1)))
        merges.append((a, b))
        avail.append(n + step)
    heights = np.arange(1, n, dtype=np.float64)
    return GuideTree(
        n, np.array(merges), heights, [f"L{k}" for k in range(n)]
    )


def caterpillar(n):
    merges = []
    spine = 0
    for step in range(n - 1):
        merges.append((spine, step + 1))
        spine = n + step
    return GuideTree(
        n, np.array(merges), np.arange(1, n, dtype=np.float64),
        [f"L{k}" for k in range(n)],
    )


def balanced(levels):
    n = 1 << levels
    merges = []
    nodes = list(range(n))
    step = 0
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes), 2):
            merges.append((nodes[i], nodes[i + 1]))
            nxt.append(n + step)
            step += 1
        nodes = nxt
    return GuideTree(
        n, np.array(merges), np.arange(1, n, dtype=np.float64),
        [f"L{k}" for k in range(n)],
    )


class TestInvariants:
    @given(random_trees())
    def test_every_merge_scheduled_exactly_once(self, tree):
        s = merge_schedule(tree)
        steps = [step for level in s.levels for step in level]
        assert sorted(steps) == list(range(tree.n_leaves - 1))
        assert len(steps) == len(set(steps)) == s.n_merges

    @given(random_trees())
    def test_children_complete_before_parent(self, tree):
        s = merge_schedule(tree)
        n = tree.n_leaves
        level_of = {}
        for k, level in enumerate(s.levels):
            for step in level:
                level_of[n + step] = k
        for level in s.levels:
            for step in level:
                for child in tree.merges[step]:
                    child = int(child)
                    if child >= n:  # internal child: strictly earlier level
                        assert level_of[child] < level_of[n + step]

    @given(random_trees())
    def test_levels_are_disjoint_in_nodes(self, tree):
        """Merges within one level never share a node (true concurrency)."""
        n = tree.n_leaves
        s = merge_schedule(tree)
        for level in s.levels:
            touched = set()
            for step in level:
                nodes = {int(tree.merges[step][0]),
                         int(tree.merges[step][1]), n + step}
                assert not (touched & nodes)
                touched |= nodes

    @given(random_trees())
    def test_stats_consistent(self, tree):
        s = merge_schedule(tree)
        assert sum(s.widths) == s.n_merges == tree.n_leaves - 1
        assert s.max_width == max(s.widths)
        assert s.mean_parallelism == pytest.approx(s.n_merges / s.n_levels)
        assert 1 <= s.n_levels <= s.n_merges
        d = s.to_dict()
        assert d["n_leaves"] == tree.n_leaves
        assert d["widths"] == s.widths

    @given(random_trees())
    def test_concatenation_is_topological(self, tree):
        """Replaying levels in order is a valid serial merge order."""
        n = tree.n_leaves
        have = set(range(n))
        for level in merge_schedule(tree).levels:
            for step in level:
                a, b = tree.merges[step]
                assert int(a) in have and int(b) in have
            for step in level:
                have.add(n + step)
        assert tree.root in have


class TestKnownShapes:
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_caterpillar_is_fully_serial(self, n):
        s = merge_schedule(caterpillar(n))
        assert s.n_levels == s.n_merges == n - 1
        assert s.max_width == 1
        assert s.mean_parallelism == 1.0

    @pytest.mark.parametrize("levels", [1, 3, 4])
    def test_balanced_tree_is_log_depth(self, levels):
        s = merge_schedule(balanced(levels))
        assert s.n_levels == levels
        assert s.max_width == (1 << levels) // 2

    def test_single_leaf_empty_schedule(self):
        t = GuideTree(1, np.zeros((0, 2)), np.zeros(0), ["a"])
        s = merge_schedule(t)
        assert s.n_merges == 0 and s.levels == ()
        assert s.max_width == 0 and s.mean_parallelism == 0.0
