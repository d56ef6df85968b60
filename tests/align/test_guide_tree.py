"""Tests for repro.tree.GuideTree and the scipy oracles of its builders."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from repro.tree import (
    GuideTree,
    NeighborJoiningBuilder,
    UpgmaBuilder,
    WpgmaBuilder,
)


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 2.0, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestGuideTreeStructure:
    def tree4(self):
        return GuideTree(
            4,
            np.array([[0, 1], [2, 3], [4, 5]]),
            np.array([0.1, 0.2, 0.3]),
            ["a", "b", "c", "d"],
        )

    def test_basic(self):
        t = self.tree4()
        assert t.n_nodes == 7 and t.root == 6
        assert t.children(6) == (4, 5)

    def test_leaves_have_no_children(self):
        with pytest.raises(ValueError):
            self.tree4().children(1)

    def test_leaves_under(self):
        t = self.tree4()
        assert t.leaves_under(4).tolist() == [0, 1]
        assert t.leaves_under(6).tolist() == [0, 1, 2, 3]
        assert t.leaves_under(2).tolist() == [2]

    def test_bipartitions(self):
        t = self.tree4()
        parts = t.bipartitions(include_leaves=False)
        assert [p.tolist() for p in parts] == [[0, 1], [2, 3]]
        with_leaves = t.bipartitions(include_leaves=True)
        assert len(with_leaves) == 4 + 2

    def test_newick(self):
        assert self.tree4().to_newick() == "((a,b),(c,d));"

    def test_single_leaf(self):
        t = GuideTree(1, np.zeros((0, 2)), np.zeros(0), ["a"])
        assert t.root == 0
        assert t.leaves_under(0).tolist() == [0]

    @pytest.mark.parametrize("labels", [[], ["a", "b"]])
    def test_single_leaf_label_length(self, labels):
        """The label check runs before the one-leaf early return: no
        label used to fail only in ``to_newick`` (``IndexError``), two
        labels printed the first one."""
        with pytest.raises(ValueError, match="labels"):
            GuideTree(1, np.zeros((0, 2)), np.zeros(0), labels)

    def test_invalid_merge_reuse(self):
        with pytest.raises(ValueError, match="reuses"):
            GuideTree(
                3,
                np.array([[0, 1], [0, 2]]),
                np.array([0.1, 0.2]),
                ["a", "b", "c"],
            )

    def test_invalid_merge_forward_reference(self):
        with pytest.raises(ValueError, match="invalid children"):
            GuideTree(
                3,
                np.array([[0, 4], [1, 2]]),
                np.array([0.1, 0.2]),
                ["a", "b", "c"],
            )

    def test_label_length(self):
        with pytest.raises(ValueError, match="labels"):
            GuideTree(3, np.array([[0, 1], [2, 3]]), np.zeros(2), ["a"])


class TestUpgma:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [3, 7, 16, 40])
    def test_heights_match_scipy_average(self, n, seed):
        m = random_distance_matrix(n, seed)
        ours = UpgmaBuilder().build(m)
        Z = linkage(squareform(m, checks=False), method="average")
        assert np.allclose(
            np.sort(ours.heights), np.sort(Z[:, 2] / 2.0), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_wpgma_matches_scipy_weighted(self, seed):
        m = random_distance_matrix(12, seed)
        ours = WpgmaBuilder().build(m)
        Z = linkage(squareform(m, checks=False), method="weighted")
        assert np.allclose(
            np.sort(ours.heights), np.sort(Z[:, 2] / 2.0), atol=1e-9
        )

    def test_heights_monotone(self):
        m = random_distance_matrix(20, 3)
        t = UpgmaBuilder().build(m)
        assert (np.diff(t.heights) >= -1e-9).all()

    def test_two_leaves(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = UpgmaBuilder().build(m, ["x", "y"])
        assert t.merges.tolist() == [[0, 1]]
        assert t.heights[0] == pytest.approx(0.5)

    def test_clear_clusters_separated(self):
        # Two tight clusters far apart must merge internally first.
        m = np.full((4, 4), 10.0)
        np.fill_diagonal(m, 0.0)
        m[0, 1] = m[1, 0] = 0.1
        m[2, 3] = m[3, 2] = 0.2
        t = UpgmaBuilder().build(m)
        first_two = {tuple(sorted(t.merges[0])), tuple(sorted(t.merges[1]))}
        assert first_two == {(0, 1), (2, 3)}

    def test_asymmetric_rejected(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            UpgmaBuilder().build(m)

    def test_nonzero_diagonal_rejected(self):
        m = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            UpgmaBuilder().build(m)


class TestNeighborJoining:
    def test_recovers_additive_quartet(self):
        # Quartet ((a,b),(c,d)) with additive distances.
        #   a-b: 2, c-d: 2, cross pairs: 6.
        m = np.array(
            [
                [0.0, 2.0, 6.0, 6.0],
                [2.0, 0.0, 6.0, 6.0],
                [6.0, 6.0, 0.0, 2.0],
                [6.0, 6.0, 2.0, 0.0],
            ]
        )
        t = NeighborJoiningBuilder().build(m, ["a", "b", "c", "d"])
        first = tuple(sorted(t.merges[0]))
        assert first in {(0, 1), (2, 3)}
        newick = t.to_newick()
        assert ("(a,b)" in newick or "(b,a)" in newick)

    def test_all_leaves_present(self):
        m = random_distance_matrix(9, 1)
        t = NeighborJoiningBuilder().build(m)
        assert t.leaves_under(t.root).tolist() == list(range(9))

    def test_two_leaves(self):
        m = np.array([[0.0, 3.0], [3.0, 0.0]])
        t = NeighborJoiningBuilder().build(m, ["x", "y"])
        assert t.merges.tolist() == [[0, 1]]

    def test_three_leaves(self):
        m = random_distance_matrix(3, 2)
        t = NeighborJoiningBuilder().build(m)
        assert t.n_nodes == 5

    def test_single_leaf(self):
        t = NeighborJoiningBuilder().build(np.zeros((1, 1)), ["only"])
        assert t.n_leaves == 1
