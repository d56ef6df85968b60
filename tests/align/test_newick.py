"""Tests for newick round-tripping (GuideTree.to_newick/from_newick)."""

import numpy as np
import pytest

from repro.tree import GuideTree, NeighborJoiningBuilder, UpgmaBuilder


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 2.0, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestNewickRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [2, 3, 8, 15])
    def test_topology_roundtrip(self, n, seed):
        t = UpgmaBuilder().build(random_distance_matrix(n, seed))
        again = GuideTree.from_newick(t.to_newick())
        assert again.to_newick() == t.to_newick()
        assert again.n_leaves == n

    def test_branch_length_roundtrip(self):
        t = UpgmaBuilder().build(random_distance_matrix(10, 3))
        again = GuideTree.from_newick(t.to_newick(branch_lengths=True))
        assert again.to_newick() == t.to_newick()
        assert np.allclose(
            sorted(again.heights), sorted(t.heights), atol=1e-5
        )

    def test_nj_roundtrip(self):
        t = NeighborJoiningBuilder().build(random_distance_matrix(7, 1))
        again = GuideTree.from_newick(t.to_newick())
        assert again.to_newick() == t.to_newick()

    def test_single_leaf(self):
        t = GuideTree.from_newick("only;")
        assert t.n_leaves == 1 and t.labels == ["only"]

    def test_hand_written(self):
        t = GuideTree.from_newick("((a:1,b:1):2,(c:0.5,d:0.5):2.5);")
        assert t.n_leaves == 4
        assert set(t.labels) == {"a", "b", "c", "d"}
        assert t.to_newick() == "((a,b),(c,d));"

    def test_usable_for_progressive(self, tiny_seqs):
        from repro.align.progressive import progressive_align

        ids = tiny_seqs.ids
        newick = f"((({ids[0]},{ids[1]}),{ids[2]}),({ids[3]},{ids[4]}));"
        tree = GuideTree.from_newick(newick)
        aln = progressive_align(list(tiny_seqs), tree)
        un = aln.ungapped()
        for s in tiny_seqs:
            assert un[s.id].residues == s.residues


class TestNewickErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ValueError, match=";"):
            GuideTree.from_newick("(a,b)")

    def test_multifurcation(self):
        with pytest.raises(ValueError, match="multifurcating"):
            GuideTree.from_newick("(a,b,c);")

    def test_empty_label(self):
        with pytest.raises(ValueError, match="empty leaf"):
            GuideTree.from_newick("(,b);")

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            GuideTree.from_newick("(a,a);")

    def test_trailing_garbage(self):
        with pytest.raises(ValueError, match="trailing|expected"):
            GuideTree.from_newick("(a,b)junk(;")
