"""Every progressive merge walk is byte-identical to the per-node one.

The reference is the object-building per-node walk
(:func:`tests.align.oracles.reference_progressive`), computed once on
the numpy row kernel.  Every builder and every walk -- the default
serial walk, a cooperative SPMD walk, the row-weighted merges, a walk
through a ``CladeTable`` -- must produce byte-for-byte the FASTA that
walk produces, under each DP kernel, and each walks node by node: one
``tree.merge_node`` span and one ``dp.profile_align`` span per merge.
"""

import pytest

from repro.align import dp
from repro.align.profile_align import ProfileAlignConfig, profile_path
from repro.align.progressive import progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.msa.clustalw import clustal_sequence_weights
from repro.obs.metrics import registry
from repro.parcomp.launcher import run_spmd
from repro.tree import get_builder
from repro.tree.merge import CladeTable
from tests.align.oracles import reference_progressive

BUILDERS = ["upgma", "wpgma", "nj", "single-linkage"]


@pytest.fixture(autouse=True)
def row_kernel(dp_kernel):
    """Every test here runs once per DP kernel."""


@pytest.fixture(scope="module")
def family_seqs():
    fam = generate_family(
        n_sequences=16, mean_length=70, relatedness=300, seed=19,
        track_alignment=False,
    )
    return list(fam.sequences)


@pytest.fixture(scope="module")
def family_trees(family_seqs):
    d = all_pairs(family_seqs, "ktuple")
    ids = [s.id for s in family_seqs]
    return {name: get_builder(name).build(d, ids) for name in BUILDERS}


def opaque_merge_fn_align(seqs, tree):
    """The walk with an opaque ``merge_fn`` that finds each path with
    :func:`profile_path`."""
    cfg = ProfileAlignConfig()

    def merge(pa, pb):
        res = profile_path(pa, pb, cfg)
        return res.x_map, res.y_map

    return progressive_align(seqs, tree, cfg, merge_fn=merge)


@pytest.fixture(scope="module")
def per_pair_reference(family_seqs, family_trees):
    """Per-node serial alignments on the numpy row kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_kernel", dp.DPKernel("numpy", "forced"))
        return {
            name: reference_progressive(family_seqs, tree).to_fasta()
            for name, tree in family_trees.items()
        }


class TestWalksMatchPerNode:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_serial_matches_per_node(
        self, name, family_seqs, family_trees, per_pair_reference
    ):
        out = progressive_align(family_seqs, family_trees[name]).to_fasta()
        assert out == per_pair_reference[name]

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_spmd_matches_per_node(
        self, ranks, family_seqs, family_trees, per_pair_reference
    ):
        tree = family_trees["nj"]
        coop = run_spmd(
            ranks,
            lambda comm: progressive_align(
                family_seqs, tree, comm=comm
            ).to_fasta(),
        )
        assert len(coop.results) == ranks
        assert all(r == per_pair_reference["nj"] for r in coop.results)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_weighted_path_matches_per_node(
        self, name, family_seqs, family_trees
    ):
        tree = family_trees[name]
        w = clustal_sequence_weights(tree)
        out = progressive_align(family_seqs, tree, None, w).to_fasta()
        assert out == reference_progressive(family_seqs, tree, None, w).to_fasta()

    def test_clade_table_walk_matches_per_node(
        self, family_seqs, family_trees, per_pair_reference
    ):
        """A walk that records into a table, and one that then takes
        every node from it, both give the per-node bytes."""
        tree = family_trees["wpgma"]
        clades = CladeTable()
        reused = registry().counter("tree.merge_reused_nodes")
        first = progressive_align(family_seqs, tree, clades=clades)
        before = reused.value
        second = progressive_align(family_seqs, tree, clades=clades)
        assert reused.value > before
        assert first.to_fasta() == per_pair_reference["wpgma"]
        assert second.to_fasta() == per_pair_reference["wpgma"]


class TestNodeByNode:
    @pytest.mark.parametrize("merge_fn", [False, True])
    def test_one_span_per_merge(
        self, dp_kernel, merge_fn, traced, family_seqs, family_trees
    ):
        tree = family_trees["upgma"]
        if merge_fn:
            _aln, spans = traced(
                lambda: opaque_merge_fn_align(family_seqs, tree)
            )
        else:
            _aln, spans = traced(lambda: progressive_align(family_seqs, tree))
        by_id = {r.span_id: r for r in spans}
        nodes = [r for r in spans if r.name == "tree.merge_node"]
        assert len(nodes) == len(family_seqs) - 1
        merges = [r for r in spans if r.name == "dp.profile_align"]
        assert len(merges) == len(family_seqs) - 1
        assert {by_id[r.parent_id].name for r in merges} == {"tree.merge_node"}
        assert {r.attrs["kernel"] for r in merges} == {dp_kernel}

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_cooperative_ranks_merge_node_by_node(
        self, ranks, traced, family_seqs, family_trees
    ):
        tree = family_trees["nj"]
        _out, spans = traced(
            lambda: run_spmd(
                ranks,
                lambda comm: progressive_align(family_seqs, tree, comm=comm),
            )
        )
        nodes = [r for r in spans if r.name == "tree.merge_node"]
        # The ranks split every level's merges, so each node runs once.
        assert sorted(r.attrs["step"] for r in nodes) == list(
            range(len(family_seqs) - 1)
        )
