"""MUSCLE stage 2 re-merges only the clades whose branching order changed.

``MuscleLike.align`` hands its two progressive walks one
:class:`~repro.tree.merge.CladeTable`.  The reference is the same three
stages spelled out with no table -- every internal node merged in both
walks -- and the two must agree byte for byte on every input, tree
shape, walk (serial or cooperative, default merge or ``merge_fn``), DP
kernel and refinement setting.
"""

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tree import GuideTree
from repro.align.profile import Clade
from repro.align.progressive import progressive_align
from repro.align.refine import refine_alignment
from repro.datagen.rose import generate_family
from repro.distance import alignment_identity_matrix, kimura_distance
from repro.msa.clustalw import clustal_sequence_weights
from repro.msa.mafft import anchored_path
from repro.msa.muscle import MuscleLike
from repro.obs.metrics import registry
from repro.parcomp.launcher import run_spmd
from repro.seq.sequence import Sequence
from repro.tree.merge import CladeTable, _clade_bytes as clade_bytes


def family(n, seed, relatedness=250, length=40):
    fam = generate_family(
        n_sequences=n, mean_length=length, relatedness=relatedness,
        seed=seed, track_alignment=False,
    )
    return list(fam.sequences)


def identical(n):
    return [
        Sequence(f"s{i}", "MKTAYIAKQRQISFVKSHFSRQLEERLG") for i in range(n)
    ]


def stages_without_table(aligner, seqs):
    """``MuscleLike.align`` with every node of both walks merged.

    Returns the final alignment and the two guide trees.
    """
    ids = [s.id for s in seqs]
    merge_fn = None
    if aligner.anchored:
        merge_fn = functools.partial(anchored_path, config=aligner.scoring)
    builder = aligner._tree_builder()
    tree1 = tree2 = builder.build(aligner._distances(seqs), ids)
    aln = progressive_align(seqs, tree1, aligner.scoring, merge_fn=merge_fn)
    if aligner.two_stage and len(seqs) > 2:
        d2 = kimura_distance(alignment_identity_matrix(aln))
        tree2 = builder.build(d2, aln.ids)
        aln = progressive_align(
            seqs, tree2, aligner.scoring, merge_fn=merge_fn
        )
    if aligner.refine and len(seqs) > 2:
        rng = np.random.default_rng(aligner.seed)
        aln = refine_alignment(
            aln, tree2, aligner.scoring,
            max_rounds=aligner.refine_rounds, rng=rng,
        ).alignment
    return aln.select_rows(ids), tree1, tree2


def dp_merges():
    """Profile-profile DPs run so far."""
    return registry().counter("dp.align_calls").value


def reused_nodes():
    return registry().counter("tree.merge_reused_nodes").value


def caterpillar(labels, order):
    """((((o0, o1), o2), o3), ...) over leaf ids ``order``."""
    n = len(labels)
    merges = [(order[0], order[1])]
    merges += [(n + i - 1, order[i + 1]) for i in range(1, n - 1)]
    return GuideTree(n, np.array(merges), np.arange(1.0, n), list(labels))


class TestAlignEqualsNoTable:
    @given(
        n=st.sampled_from([2, 3, 8, 40]),
        seed=st.integers(0, 2**16),
        relatedness=st.sampled_from([60, 250, 700]),
        refine=st.booleans(),
        anchored=st.booleans(),
    )
    def test_byte_identical(self, n, seed, relatedness, refine, anchored):
        seqs = family(n, seed, relatedness)
        aligner = MuscleLike(refine=refine, anchored=anchored)
        expected, _, _ = stages_without_table(aligner, seqs)
        assert aligner.align(seqs).to_fasta() == expected.to_fasta()

    def test_byte_identical_under_each_row_kernel(self, dp_kernel, traced):
        """Reuse does not care which path computed a merge (read from
        the spans)."""
        seqs = family(40, seed=7, length=60)
        aligner = MuscleLike(refine=True)
        expected, _, _ = stages_without_table(aligner, seqs)
        got, spans = traced(lambda: aligner.align(seqs))
        assert got.to_fasta() == expected.to_fasta()
        per_pair = [r for r in spans if r.name == "dp.profile_align"]
        assert {r.attrs["kernel"] for r in per_pair} == {dp_kernel}
        reused = sum(
            r.attrs["reused"] for r in spans if r.name == "tree.merge"
        )
        assert reused > 0

    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_identical_sequences_stage2_merges_nothing(self, n):
        """Equal distances twice give the same tree twice: the stage-2
        root is a hit, so the whole call runs stage 1's merges only."""
        seqs = identical(n)
        aligner = MuscleLike(refine=False)
        expected, _, _ = stages_without_table(aligner, seqs)
        before, hits = dp_merges(), reused_nodes()
        got = aligner.align(seqs)
        assert dp_merges() - before == n - 1
        assert reused_nodes() - hits == n - 1
        assert got.to_fasta() == expected.to_fasta()

    def test_draft_only_records_nothing(self):
        """One walk has nobody to share with: no table, no reuse."""
        seqs = family(8, 5)
        hits = reused_nodes()
        MuscleLike(two_stage=False, refine=False).align(seqs)
        assert reused_nodes() == hits


class TestWalks:
    """The table through ``progressive_align`` itself, tree by tree."""

    def test_caterpillar_keeps_the_unchanged_prefix(self):
        seqs = family(12, 3)
        labels = [s.id for s in seqs]
        first = caterpillar(labels, list(range(12)))
        # Same chain up to leaf 6, the rest in another order.
        second = caterpillar(labels, [0, 1, 2, 3, 4, 5, 6, 9, 8, 7, 11, 10])
        expected = progressive_align(seqs, second).to_fasta()
        clades = CladeTable()
        progressive_align(seqs, first, clades=clades)
        hits = reused_nodes()
        got = progressive_align(seqs, second, clades=clades)
        assert reused_nodes() - hits == 6
        assert got.to_fasta() == expected

    def test_child_order_is_part_of_the_clade(self):
        """(a, b) and (b, a) put their rows in different order and are
        different DPs; only the ordered clade may be reused."""
        seqs = family(4, 9)
        labels = [s.id for s in seqs]
        first = GuideTree(
            4, np.array([(0, 1), (2, 3), (4, 5)]), np.arange(1.0, 4), labels
        )
        second = GuideTree(
            4, np.array([(1, 0), (2, 3), (4, 5)]), np.arange(1.0, 4), labels
        )
        expected = progressive_align(seqs, second).to_fasta()
        clades = CladeTable()
        progressive_align(seqs, first, clades=clades)
        hits = reused_nodes()
        got = progressive_align(seqs, second, clades=clades)
        assert reused_nodes() - hits == 1  # (2, 3) only
        assert got.to_fasta() == expected

    @pytest.mark.parametrize("ranks", [2, 3])
    @pytest.mark.parametrize("anchored", [False, True])
    def test_cooperative_walk(self, ranks, anchored):
        seqs = family(16, 21, relatedness=400)
        aligner = MuscleLike(refine=False, anchored=anchored)
        expected, tree1, tree2 = stages_without_table(aligner, seqs)
        merge_fn = None
        if anchored:
            merge_fn = functools.partial(
                anchored_path, config=aligner.scoring
            )

        def program(comm):
            clades = CladeTable()  # one per rank
            progressive_align(
                seqs, tree1, aligner.scoring, merge_fn=merge_fn,
                comm=comm, clades=clades,
            )
            aln = progressive_align(
                seqs, tree2, aligner.scoring, merge_fn=merge_fn,
                comm=comm, clades=clades,
            )
            return aln.to_fasta(), len(clades), clades.retained_bytes

        hits = reused_nodes()
        out = run_spmd(ranks, program, backend="threads")
        assert reused_nodes() > hits
        assert {fasta for fasta, _, _ in out.results} == {expected.to_fasta()}
        # Every rank holds every profile, so every rank's table agrees.
        assert len({tuple(kept) for _, *kept in out.results}) == 1

    def test_weighted_merges_take_no_table(self):
        seqs = family(6, 4)
        aligner = MuscleLike(refine=False)
        _, tree, _ = stages_without_table(aligner, seqs)
        with pytest.raises(ValueError, match="weighted"):
            progressive_align(
                seqs, tree, None, clustal_sequence_weights(tree),
                clades=CladeTable(),
            )


class TestRetention:
    def test_recording_stops_at_the_byte_bound(self):
        clade = Clade.leaf(Sequence("a", "MKTAYIAKQR"), 0)
        table = CladeTable()
        table.record(0, clade, budget=0)
        assert len(table) == 1 and table.retained_bytes > 0
        table.record(1, clade, budget=0)  # already over: dropped
        assert len(table) == 1 and table.get(1) is None
        kept = table.retained_bytes
        table.record(2, clade, budget=kept)  # at the bound, not over it
        assert len(table) == 2

    def test_past_the_bound_a_walk_only_misses(self):
        """A table already over a walk's bound keeps nothing of it, so
        the next walk finds nothing and merges every node -- same bytes,
        no reuse."""
        seqs = family(8, 6)
        aligner = MuscleLike(refine=False)
        expected, tree1, tree2 = stages_without_table(aligner, seqs)
        leaf_bytes = sum(
            clade_bytes(Clade.leaf(s, i)) for i, s in enumerate(seqs)
        )
        clades = CladeTable()
        clades.retained_bytes = leaf_bytes + 1
        progressive_align(seqs, tree1, clades=clades)
        assert len(clades) == 0
        before, hits = dp_merges(), reused_nodes()
        got = progressive_align(seqs, tree2, clades=clades)
        assert dp_merges() - before == len(seqs) - 1
        assert reused_nodes() == hits
        assert got.to_fasta() == expected.to_fasta()

    def test_at_the_bound_a_walk_still_records(self):
        seqs = family(8, 6)
        aligner = MuscleLike(refine=False)
        _, tree1, _ = stages_without_table(aligner, seqs)
        clades = CladeTable()
        clades.retained_bytes = sum(
            clade_bytes(Clade.leaf(s, i)) for i, s in enumerate(seqs)
        )
        progressive_align(seqs, tree1, clades=clades)
        assert len(clades) == 1  # the first node tips it over

    def test_only_the_code_matrix_is_kept(self):
        """A hit is rebuilt from the rows, so a kept clade costs its
        uint8 matrix, not the count and frequency arrays."""
        seqs = family(8, 6)
        aligner = MuscleLike(refine=False)
        _, tree1, _ = stages_without_table(aligner, seqs)
        clades = CladeTable()
        root = progressive_align(seqs, tree1, clades=clades)
        assert len(clades) == 7
        # 2 + ... rows per node, never more than the root's 8 per column.
        assert clades.retained_bytes <= 7 * root.matrix.nbytes
        assert clades.retained_bytes < clade_bytes(Clade.leaf(seqs[0], 0))

    def test_keys_are_interned_pairs(self):
        """A caterpillar's deepest clade is one pair of ints, not a
        nest of N tuples."""
        labels = [f"s{i}" for i in range(200)]
        keys = CladeTable().node_keys(caterpillar(labels, list(range(200))))
        assert len(keys) == 399 and len(set(keys)) == 399
        assert all(isinstance(k, int) for k in keys)
