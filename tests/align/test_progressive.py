"""Tests for repro.align.progressive and refine and consensus and scoring."""

import numpy as np
import pytest

from repro.align.consensus import consensus_sequence
from repro.tree import UpgmaBuilder
from repro.align.profile import Profile
from repro.align.profile_align import ProfileAlignConfig, profile_path
from repro.align.progressive import progressive_align
from repro.align.refine import refine_alignment
from repro.align.scoring import affine_sp_score, sp_score
from repro.kmer.counting import KmerCounter, kmer_match_fraction_matrix
from repro.seq.alignment import Alignment
from repro.seq.matrices import BLOSUM62, GapPenalties
from repro.seq.sequence import Sequence


def build_tree(seqs):
    d = 1.0 - kmer_match_fraction_matrix(list(seqs), counter=KmerCounter(k=3))
    return UpgmaBuilder().build(d, [s.id for s in seqs])


class TestProgressive:
    def test_roundtrip(self, tiny_seqs):
        tree = build_tree(tiny_seqs)
        aln = progressive_align(list(tiny_seqs), tree)
        un = aln.ungapped()
        for s in tiny_seqs:
            assert un[s.id].residues == s.residues

    def test_row_order_is_input_order(self, tiny_seqs):
        tree = build_tree(tiny_seqs)
        aln = progressive_align(list(tiny_seqs), tree)
        assert aln.ids == tiny_seqs.ids

    def test_single_sequence_rejected(self):
        """<2 sequences is a clean ValueError (wrap lone sequences with
        Alignment.from_single instead, as every baseline does)."""
        s = Sequence("a", "MKV")
        tree = UpgmaBuilder().build(np.zeros((1, 1)), ["a"])
        with pytest.raises(ValueError, match="at least 2"):
            progressive_align([s], tree)

    def test_label_mismatch_rejected(self, tiny_seqs):
        """Equal leaf count but different ids hits the label-set check."""
        seqs = list(tiny_seqs)
        tree = build_tree(seqs[:-1] + [Sequence("imposter", "MKVLLT")])
        with pytest.raises(ValueError, match="labels"):
            progressive_align(seqs, tree)

    def test_leaf_count_mismatch_rejected(self, tiny_seqs):
        """A tree over a subset errors cleanly instead of IndexError-ing
        deep inside numpy."""
        tree = build_tree(list(tiny_seqs)[:-2])
        with pytest.raises(ValueError, match="leaves"):
            progressive_align(list(tiny_seqs), tree)

    def test_weights_change_result_shape_safely(self, tiny_seqs):
        tree = build_tree(tiny_seqs)
        w = np.linspace(0.5, 2.0, len(tiny_seqs))
        aln = progressive_align(list(tiny_seqs), tree, sequence_weights=w)
        un = aln.ungapped()
        for s in tiny_seqs:
            assert un[s.id].residues == s.residues

    def test_bad_weights(self, tiny_seqs):
        tree = build_tree(tiny_seqs)
        with pytest.raises(ValueError):
            progressive_align(
                list(tiny_seqs), tree, sequence_weights=np.zeros(len(tiny_seqs))
            )
        with pytest.raises(ValueError):
            progressive_align(
                list(tiny_seqs), tree, sequence_weights=np.ones(2)
            )

    def test_merge_fn_hook(self, tiny_seqs):
        tree = build_tree(tiny_seqs)
        calls = []

        def merge(pa, pb):
            calls.append((pa.n_sequences, pb.n_sequences))
            res = profile_path(pa, pb, ProfileAlignConfig())
            return res.x_map, res.y_map

        progressive_align(list(tiny_seqs), tree, merge_fn=merge)
        assert len(calls) == len(tiny_seqs) - 1

    def test_zero_sequences(self):
        tree = UpgmaBuilder().build(np.zeros((1, 1)), ["a"])
        with pytest.raises(ValueError):
            progressive_align([], tree)


class TestRefine:
    def test_score_never_decreases(self, small_family):
        seqs = list(small_family.sequences)
        tree = build_tree(seqs)
        aln = progressive_align(seqs, tree)
        res = refine_alignment(aln, tree, max_rounds=2)
        assert res.final_score >= res.initial_score
        assert res.n_attempted > 0

    def test_roundtrip_after_refine(self, small_family):
        seqs = list(small_family.sequences)
        tree = build_tree(seqs)
        aln = progressive_align(seqs, tree)
        res = refine_alignment(aln, tree, max_rounds=1)
        un = res.alignment.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues

    def test_deterministic_without_rng(self, small_family):
        seqs = list(small_family.sequences)
        tree = build_tree(seqs)
        aln = progressive_align(seqs, tree)
        a = refine_alignment(aln, tree, max_rounds=1).alignment
        b = refine_alignment(aln, tree, max_rounds=1).alignment
        assert a == b

    def test_label_mismatch(self, small_family):
        seqs = list(small_family.sequences)
        tree = build_tree(seqs)
        aln = progressive_align(seqs, tree)
        other_tree = build_tree(seqs[:-1])
        with pytest.raises(ValueError, match="labels"):
            refine_alignment(aln, other_tree)


class TestConsensus:
    def test_identical_rows(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV", "MKV"])
        c = consensus_sequence(aln)
        assert c.residues == "MKV"

    def test_majority(self):
        aln = Alignment.from_rows(["a", "b", "c"], ["MKV", "MKV", "MLV"])
        assert consensus_sequence(aln).residues == "MKV"

    def test_gappy_columns_dropped(self):
        aln = Alignment.from_rows(["a", "b"], ["M-KV", "MW-V"])
        # Middle columns are 50% occupied -> kept at threshold 0.5; raise it.
        c = consensus_sequence(aln, min_occupancy=0.8)
        assert c.residues == "MV"

    def test_never_empty(self):
        aln = Alignment.from_rows(["a", "b"], ["M-", "-K"])
        c = consensus_sequence(aln, min_occupancy=1.0)
        assert len(c) >= 1

    def test_empty_alignment_rejected(self):
        with pytest.raises(ValueError):
            consensus_sequence(
                Alignment(["a"], np.zeros((1, 0), dtype=np.uint8))
            )

    def test_bad_threshold(self):
        aln = Alignment.from_rows(["a"], ["MK"])
        with pytest.raises(ValueError):
            consensus_sequence(aln, min_occupancy=2.0)

    def test_id_passthrough(self):
        aln = Alignment.from_rows(["a"], ["MK"])
        assert consensus_sequence(aln, id="anc").id == "anc"

    def test_profile_input(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV", "MKV"])
        assert consensus_sequence(Profile(aln)).residues == "MKV"


class TestScoring:
    def test_sp_manual_example(self):
        # Columns: (M,M): s(M,M); (K,-): -gap; (V,L): s(V,L)
        aln = Alignment.from_rows(["a", "b"], ["MKV", "M-L"])
        s = sp_score(aln, BLOSUM62, gap_penalty=2.0)
        expected = (
            BLOSUM62.score("M", "M") - 2.0 + BLOSUM62.score("V", "L")
        )
        assert s == pytest.approx(expected)

    def test_sp_gap_gap_free(self):
        aln = Alignment.from_rows(["a", "b"], ["M-V", "M-L"])
        s = sp_score(aln, BLOSUM62, gap_penalty=2.0)
        expected = BLOSUM62.score("M", "M") + BLOSUM62.score("V", "L")
        assert s == pytest.approx(expected)

    def test_sp_trivial_cases(self):
        one = Alignment.from_rows(["a"], ["MKV"])
        assert sp_score(one) == 0.0

    def test_sp_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        from repro.seq.alphabet import PROTEIN

        mat = rng.integers(0, PROTEIN.gap_code + 1, (5, 12)).astype(np.uint8)
        aln = Alignment([f"r{i}" for i in range(5)], mat)
        got = sp_score(aln, BLOSUM62, gap_penalty=1.5)
        brute = 0.0
        gap = PROTEIN.gap_code
        for i in range(5):
            for j in range(i + 1, 5):
                for c in range(12):
                    a, b = mat[i, c], mat[j, c]
                    if a == gap and b == gap:
                        continue
                    if a == gap or b == gap:
                        brute -= 1.5
                    else:
                        brute += BLOSUM62.matrix[a, b]
        assert got == pytest.approx(brute)

    def test_affine_no_gaps_equals_matrix_sum(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV", "MLV"])
        expected = (
            BLOSUM62.score("M", "M")
            + BLOSUM62.score("K", "L")
            + BLOSUM62.score("V", "V")
        )
        assert affine_sp_score(aln) == pytest.approx(expected)

    def test_affine_single_run_counted_once(self):
        aln = Alignment.from_rows(["a", "b"], ["MKKKV", "M---V"])
        gaps = GapPenalties(4, 1)
        expected = (
            BLOSUM62.score("M", "M")
            + BLOSUM62.score("V", "V")
            - (4 + 3 * 1)
        )
        assert affine_sp_score(aln, BLOSUM62, gaps) == pytest.approx(expected)

    def test_affine_terminal_scaling(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV--", "MKVWW"])
        gaps = GapPenalties(4, 1, terminal_factor=0.5)
        expected = (
            BLOSUM62.score("M", "M")
            + BLOSUM62.score("K", "K")
            + BLOSUM62.score("V", "V")
            - 0.5 * (4 + 2)
        )
        assert affine_sp_score(aln, BLOSUM62, gaps) == pytest.approx(expected)

    def test_affine_both_gap_columns_ignored(self):
        a1 = Alignment.from_rows(["a", "b"], ["M--V", "M--V"])
        a2 = Alignment.from_rows(["a", "b"], ["MV", "MV"])
        assert affine_sp_score(a1) == pytest.approx(affine_sp_score(a2))
