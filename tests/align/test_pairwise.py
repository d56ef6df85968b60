"""Tests for repro.align.pairwise."""

import numpy as np
import pytest

from repro.align.pairwise import (
    global_align,
    global_align_batch,
    global_score,
    global_score_batch,
    local_align,
    pairwise_identity,
)
from repro.seq.matrices import BLOSUM62, DNA_SIMPLE, GapPenalties
from repro.seq.alphabet import DNA
from repro.seq.sequence import Sequence


class TestGlobalAlign:
    def test_identical(self):
        s = Sequence("a", "MKTAYIAKQR")
        t = Sequence("b", "MKTAYIAKQR")
        res = global_align(s, t)
        gx, gy = res.gapped_texts()
        assert gx == gy == s.residues
        assert res.identity() == 1.0

    def test_score_matches_score_only(self):
        s = Sequence("a", "HEAGAWGHEE")
        t = Sequence("b", "PAWHEAE")
        gaps = GapPenalties(8, 1)
        assert np.isclose(
            global_align(s, t, gaps=gaps).score, global_score(s, t, gaps=gaps)
        )

    def test_gapped_texts_strip_to_inputs(self):
        s = Sequence("a", "MKTAYIAKQRLG")
        t = Sequence("b", "MKTAYIQRLG")
        gx, gy = global_align(s, t).gapped_texts()
        assert gx.replace("-", "") == s.residues
        assert gy.replace("-", "") == t.residues
        assert len(gx) == len(gy)

    def test_known_deletion_placed(self):
        s = Sequence("a", "MKTAYIAKQRLG")
        t = Sequence("b", "MKTAYIQRLG")  # AK deleted
        gx, gy = global_align(s, t).gapped_texts()
        assert gy.count("-") == 2 and gx.count("-") == 0

    def test_matched_pairs(self):
        s = Sequence("a", "MKV")
        t = Sequence("b", "MKV")
        xi, yi = global_align(s, t).matched_pairs()
        assert xi.tolist() == [0, 1, 2] and yi.tolist() == [0, 1, 2]

    def test_alphabet_mismatch(self):
        s = Sequence("a", "ACGT", alphabet=DNA)
        t = Sequence("b", "MKVA")
        with pytest.raises(ValueError, match="alphabet"):
            global_align(s, t)

    def test_dna_alignment(self):
        s = Sequence("a", "ACGTACGT", alphabet=DNA)
        t = Sequence("b", "ACGACGT", alphabet=DNA)
        res = global_align(s, t, matrix=DNA_SIMPLE, gaps=GapPenalties(5, 1))
        gx, gy = res.gapped_texts()
        assert gy.count("-") == 1

    def test_empty_vs_nonempty(self):
        s = Sequence("a", "M")
        # Sequence construction strips gaps; an empty sequence is legal.
        t = Sequence("b", "-")
        res = global_align(s, t)
        assert res.n_columns == 1
        assert res.y_map.tolist() == [-1]


class TestBatchedEntries:
    """The gather path makes the bounds check that ``pair_scores``'
    fancy indexing used to give for free."""

    @staticmethod
    def _corrupt(text: str, code: int) -> Sequence:
        seq = Sequence("bad", text)
        codes = seq.codes.copy()
        codes[1] = code
        seq._codes = codes
        return seq

    @pytest.mark.parametrize("entry", [global_align_batch, global_score_batch])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_out_of_range_code_raises_as_pair_scores_does(self, entry, side):
        good = Sequence("ok", "MKTAYIAK")
        bad = self._corrupt("MKTAYIAK", BLOSUM62.matrix.shape[0])
        with pytest.raises(Exception) as scalar:
            BLOSUM62.pair_scores(bad.codes, good.codes)
        pair = (bad, good) if side == "x" else (good, bad)
        with pytest.raises(Exception) as batched:
            entry([(good, good), pair])
        assert type(batched.value) is type(scalar.value) is IndexError

    @pytest.mark.parametrize("entry", [global_align_batch, global_score_batch])
    def test_alphabet_mismatch(self, entry):
        s = Sequence("a", "ACGT", alphabet=DNA)
        t = Sequence("b", "MKVA")
        with pytest.raises(ValueError, match="alphabet"):
            entry([(t, t), (s, t)])

    def test_empty_batch(self):
        assert global_align_batch([]) == []
        assert global_score_batch([]).shape == (0,)


class TestLocalAlign:
    def test_finds_planted_motif(self):
        a = Sequence("a", "AAAAAWGHEMKAAAA")
        b = Sequence("b", "TTTWGHEMKTTT")
        res = local_align(a, b)
        gx, gy = res.gapped_texts()
        assert "WGHEMK" in gx.replace("-", "")
        assert gx == gy  # exact shared motif

    def test_score_nonnegative(self):
        a = Sequence("a", "AAAA")
        b = Sequence("b", "WWWW")
        assert local_align(a, b).score >= 0.0

    def test_empty(self):
        a = Sequence("a", "")
        b = Sequence("b", "MKV")
        res = local_align(a, b)
        assert res.score == 0.0 and res.n_columns == 0

    def test_local_at_least_global_interior(self):
        a = Sequence("a", "MKTAYIAKQRQISFVK")
        b = Sequence("b", "WWTAYIAKWW")
        loc = local_align(a, b)
        glo = global_align(a, b)
        assert loc.score >= glo.score

    def test_no_terminal_gaps(self):
        a = Sequence("a", "AAAWGHEAAA")
        b = Sequence("b", "TTWGHETT")
        res = local_align(a, b)
        assert res.x_map[0] >= 0 and res.y_map[0] >= 0
        assert res.x_map[-1] >= 0 and res.y_map[-1] >= 0


class TestIdentity:
    def test_identical(self):
        s = Sequence("a", "MKTAYI")
        assert pairwise_identity(s, Sequence("b", "MKTAYI")) == 1.0

    def test_half(self):
        s = Sequence("a", "MMMMMM")
        t = Sequence("b", "MMMWWW")
        assert 0.3 <= pairwise_identity(s, t) <= 0.7

    def test_empty_overlap(self):
        s = Sequence("a", "M")
        t = Sequence("b", "")
        assert global_align(s, t).identity() == 0.0
