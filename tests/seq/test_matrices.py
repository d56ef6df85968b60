"""Tests for repro.seq.matrices."""

import numpy as np
import pytest

from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.matrices import (
    BLOSUM62,
    DNA_SIMPLE,
    GapPenalties,
    IDENTITY,
    PAM250,
    SubstitutionMatrix,
    get_matrix,
)


class TestGapPenalties:
    def test_defaults(self):
        g = GapPenalties()
        assert g.open > 0 and g.extend >= 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GapPenalties(open=-1)

    def test_extend_gt_open_rejected(self):
        with pytest.raises(ValueError, match="extend"):
            GapPenalties(open=1.0, extend=2.0)

    def test_terminal_factor_range(self):
        with pytest.raises(ValueError):
            GapPenalties(terminal_factor=1.5)

    def test_cost(self):
        g = GapPenalties(open=10, extend=1, terminal_factor=0.5)
        assert g.cost(3) == 13.0
        assert g.cost(3, terminal=True) == 6.5
        assert g.cost(0) == 0.0


class TestBundledMatrices:
    @pytest.mark.parametrize("mat", [BLOSUM62, PAM250, IDENTITY, DNA_SIMPLE])
    def test_symmetric(self, mat):
        assert np.allclose(mat.matrix, mat.matrix.T)

    def test_blosum62_known_values(self):
        assert BLOSUM62.score("A", "A") == 4
        assert BLOSUM62.score("W", "W") == 11
        assert BLOSUM62.score("W", "F") == 1
        assert BLOSUM62.score("C", "C") == 9
        assert BLOSUM62.score("E", "Q") == 2
        assert BLOSUM62.score("I", "V") == 3
        assert BLOSUM62.score("G", "P") == -2

    def test_pam250_known_values(self):
        assert PAM250.score("W", "W") == 17
        assert PAM250.score("C", "C") == 12
        assert PAM250.score("F", "Y") == 7
        assert PAM250.score("A", "A") == 2

    def test_wildcard_scores(self):
        assert BLOSUM62.score("X", "A") == -1
        assert BLOSUM62.score("X", "X") == -1

    def test_gap_row_zero(self):
        assert BLOSUM62.matrix[PROTEIN.gap_code].sum() == 0
        assert BLOSUM62.matrix[:, PROTEIN.gap_code].sum() == 0

    def test_dna_matrix(self):
        assert DNA_SIMPLE.score("A", "A") == 5
        assert DNA_SIMPLE.score("A", "C") == -4
        assert DNA_SIMPLE.score("N", "A") == 0

    def test_expected_score_negative(self):
        # A scoring matrix must have negative expectation over background.
        assert BLOSUM62.expected_score() < 0
        assert PAM250.expected_score() < 0

    def test_pair_scores_shape_and_values(self):
        x = PROTEIN.encode("AR")
        y = PROTEIN.encode("ARN")
        S = BLOSUM62.pair_scores(x, y)
        assert S.shape == (2, 3)
        assert S[0, 0] == 4 and S[1, 1] == 5

    def test_pair_scores_is_c_contiguous_float64(self):
        # The DP kernels copy a column-major score matrix once more
        # before their first row; pair_scores must not hand them one.
        rng = np.random.default_rng(5)
        x = rng.integers(0, PROTEIN.size + 1, size=37).astype(np.uint8)
        y = rng.integers(0, PROTEIN.size + 1, size=23).astype(np.uint8)
        S = BLOSUM62.pair_scores(x, y)
        assert S.flags.c_contiguous
        assert S.dtype == np.float64
        assert np.array_equal(S, BLOSUM62.matrix[np.ix_(x, y)])
        for m, n in ((0, 4), (3, 0), (0, 0)):
            E = BLOSUM62.pair_scores(x[:m], y[:n])
            assert E.shape == (m, n) and E.dtype == np.float64

    def test_pair_scores_out_of_range_code_raises(self):
        bad = np.array([0, BLOSUM62.matrix.shape[0]], dtype=np.uint8)
        ok = np.array([0, 1], dtype=np.uint8)
        with pytest.raises(IndexError):
            BLOSUM62.pair_scores(bad, ok)
        with pytest.raises(IndexError):
            BLOSUM62.pair_scores(ok, bad)

    def test_residue_part(self):
        assert BLOSUM62.residue_part.shape == (21, 21)


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            SubstitutionMatrix("bad", DNA, np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        m = np.zeros((DNA.size, DNA.size))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SubstitutionMatrix("bad", DNA, m)

    def test_matrix_readonly(self):
        with pytest.raises(ValueError):
            BLOSUM62.matrix[0, 0] = 99


class TestRegistry:
    def test_get(self):
        assert get_matrix("blosum62") is BLOSUM62
        assert get_matrix("PAM250") is PAM250

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown matrix"):
            get_matrix("nope")
