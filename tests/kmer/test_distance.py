"""Tests for the k-mer match fraction (``repro.kmer.counting``) and its
two entries: the rank's matrix and the ``ktuple`` estimator's pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import KtupleDistance
from repro.distance.transforms import fractional_identity_estimate
from repro.kmer.counting import (
    KmerCounter,
    kmer_match_fraction_matrix,
    match_fraction,
    min_sum_dense,
    min_sum_sparse,
)
from repro.seq.alphabet import MURPHY10, PROTEIN
from repro.seq.sequence import Sequence


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


class TestMatchFraction:
    def test_self_is_one(self):
        seqs = seqs_from(["MKVAWDEN", "QQWERTYH"])
        f = kmer_match_fraction_matrix(seqs, counter=KmerCounter(k=2))
        assert np.allclose(np.diag(f), 1.0)

    def test_symmetric(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDQQ", "WWWWYYYY"])
        f = kmer_match_fraction_matrix(seqs, counter=KmerCounter(k=2))
        assert np.allclose(f, f.T)

    def test_range(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDQQ", "WWWWYYYY"])
        f = kmer_match_fraction_matrix(seqs, counter=KmerCounter(k=2))
        assert (f >= 0).all() and (f <= 1).all()

    def test_identical_sequences(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDEN"])
        f = kmer_match_fraction_matrix(seqs, counter=KmerCounter(k=3))
        assert f[0, 1] == 1.0

    def test_disjoint_kmers(self):
        # Protein alphabet (no compression) keeps the k-mers distinct.
        kc = KmerCounter(k=2, alphabet=PROTEIN)
        seqs = seqs_from(["AAAA", "WWWW"])
        f = kmer_match_fraction_matrix(seqs, counter=kc)
        assert f[0, 1] == 0.0

    def test_normalised_by_shorter(self):
        # Prefix sequence: all its k-mers appear in the longer one.
        kc = KmerCounter(k=2, alphabet=PROTEIN)
        seqs = seqs_from(["MKVA", "MKVAWDENQ"])
        f = kmer_match_fraction_matrix(seqs, counter=kc)
        assert f[0, 1] == 1.0

    def test_rectangular_matches_square(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDQQ", "WWWWYYYY", "MKVAYYYY"])
        kc = KmerCounter(k=2)
        square = kmer_match_fraction_matrix(seqs, counter=kc)
        rect = kmer_match_fraction_matrix(seqs, seqs[:2], counter=kc)
        assert np.allclose(rect, square[:, :2])

    def test_sparse_path_agrees_with_dense(self):
        seqs = seqs_from(
            ["MKVAWDENAAQ", "MKVAWDQQFFF", "WWWWYYYYGGG", "MKVAYYYYHHH"]
        )
        dense = kmer_match_fraction_matrix(
            seqs, counter=KmerCounter(k=4, alphabet=MURPHY10)
        )
        sparse = kmer_match_fraction_matrix(
            seqs, counter=KmerCounter(k=8, alphabet=MURPHY10)
        )
        # Same shape; the sparse (k=8) path runs the intersection code.
        assert dense.shape == sparse.shape == (4, 4)
        assert np.allclose(np.diag(sparse), 1.0)

    def test_sparse_vs_dense_same_k(self):
        # Force the sparse path by monkeypatching dense_ok.
        seqs = seqs_from(["MKVAWDENAAQ", "MKVAWDQQFFF", "WWWWYYYYGGG"])
        kc = KmerCounter(k=3)
        dense = kmer_match_fraction_matrix(seqs, counter=kc)

        class Sparse(KmerCounter):
            dense_ok = property(lambda self: False)

        sparse = kmer_match_fraction_matrix(seqs, counter=Sparse(k=3))
        assert np.allclose(dense, sparse)

    def test_empty_inputs(self):
        assert kmer_match_fraction_matrix([], counter=KmerCounter(k=2)).shape == (
            0,
            0,
        )

    def test_too_short_pairs_zero(self):
        kc = KmerCounter(k=6)
        seqs = seqs_from(["MKV", "MKVAWDENQ"])
        f = kmer_match_fraction_matrix(seqs, counter=kc)
        assert f[0, 1] == 0.0 and f[0, 0] == 0.0


class TestDistance:
    """The ``ktuple`` estimator's pair path against the matrix entry."""

    def test_complement(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDQQ"])
        f = kmer_match_fraction_matrix(seqs, counter=KmerCounter(k=2))
        d = KtupleDistance(k=2).matrix(seqs)
        assert np.allclose(d, 1.0 - f)

    def test_related_closer_than_unrelated(self):
        related = seqs_from(["MKVAWDENQRTS", "MKVAWDENQRTA"])
        stranger = Sequence("z", "HHHHCCCCPPPP")
        d = KtupleDistance(k=2).matrix(related + [stranger])
        assert d[0, 1] < d[0, 2]

    @pytest.mark.parametrize(
        "k, alphabet", [(4, MURPHY10), (8, MURPHY10), (3, PROTEIN)]
    )
    def test_pairs_equal_the_matrix_bit_for_bit(self, k, alphabet):
        """Dense (k = 4, 3) and sparse (k = 8) tables: the estimator's
        tile path and the rank's rectangle give the same bits."""
        rng = np.random.default_rng(k)
        seqs = seqs_from(
            "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), n))
            for n in rng.integers(2, 40, 9)
        )
        est = KtupleDistance(k=k, alphabet=alphabet)
        frac = kmer_match_fraction_matrix(seqs, counter=est.counter())
        ii, jj = np.triu_indices(len(seqs), k=1)
        got = est.match_fractions(seqs, ii, jj)
        assert got.tobytes() == frac[ii, jj].tobytes()


class TestFractionalIdentity:
    def test_monotone(self):
        f = np.array([0.0, 0.3, 0.8])
        est = fractional_identity_estimate(f)
        assert (np.diff(est) > 0).all()

    def test_clipped(self):
        assert fractional_identity_estimate(np.array([1.5])).max() <= 1.0
        assert fractional_identity_estimate(np.array([0.0])).min() >= 0.0


class TestMinSumDense:
    """``min_sum_dense`` against the definition, cell by cell: one
    layered path whatever the largest count (there used to be a slower
    one past eight), rectangular or ``b is a``, empty sides included."""

    @staticmethod
    def brute(a, b):
        out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                out[i, j] = sum(
                    min(int(x), int(y)) for x, y in zip(a[i], b[j])
                )
        return out

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        max_count=st.sampled_from((0, 1, 8, 9, 300)),
        rows_a=st.integers(0, 6),
        rows_b=st.integers(0, 6),
        cols=st.integers(0, 12),
        same=st.booleans(),
        dtype=st.sampled_from((np.int32, np.uint16, np.int64)),
    )
    def test_equals_the_brute_force_min_sum(
        self, seed, max_count, rows_a, rows_b, cols, same, dtype
    ):
        rng = np.random.default_rng(seed)

        def counts(rows):
            # Mostly small counts; a few entries at the cap.
            m = rng.integers(0, min(max_count, 3) + 1, (rows, cols))
            m[rng.random((rows, cols)) < 0.15] = max_count
            return m.astype(dtype)

        a = counts(rows_a)
        b = a if same else counts(rows_b)
        got = min_sum_dense(a, b)
        assert got.dtype == np.int64 and got.shape == (len(a), len(b))
        assert np.array_equal(got, self.brute(a, b))

    def test_totals_past_float32_take_float64_layers(self):
        """A row holding 2**24 k-mers or more: float32 could no longer
        count them one by one."""
        big = (1 << 24) + 3
        a = np.array([[2, 0, 1], [1, 1, 0]], dtype=np.int64)
        heavy = np.array([[big, 1, 0]], dtype=np.int64)
        # The layers stop at what both sides reach (2), not at ``big``.
        assert min_sum_dense(a, heavy).tolist() == [[2], [2]]
        # Both sides past 2**24 and an odd answer: float32 has no odd
        # integers up there.
        wide = np.full((1, 4099), 4097, dtype=np.int64)
        assert wide.sum() > 1 << 24 and wide.sum() % 2
        assert min_sum_dense(wide, wide.copy()).tolist() == [[4097 * 4099]]


class TestMinSumSparse:
    """``min_sum_sparse`` over decorated arrays equals the dense
    min-sum of the same sequences, pair by pair."""

    def test_equals_the_dense_min_sum(self):
        rng = np.random.default_rng(5)
        seqs = seqs_from(
            "".join(rng.choice(list("ACDEFG"), n))
            for n in rng.integers(0, 30, 8)
        )
        kc = KmerCounter(k=2, alphabet=PROTEIN)
        dec = [kc.decorated_kmers(s) for s in seqs]
        ii, jj = np.divmod(np.arange(64), 8)
        got = min_sum_sparse(dec, dec, ii, jj)
        want = min_sum_dense(kc.count_matrix(seqs), kc.count_matrix(seqs))
        assert got.dtype == np.int64
        assert got.tolist() == want.ravel().tolist()


class TestMatchFractionFormula:
    def test_quotient_clip_and_zero_denominator(self):
        shared = np.array([3, 0, 5, 2])
        n_a = np.array([4, 0, 5, 9])
        n_b = np.array([6, 7, 4, 2])
        got = match_fraction(shared, n_a, n_b)
        assert got.tolist() == [0.75, 0.0, 1.0, 1.0]
