"""Tests for repro.kmer.counting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kmer.counting import KmerCounter, kmer_codes
from repro.seq.alphabet import DAYHOFF6, MURPHY10, PROTEIN, SE_B14, Alphabet
from repro.seq.sequence import Sequence


class TestKmerCodes:
    def test_manual(self):
        # codes [1, 0, 2] over radix 3, k=2 -> [1*3+0, 0*3+2] = [3, 2]
        out = kmer_codes(np.array([1, 0, 2]), k=2, alphabet_size=3)
        assert out.tolist() == [3, 2]

    def test_k1_identity(self):
        codes = np.array([0, 2, 1])
        assert kmer_codes(codes, 1, 3).tolist() == [0, 2, 1]

    def test_too_short(self):
        assert kmer_codes(np.array([1]), 3, 4).size == 0

    def test_empty(self):
        assert kmer_codes(np.zeros(0, dtype=np.int64), 2, 4).size == 0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kmer_codes(np.array([0]), 0, 4)

    def test_out_of_range_code(self):
        with pytest.raises(ValueError, match="out of range"):
            kmer_codes(np.array([5]), 1, 4)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=50))
    def test_codes_in_range(self, vals):
        out = kmer_codes(np.array(vals), 2, 4)
        assert out.size == len(vals) - 1
        assert (out >= 0).all() and (out < 16).all()


class TestKmerCounter:
    def test_space_size(self):
        kc = KmerCounter(k=3, alphabet=DAYHOFF6)
        assert kc.space_size == DAYHOFF6.size**3

    def test_dense_ok(self):
        assert KmerCounter(k=4, alphabet=DAYHOFF6).dense_ok
        assert not KmerCounter(k=8, alphabet=MURPHY10).dense_ok

    def test_bad_k(self):
        with pytest.raises(ValueError):
            KmerCounter(k=0)

    def test_count_vector_total(self):
        kc = KmerCounter(k=3)
        s = Sequence("a", "MKVAMKVA")
        assert kc.count_vector(s).sum() == len(s) - 2
        assert kc.n_kmers(s) == len(s) - 2

    def test_count_vector_dense_required(self):
        kc = KmerCounter(k=9, alphabet=MURPHY10)
        with pytest.raises(ValueError, match="dense"):
            kc.count_vector(Sequence("a", "MKVAMKVA"))

    def test_count_matrix_rows(self):
        kc = KmerCounter(k=2)
        seqs = [Sequence("a", "MKVA"), Sequence("b", "MKV")]
        m = kc.count_matrix(seqs)
        assert m.shape == (2, kc.space_size)
        assert m[0].sum() == 3 and m[1].sum() == 2

    def test_projection_equals_direct_encoding(self):
        kc = KmerCounter(k=3, alphabet=DAYHOFF6)
        s_protein = Sequence("a", "MKVADENQW", alphabet=PROTEIN)
        s_direct = Sequence("a", "MKVADENQW", alphabet=DAYHOFF6)
        assert np.array_equal(
            kc.count_vector(s_protein), kc.count_vector(s_direct)
        )

    def test_repeated_kmers_counted(self):
        kc = KmerCounter(k=2, alphabet=PROTEIN)
        s = Sequence("a", "AAAA")
        v = kc.count_vector(s)
        assert v.max() == 3  # "AA" occurs three times

    def test_sorted_kmers(self):
        kc = KmerCounter(k=2)
        km = kc.sorted_kmers(Sequence("a", "MKVAMK"))
        assert (np.diff(km) >= 0).all()

    def test_decorated_unique(self):
        kc = KmerCounter(k=2)
        d = kc.decorated_kmers(Sequence("a", "AAAAAA"))
        assert len(np.unique(d)) == len(d)

    def test_decorated_intersection_equals_min_sum(self):
        kc = KmerCounter(k=2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = Sequence("a", "".join(rng.choice(list("ACDEG"), 30)))
            b = Sequence("b", "".join(rng.choice(list("ACDEG"), 25)))
            expected = int(
                np.minimum(kc.count_vector(a), kc.count_vector(b)).sum()
            )
            got = np.intersect1d(
                kc.decorated_kmers(a), kc.decorated_kmers(b), assume_unique=True
            ).size
            assert got == expected

    def test_short_sequence(self):
        kc = KmerCounter(k=5)
        s = Sequence("a", "MK")
        assert kc.count_vector(s).sum() == 0
        assert kc.n_kmers(s) == 0
        assert kc.decorated_kmers(s).size == 0


def stacked_bincount(kc, seqs):
    """The per-sequence reference: one ``np.bincount`` per row."""
    rows = [
        np.bincount(kc.sequence_kmers(s), minlength=kc.space_size)
        for s in seqs
    ]
    return np.array(rows, dtype=np.int32).reshape(len(seqs), kc.space_size)


class TestCountMatrixOnePass:
    """``count_matrix`` counts every row in one pass over the
    concatenated codes; windows across a row boundary must not count."""

    @pytest.mark.parametrize(
        "alphabet,k",
        [
            (alphabet, k)
            for alphabet in (DAYHOFF6, SE_B14, PROTEIN)
            for k in (1, 3, 4)
            if KmerCounter(k, alphabet).dense_ok  # PROTEIN stops at k=3
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    @given(
        texts=st.lists(
            st.text(alphabet="ACDEFGHIKLMNPQRSTVWYX", max_size=12),
            max_size=7,
        )
    )
    def test_equals_stacked_bincount(self, alphabet, k, texts):
        kc = KmerCounter(k=k, alphabet=alphabet)
        seqs = [Sequence(f"s{i}", t) for i, t in enumerate(texts)]
        got = kc.count_matrix(seqs)
        assert got.dtype == np.int32
        assert got.shape == (len(seqs), kc.space_size)
        assert np.array_equal(got, stacked_bincount(kc, seqs))

    def test_ragged_short_and_exact_lengths(self):
        kc = KmerCounter(k=3)
        seqs = [
            Sequence("long", "MKVAMKVAWW"),
            Sequence("short", "MK"),  # < k: no window, and none borrowed
            Sequence("exact", "MKV"),  # == k: one window
            Sequence("empty", ""),
            Sequence("tail", "AMKV"),
        ]
        got = kc.count_matrix(seqs)
        assert got.sum(axis=1).tolist() == [8, 0, 1, 0, 2]
        assert np.array_equal(got, stacked_bincount(kc, seqs))

    def test_all_rows_shorter_than_k(self):
        kc = KmerCounter(k=4)
        got = kc.count_matrix([Sequence("a", "MK"), Sequence("b", "V")])
        assert got.shape == (2, kc.space_size) and not got.any()

    def test_empty_list(self):
        kc = KmerCounter(k=3)
        got = kc.count_matrix([])
        assert got.shape == (0, kc.space_size) and got.dtype == np.int32

    def test_sequences_already_in_the_target_alphabet(self):
        kc = KmerCounter(k=2, alphabet=DAYHOFF6)
        mixed = [
            Sequence("p", "MKVADENQW", alphabet=PROTEIN),
            Sequence("d", "MKVADENQW", alphabet=DAYHOFF6),
        ]
        got = kc.count_matrix(mixed)
        assert np.array_equal(got[0], got[1])
        assert np.array_equal(got, stacked_bincount(kc, mixed))

    def test_count_vector_is_a_row_of_the_matrix(self):
        kc = KmerCounter(k=3)
        s = Sequence("a", "MKVAMKVA")
        assert np.array_equal(kc.count_vector(s), kc.count_matrix([s])[0])

    def test_out_of_range_code_raises(self):
        kc = KmerCounter(k=2, alphabet=PROTEIN)
        bad = Sequence("a", "MKV")
        bad._codes = np.array([0, PROTEIN.size, 1], dtype=np.uint8)
        with pytest.raises(ValueError, match="out of range"):
            kc.count_matrix([Sequence("ok", "MKVA"), bad])
