"""Tests for repro.kmer.distance."""

import numpy as np
import pytest

from repro.distance.transforms import fractional_identity_estimate
from repro.kmer.counting import KmerCounter
from repro.kmer.distance import (
    kmer_distance_matrix,
    kmer_match_fraction_matrix,
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
    def test_complement(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDQQ"])
        kc = KmerCounter(k=2)
        f = kmer_match_fraction_matrix(seqs, counter=kc)
        d = kmer_distance_matrix(seqs, counter=kc)
        assert np.allclose(d, 1.0 - f)

    def test_related_closer_than_unrelated(self):
        related = seqs_from(["MKVAWDENQRTS", "MKVAWDENQRTA"])
        stranger = Sequence("z", "HHHHCCCCPPPP")
        kc = KmerCounter(k=2)
        d = kmer_distance_matrix(related + [stranger], counter=kc)
        assert d[0, 1] < d[0, 2]


class TestFractionalIdentity:
    def test_monotone(self):
        f = np.array([0.0, 0.3, 0.8])
        est = fractional_identity_estimate(f)
        assert (np.diff(est) > 0).all()

    def test_clipped(self):
        assert fractional_identity_estimate(np.array([1.5])).max() <= 1.0
        assert fractional_identity_estimate(np.array([0.0])).min() >= 0.0
