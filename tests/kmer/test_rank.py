"""Tests for repro.kmer.rank."""

import hashlib

import numpy as np
import pytest

from repro.datagen.rose import generate_family
from repro.kmer.counting import kmer_match_fraction_matrix
from repro.kmer.rank import (
    RankConfig,
    centralized_rank,
    globalized_rank,
    rank_from_fractions,
)
from repro.seq.alphabet import PROTEIN
from repro.seq.sequence import Sequence


class TestRankConfig:
    def test_defaults(self):
        cfg = RankConfig()
        assert cfg.k == 4 and cfg.transform == "neglog"

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            RankConfig(offset=0.0)

    def test_bad_transform(self):
        with pytest.raises(ValueError):
            RankConfig(transform="exp")

    def test_counter(self):
        assert RankConfig(k=3).counter().k == 3


class TestRankTransform:
    def test_neglog_monotone_decreasing(self):
        d = np.array([0.1, 0.4, 0.9])
        r = rank_from_fractions(d)
        assert (np.diff(r) < 0).all()

    def test_neglog_range(self):
        r = rank_from_fractions(np.array([0.0, 1.0]))
        assert np.isclose(r[0], -np.log(0.1))
        assert r[1] == 0.0  # clipped at zero (Table 1's minimum)

    def test_literal_log_variant(self):
        cfg = RankConfig(transform="log")
        r = rank_from_fractions(np.array([0.0, 1.0]), cfg)
        assert np.isclose(r[0], np.log(0.1))
        assert np.isclose(r[1], np.log(1.1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rank_from_fractions(np.array([1.5]))


class TestEstimators:
    def test_globalized_equals_centralized_with_full_sample(self, small_family):
        seqs = list(small_family.sequences)
        cfg = RankConfig()
        central = centralized_rank(seqs, cfg)
        globalized = globalized_rank(seqs, seqs, cfg)
        assert np.allclose(central, globalized)

    def test_globalized_tracks_centralized(self):
        # Composition-diverse input (several families with distinct residue
        # backgrounds, the paper's "phylogenetically diverse" regime),
        # sampled the way the algorithm does: regularly from a rank-sorted
        # list.
        from repro.datagen.rose import BACKGROUND, RoseParams

        rng = np.random.default_rng(0)
        seqs = []
        for f in range(4):
            bg = rng.dirichlet(BACKGROUND * 30.0 + 1e-3)
            params = RoseParams(
                n_sequences=12, mean_length=90, relatedness=500, background=bg
            )
            fam = generate_family(
                seed=f, track_alignment=False, id_prefix=f"f{f}_", params=params
            )
            seqs.extend(fam.sequences)
        cfg = RankConfig()
        central = centralized_rank(seqs, cfg)
        order = np.argsort(central)
        sample = [seqs[int(i)] for i in order[:: max(len(seqs) // 12, 1)]]
        globalized = globalized_rank(seqs, sample, cfg)
        corr = np.corrcoef(central, globalized)[0, 1]
        assert corr > 0.75

    def test_diverse_family_ranks_higher(self):
        close = generate_family(12, 80, relatedness=80, seed=1,
                                track_alignment=False)
        far = generate_family(12, 80, relatedness=900, seed=1,
                              track_alignment=False)
        cfg = RankConfig()
        r_close = centralized_rank(list(close.sequences), cfg).mean()
        r_far = centralized_rank(list(far.sequences), cfg).mean()
        assert r_far > r_close

    def test_identical_sequences_rank_zero_ish(self):
        seqs = [Sequence(f"s{i}", "MKVAWDENQRTS" * 4) for i in range(6)]
        r = centralized_rank(seqs)
        # All-identical set: D_i = 1, rank = max(-ln(1.1), 0) = 0.
        assert np.allclose(r, 0.0)

    def test_include_self_effect(self, small_family):
        seqs = list(small_family.sequences)
        with_self = centralized_rank(seqs, RankConfig(include_self=True))
        without = centralized_rank(seqs, RankConfig(include_self=False))
        # Excluding the perfect self-match lowers D_i, raising the rank.
        assert (without >= with_self - 1e-12).all()
        assert without.mean() > with_self.mean()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            globalized_rank([Sequence("a", "MKVA")], [])

    def test_empty_sequences(self):
        assert centralized_rank([]).size == 0

    def test_rank_values_in_table1_range(self, diverse_family):
        # The paper's Table 1 reports ranks in [0, ~1.46] for divergent
        # sets; the neglog transform is bounded by -ln(0.1) ~ 2.30.
        r = centralized_rank(list(diverse_family.sequences))
        assert (r >= 0).all() and (r <= -np.log(0.1) + 1e-9).all()


class TestPinnedOutputs:
    """sha256 of the ranks and of the match-fraction matrices under them,
    on two rose families, in a dense (Dayhoff-6, k = 4) and a sparse
    (protein, k = 6) k-mer space; recorded before the match fraction had
    one implementation.  The matrices are quotients of integers, so
    their bytes are pinned exactly; the ranks go through ``np.log``,
    whose last bit may vary with the host's SIMD code, so they are
    pinned at 12 decimals."""

    SPACES = {
        "dense": RankConfig(),
        "sparse": RankConfig(k=6, alphabet=PROTEIN),
    }
    DIGESTS = {
        (3, "dense"): (
            "a5426139d7deeca550f345ec253649413949c0a75615c6b73948333a83600164",
            "8924abeda4a34e46d61cacc513c6ff05da9edbe08551d471c213ec8273555216",
            "2d6b4dd2f9af702f547442ebdcf28065247b1bd658a7f7ec97a058abd177cc04",
            "c551fad6c375ab27184ff146fd2960a9b9efebfba1b20d30f9f9caf1a8db0669",
        ),
        (3, "sparse"): (
            "dfddb574925016d8cf7eb6ecc2cb7df665dbe19ffdf42a413211ec343032e6c7",
            "b824e62d624092eff4eeded1a2148d613f88d1d09986b8966cda1b66feb7c388",
            "095fb8dfc25e6a1ee7101c3e933913246b9afcb4c8bf730b4392c64379b497dd",
            "7ad09be056f8f0d0a259c8149a999ae07c7ccd708ce24f6521ffbbc1c71d7fcc",
        ),
        (11, "dense"): (
            "6104322bb8e7e5cc32ca604e69f9f5beacf758ea7e1a7c2ef1ff77c2b6a44092",
            "a9ae14fcd03b4fa2c83e52e57d5121d98eb0acde404dac1415278da1b9a69bbb",
            "298af889779374048424c6872bfb9f634e4d0d7b9a809008f52edf06084f2413",
            "f97a9acc1bad7cac40f1e8583b5a039dbfd77ab83f9dd7aef60978682f02ea0f",
        ),
        (11, "sparse"): (
            "ded7cc4616ea967c3e439f6717807beeff6b5d8f58cbb87cb17a2afbc081dc3a",
            "fef4fe8c2578f4b19c0669f40fe8e393a5bcf32aaaee42388bd4917aae056882",
            "e680105a815e859d7a6ef9421888a9a41271b2238cbe185abbdb46f09735ea46",
            "686f721adc42930d7f0d4cadd6a5092edbb939b8ba9abde842917c1ba2710b2e",
        ),
    }

    @pytest.mark.parametrize("seed, space", sorted(DIGESTS))
    def test_digests(self, seed, space):
        def sha(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        seqs = list(
            generate_family(
                n_sequences=24, mean_length=90, seed=seed,
                track_alignment=False,
            ).sequences
        )
        config = self.SPACES[space]
        counter = config.counter()
        assert counter.dense_ok == (space == "dense")
        sample = seqs[::5]
        got = (
            sha(np.round(centralized_rank(seqs, config), 12)),
            sha(np.round(globalized_rank(seqs, sample, config), 12)),
            sha(kmer_match_fraction_matrix(seqs, None, counter)),
            sha(kmer_match_fraction_matrix(seqs, sample, counter)),
        )
        assert got == self.DIGESTS[seed, space]
