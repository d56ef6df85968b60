"""Aligner-specific behaviour tests (stages, weights, libraries, anchors)."""

import numpy as np
import pytest

from repro.tree import NeighborJoiningBuilder, UpgmaBuilder
from repro.align.profile import Profile, merge_profiles
from repro.align.profile_align import ProfileAlignConfig
from repro.metrics import qscore
from repro.distance import (
    alignment_identity_matrix,
    all_pairs,
    kimura_distance,
)
from repro.msa import ClustalWLike, MafftLike, MuscleLike, TCoffeeLike
from repro.msa.clustalw import clustal_sequence_weights
from repro.msa.mafft import anchored_path, fft_anchor_segments
from repro.msa.registry import (
    get_aligner,
    register_aligner,
    unregister_aligner,
)
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence


class TestDistances:
    def test_ktuple_diagonal_zero(self, tiny_seqs):
        d = all_pairs(list(tiny_seqs), "ktuple", k=3)
        assert np.allclose(np.diag(d), 0.0)

    def test_full_dp_identical_zero(self):
        seqs = [Sequence("a", "MKTAYI"), Sequence("b", "MKTAYI")]
        d = all_pairs(seqs, "full-dp")
        assert d[0, 1] == pytest.approx(0.0)

    def test_full_dp_symmetric(self, tiny_seqs):
        d = all_pairs(list(tiny_seqs)[:4], "full-dp")
        assert np.allclose(d, d.T)

    def test_alignment_identity_matrix(self):
        aln = Alignment.from_rows(
            ["a", "b", "c"], ["MKV-", "MKVA", "MLV-"]
        )
        ident = alignment_identity_matrix(aln)
        assert ident[0, 0] == 1.0
        assert ident[0, 1] == pytest.approx(1.0)  # overlap columns identical
        assert ident[0, 2] == pytest.approx(2 / 3)

    def test_alignment_identity_no_overlap(self):
        aln = Alignment.from_rows(["a", "b"], ["M-", "-K"])
        assert alignment_identity_matrix(aln)[0, 1] == 0.0

    def test_kimura_monotone(self):
        ident = np.array([[1.0, 0.9], [0.9, 1.0]])
        far = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert kimura_distance(far)[0, 1] > kimura_distance(ident)[0, 1]

    def test_kimura_zero_for_identical(self):
        d = kimura_distance(np.ones((2, 2)))
        assert d[0, 1] == pytest.approx(0.0)

    def test_kimura_saturates(self):
        d = kimura_distance(np.array([[1.0, 0.01], [0.01, 1.0]]))
        assert np.isfinite(d).all()


class TestMuscleStages:
    def test_flags(self, small_family):
        draft = MuscleLike(two_stage=False, refine=False)
        full = MuscleLike()
        a1 = draft.align(small_family.sequences)
        a2 = full.align(small_family.sequences)
        q1 = qscore(a1, small_family.reference)
        q2 = qscore(a2, small_family.reference)
        # The full pipeline must not be (much) worse than the draft.
        assert q2 >= q1 - 0.05

    def test_refine_improves_or_keeps_sp(self, small_family):
        from repro.align.scoring import sp_score

        p = MuscleLike(refine=False).align(small_family.sequences)
        f = MuscleLike(refine=True).align(small_family.sequences)
        assert sp_score(f) >= sp_score(p) - 1e-9

    def test_anchored_mode_roundtrips(self, small_family):
        aln = MuscleLike(anchored=True).align(small_family.sequences)
        un = aln.ungapped()
        for s in small_family.sequences:
            assert un[s.id].residues == s.residues

    def test_anchored_close_to_exact(self, small_family):
        from repro.metrics import qscore

        q_exact = qscore(
            MuscleLike().align(small_family.sequences),
            small_family.reference,
        )
        q_anch = qscore(
            MuscleLike(anchored=True).align(small_family.sequences),
            small_family.reference,
        )
        assert q_anch >= q_exact - 0.15


class TestClustalW:
    def test_weights_positive_mean_one(self, tiny_seqs):
        d = all_pairs(list(tiny_seqs), "ktuple", k=3)
        tree = NeighborJoiningBuilder().build(d, tiny_seqs.ids)
        w = clustal_sequence_weights(tree)
        assert (w > 0).all()
        assert w.mean() == pytest.approx(1.0)

    def test_weights_single_leaf(self):
        tree = UpgmaBuilder().build(np.zeros((1, 1)), ["a"])
        assert clustal_sequence_weights(tree).tolist() == [1.0]

    def test_outlier_gets_higher_weight(self):
        # Three near-identical sequences plus one outlier: the outlier's
        # root path is not shared, so its weight must be the largest.
        m = np.array(
            [
                [0.0, 0.05, 0.06, 0.9],
                [0.05, 0.0, 0.055, 0.9],
                [0.06, 0.055, 0.0, 0.9],
                [0.9, 0.9, 0.9, 0.0],
            ]
        )
        tree = NeighborJoiningBuilder().build(m, ["a", "b", "c", "out"])
        w = clustal_sequence_weights(tree)
        assert w[3] == w.max()

    def test_distance_mode_validation(self):
        with pytest.raises(ValueError):
            ClustalWLike(distance_mode="bogus")


class TestTCoffee:
    def test_extension_toggle_runs(self, tiny_seqs):
        for extend in (False, True):
            aln = TCoffeeLike(extend=extend, use_local=False).align(tiny_seqs)
            un = aln.ungapped()
            for s in tiny_seqs:
                assert un[s.id].residues == s.residues

    def test_library_scores_consistency_wins(self, small_family):
        # Consistency scoring should at least match the draft progressive.
        t = TCoffeeLike().align(small_family.sequences)
        d = get_aligner("muscle-draft").align(small_family.sequences)
        qt = qscore(t, small_family.reference)
        qd = qscore(d, small_family.reference)
        assert qt >= qd - 0.02


class TestMafft:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            MafftLike(mode="turbo")

    def test_fft_anchor_segments_on_identical_profiles(self):
        s = Sequence("a", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ")
        px = Profile.from_sequence(s)
        py = Profile.from_sequence(s.with_id("b"))
        anchors = fft_anchor_segments(px, py, ProfileAlignConfig())
        assert anchors, "identical profiles must anchor"
        # Anchors must be consistent (strictly increasing, non-overlapping)
        # and lie on the main diagonal for identical profiles.
        prev_end = (0, 0)
        for i, j, length in anchors:
            assert i == j
            assert i >= prev_end[0] and j >= prev_end[1]
            prev_end = (i + length, j + length)

    def test_anchored_merge_roundtrip(self, small_family):
        seqs = list(small_family.sequences)
        pa = Profile.from_sequence(seqs[0])
        pb = Profile.from_sequence(seqs[1])
        merged = merge_profiles(
            pa, pb, *anchored_path(pa, pb, ProfileAlignConfig())
        )
        un = merged.alignment.ungapped()
        assert un[seqs[0].id].residues == seqs[0].residues
        assert un[seqs[1].id].residues == seqs[1].residues

    def test_fftnsi_close_to_nwnsi(self, small_family):
        q_nw = qscore(
            MafftLike(mode="nwnsi").align(small_family.sequences),
            small_family.reference,
        )
        q_fft = qscore(
            MafftLike(mode="fftnsi").align(small_family.sequences),
            small_family.reference,
        )
        assert q_fft >= q_nw - 0.15  # anchoring trades a little accuracy

    def test_short_profiles_skip_anchoring(self):
        px = Profile.from_sequence(Sequence("a", "MKV"))
        py = Profile.from_sequence(Sequence("b", "MKV"))
        assert fft_anchor_segments(px, py, ProfileAlignConfig()) == []


class TestRegistry:
    def test_available(self):
        names = get_available = set()
        from repro.msa import available_aligners

        names = set(available_aligners())
        assert {"muscle", "clustalw", "tcoffee", "center-star"} <= names

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown aligner"):
            get_aligner("nope")

    def test_kwargs_passthrough(self):
        a = get_aligner("muscle", refine_rounds=5)
        assert a.refine_rounds == 5

    def test_register_custom_and_duplicate(self):
        class Custom(MuscleLike):
            name = "custom-test"

        register_aligner("custom-test-xyz", lambda **kw: Custom(**kw))
        try:
            assert get_aligner("custom-test-xyz").name in (
                "muscle", "custom-test"
            )
            with pytest.raises(ValueError, match="already registered"):
                register_aligner("custom-test-xyz", lambda **kw: Custom(**kw))
        finally:
            # Registered engines outlive the test otherwise, and later
            # suites that walk the registry would meet this one.
            unregister_aligner("custom-test-xyz")
