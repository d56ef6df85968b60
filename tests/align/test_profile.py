"""Tests for repro.align.profile."""

import numpy as np
import pytest

from repro.align.profile import Profile, merge_profiles
from repro.seq.alignment import Alignment
from repro.seq.alphabet import PROTEIN
from repro.seq.sequence import Sequence


def mk(rows, ids=None):
    ids = ids or [f"r{i}" for i in range(len(rows))]
    return Profile(Alignment.from_rows(ids, rows))


class TestProfile:
    def test_from_sequence(self):
        p = Profile.from_sequence(Sequence("a", "MKV"))
        assert p.n_sequences == 1 and p.n_columns == 3
        assert np.allclose(p.occupancy, 1.0)

    def test_counts(self):
        p = mk(["MK", "MV"])
        assert p.counts[0, PROTEIN.index("M")] == 2
        assert p.counts[1, PROTEIN.index("K")] == 1
        assert p.counts[1, PROTEIN.index("V")] == 1

    def test_frequency_mass_equals_occupancy(self):
        p = mk(["M-K", "MVK", "M--"])
        assert np.allclose(p.frequencies.sum(axis=1), p.occupancy)

    def test_gap_counts(self):
        p = mk(["M-", "M-"])
        assert p.counts[1, PROTEIN.gap_code] == 2
        assert p.occupancy[1] == 0.0

    def test_from_sequences_equal_length(self):
        p = Profile.from_sequences(
            [Sequence("a", "MKV"), Sequence("b", "MKL")]
        )
        assert p.n_sequences == 2

    @pytest.mark.parametrize(
        "rows", [["M-K", "MVK", "M--"], ["MKV"], ["--", "--"], ["", ""]]
    )
    def test_from_counts_has_the_alignment_profiles_statistics(self, rows):
        ref = mk(rows)
        p = Profile.from_counts(ref.counts, len(rows), PROTEIN)
        assert p.alignment is None
        assert (p.n_sequences, p.n_columns, p.alphabet) == (
            ref.n_sequences, ref.n_columns, ref.alphabet
        )
        for name in ("counts", "frequencies", "occupancy"):
            assert getattr(p, name).tobytes() == getattr(ref, name).tobytes()

    def test_from_counts_scores_like_the_alignment_profile(self):
        """A one-row profile built from counts still takes the one-hot
        gather path, and every PSP matrix equals the alignment one's."""
        from repro.align.profile_align import (
            ProfileAlignConfig,
            _one_hot_codes,
            profile_score_matrix,
        )

        config = ProfileAlignConfig()
        leaf, block = mk(["MKVW"]), mk(["M-KV", "MWK-"])
        from_counts = [
            Profile.from_counts(p.counts, p.n_sequences, PROTEIN)
            for p in (leaf, block)
        ]
        assert _one_hot_codes(from_counts[0]).tolist() == (
            leaf.alignment.matrix[0].tolist()
        )
        assert _one_hot_codes(from_counts[1]) is None
        for x_ref, x in zip((leaf, block), from_counts):
            for y_ref, y in zip((leaf, block), from_counts):
                assert profile_score_matrix(x, y, config).tobytes() == (
                    profile_score_matrix(x_ref, y_ref, config).tobytes()
                )


class TestMergeProfiles:
    def test_identity_merge(self):
        px = mk(["MK"], ids=["a"])
        py = mk(["MK"], ids=["b"])
        merged = merge_profiles(
            px, py, np.array([0, 1]), np.array([0, 1])
        )
        assert merged.alignment.ids == ["a", "b"]
        assert merged.alignment.row_text("a") == "MK"
        assert merged.alignment.row_text("b") == "MK"

    def test_gapped_merge(self):
        px = mk(["MK"], ids=["a"])
        py = mk(["K"], ids=["b"])
        # Path: x0 vs gap, x1 vs y0.
        merged = merge_profiles(px, py, np.array([0, 1]), np.array([-1, 0]))
        assert merged.alignment.row_text("a") == "MK"
        assert merged.alignment.row_text("b") == "-K"

    def test_existing_gaps_preserved(self):
        px = mk(["M-K", "MVK"], ids=["a", "b"])
        py = mk(["MK"], ids=["c"])
        merged = merge_profiles(
            px, py, np.array([0, 1, 2]), np.array([0, -1, 1])
        )
        assert merged.alignment.row_text("a") == "M-K"
        assert merged.alignment.row_text("c") == "M-K"

    def test_incomplete_path_rejected(self):
        px = mk(["MK"], ids=["a"])
        py = mk(["MK"], ids=["b"])
        with pytest.raises(ValueError, match="consume"):
            merge_profiles(px, py, np.array([0]), np.array([0]))

    def test_length_mismatch_rejected(self):
        px = mk(["M"], ids=["a"])
        py = mk(["M"], ids=["b"])
        with pytest.raises(ValueError, match="equal length"):
            merge_profiles(px, py, np.array([0]), np.array([0, -1]))

    def test_merged_counts_consistent(self):
        px = mk(["MKV", "M-V"], ids=["a", "b"])
        py = mk(["KV"], ids=["c"])
        merged = merge_profiles(
            px, py, np.array([0, 1, 2]), np.array([-1, 0, 1])
        )
        # Counts recomputed from the merged alignment must match bincount.
        aln = merged.alignment
        man = np.zeros_like(merged.counts)
        for r in range(aln.n_rows):
            for c in range(aln.n_columns):
                man[c, aln.matrix[r, c]] += 1
        assert np.array_equal(man, merged.counts)
