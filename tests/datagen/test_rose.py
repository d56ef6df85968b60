"""Tests for the rose-style family generator."""

import numpy as np
import pytest

from repro.datagen.rose import BACKGROUND, RoseParams, generate_family
from repro.distance import all_pairs


class TestParams:
    def test_defaults(self):
        p = RoseParams()
        assert p.n_sequences == 20 and p.mean_length == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            RoseParams(n_sequences=0)
        with pytest.raises(ValueError):
            RoseParams(mean_length=1)
        with pytest.raises(ValueError):
            RoseParams(relatedness=-1)
        with pytest.raises(ValueError):
            RoseParams(background=np.ones(5))

    def test_background_normalised(self):
        p = RoseParams(background=BACKGROUND * 7)
        assert np.isclose(p.background.sum(), 1.0)


class TestGeneration:
    def test_counts_and_ids(self):
        fam = generate_family(n_sequences=9, mean_length=60, seed=0)
        assert len(fam.sequences) == 9
        assert len(set(fam.sequences.ids)) == 9
        assert fam.leaf_depths.shape == (9,)

    def test_reproducible(self):
        a = generate_family(8, 70, relatedness=400, seed=5)
        b = generate_family(8, 70, relatedness=400, seed=5)
        assert list(a.sequences) == list(b.sequences)
        assert a.reference == b.reference

    def test_different_seeds_differ(self):
        a = generate_family(8, 70, seed=1)
        b = generate_family(8, 70, seed=2)
        assert list(a.sequences) != list(b.sequences)

    def test_lengths_near_mean(self):
        fam = generate_family(16, 120, relatedness=400, seed=0)
        mean = fam.sequences.mean_length()
        assert 80 <= mean <= 160

    def test_reference_roundtrip(self, small_family):
        un = small_family.reference.ungapped()
        for s in small_family.sequences:
            assert un[s.id].residues == s.residues

    def test_reference_rows_match_sequence_order(self, small_family):
        assert small_family.reference.ids == small_family.sequences.ids

    def test_no_tracking_path(self):
        fam = generate_family(6, 60, seed=0, track_alignment=False)
        assert fam.reference is None
        assert len(fam.sequences) == 6

    def test_divergence_monotone(self):
        """Higher relatedness (rose PAM convention) => lower identity."""
        close = generate_family(6, 80, relatedness=60, seed=3)
        far = generate_family(6, 80, relatedness=900, seed=3)
        d_close = all_pairs(list(close.sequences), "full-dp")
        d_far = all_pairs(list(far.sequences), "full-dp")
        off = ~np.eye(6, dtype=bool)
        assert d_far[off].mean() > d_close[off].mean()

    def test_zero_relatedness_identical(self):
        fam = generate_family(5, 60, relatedness=0.0, seed=4)
        texts = {s.residues for s in fam.sequences}
        assert len(texts) == 1

    def test_single_sequence(self):
        fam = generate_family(1, 50, seed=0)
        assert len(fam.sequences) == 1
        assert fam.reference.n_rows == 1

    def test_id_prefix(self):
        fam = generate_family(3, 50, seed=0, id_prefix="prot")
        assert all(s.id.startswith("prot") for s in fam.sequences)

    def test_custom_params_win(self):
        params = RoseParams(n_sequences=4, mean_length=55, relatedness=100)
        fam = generate_family(
            n_sequences=99, mean_length=999, seed=0, params=params
        )
        assert len(fam.sequences) == 4

    def test_reference_has_no_all_gap_columns(self, small_family):
        ref = small_family.reference
        gap_mask = ref.gap_mask()
        assert not gap_mask.all(axis=0).any()
