"""Tests for the BAliBASE-like categorised benchmark."""

import numpy as np
import pytest

from repro.datagen.balibase import CATEGORIES, make_balibase_like


@pytest.fixture(scope="module")
def cases():
    return make_balibase_like(cases_per_category=1, seed=3)


class TestGeneration:
    def test_all_categories_present(self, cases):
        assert {c.category for c in cases} == set(CATEGORIES)

    def test_reference_roundtrip_every_case(self, cases):
        for c in cases:
            un = c.reference.ungapped()
            for s in c.sequences:
                assert un[s.id].residues == s.residues, (c.name, s.id)

    def test_reference_no_all_gap_columns(self, cases):
        for c in cases:
            assert not c.reference.gap_mask().all(axis=0).any(), c.name

    def test_deterministic(self):
        a = make_balibase_like(cases_per_category=1, seed=5)
        b = make_balibase_like(cases_per_category=1, seed=5)
        for ca, cb in zip(a, b):
            assert ca.sequences.ids == cb.sequences.ids
            assert ca.reference == cb.reference

    def test_counts(self):
        cases = make_balibase_like(cases_per_category=2, seed=0)
        assert len(cases) == 2 * len(CATEGORIES)

    def test_category_subset(self):
        cases = make_balibase_like(
            cases_per_category=1, categories=("RV11", "RV50"), seed=0
        )
        assert {c.category for c in cases} == {"RV11", "RV50"}

    def test_validation(self):
        with pytest.raises(ValueError):
            make_balibase_like(cases_per_category=0)
        with pytest.raises(ValueError):
            make_balibase_like(categories=("RV99",))


class TestCategoryStructure:
    def test_rv40_has_terminal_extensions(self, cases):
        case = next(c for c in cases if c.category == "RV40")
        lengths = case.sequences.lengths()
        # Extended members are markedly longer than the core.
        assert lengths.max() >= lengths.min() + 15

    def test_rv50_has_internal_insertions(self, cases):
        case = next(c for c in cases if c.category == "RV50")
        ref = case.reference
        # Insertion columns: occupied by exactly one row.
        counts = (ref.matrix != ref.alphabet.gap_code).sum(axis=0)
        assert (counts == 1).sum() >= 15

    def test_rv20_orphans_more_divergent(self, cases):
        from repro.distance import alignment_identity_matrix

        case = next(c for c in cases if c.category == "RV20")
        ident = alignment_identity_matrix(case.reference)
        mean_ident = (ident.sum(axis=1) - 1) / (ident.shape[0] - 1)
        # The two most isolated members sit well below the median.
        isolated = np.sort(mean_ident)[:2]
        assert isolated.mean() < np.median(mean_ident)

    def test_rv11_harder_than_rv12(self, cases):
        from repro.metrics import qscore
        from repro.msa import get_aligner

        by_cat = {c.category: c for c in cases}
        q = {}
        for cat in ("RV11", "RV12"):
            case = by_cat[cat]
            aln = get_aligner("muscle-draft").align(case.sequences)
            q[cat] = qscore(aln, case.reference)
        assert q["RV11"] <= q["RV12"] + 0.05
