"""The ``out=`` placement contract: memory, condensed and memmap results
are byte-identical for every estimator on every schedule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import all_pairs, available_estimators
from repro.distance.tilestore import CondensedMatrix
from repro.parcomp.launcher import run_spmd
from repro.seq.sequence import Sequence

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


def condensed_bytes(dense):
    ii, jj = np.triu_indices(dense.shape[0], k=1)
    return dense[ii, jj].tobytes()


@pytest.fixture(scope="module")
def family():
    from repro.datagen.rose import generate_family

    fam = generate_family(
        n_sequences=8, mean_length=40, relatedness=300, seed=21,
        track_alignment=False,
    )
    return list(fam.sequences)


class TestEveryEstimatorEveryPlacement:
    """Serial: all three placements hold the same bytes, per estimator."""

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    def test_placements_byte_identical(self, family, name, tmp_path):
        dense = all_pairs(family, name)
        expected = condensed_bytes(dense)
        cond = all_pairs(family, name, out="condensed")
        assert isinstance(cond, CondensedMatrix)
        assert cond.condensed.tobytes() == expected
        mm = all_pairs(
            family, name, out="memmap", store_dir=tmp_path / name
        )
        assert isinstance(mm.condensed, np.memmap)
        assert mm.condensed.tobytes() == expected
        assert np.array_equal(mm.to_dense(), dense)


class TestEverySchedule:
    """ktuple across serial / threads / pool (warm, and both ranks on one
    worker) / SPMD: the memmap store holds the same bytes no matter who
    wrote the tiles."""

    @pytest.fixture(scope="class")
    def expected(self, family):
        return condensed_bytes(all_pairs(family, "ktuple"))

    def test_threads(self, family, expected, tmp_path):
        mm = all_pairs(
            family, "ktuple", backend="threads", workers=3,
            out="memmap", store_dir=tmp_path / "s",
        )
        assert mm.condensed.tobytes() == expected

    def test_processes(self, one_slot_backend, family, expected, tmp_path):
        mm = all_pairs(
            family, "ktuple", backend=one_slot_backend, workers=2,
            out="memmap", store_dir=tmp_path / "s",
        )
        assert mm.condensed.tobytes() == expected

    def test_pool(self, pool, family, expected, tmp_path):
        mm = all_pairs(
            family, "ktuple", backend="pool", workers=2,
            out="memmap", store_dir=tmp_path / "s",
        )
        assert mm.condensed.tobytes() == expected

    def test_cooperative_spmd(self, family, expected, tmp_path):
        root = tmp_path / "s"

        def program(comm):
            return all_pairs(
                family, "ktuple", comm=comm, out="memmap", store_dir=root
            )

        spmd = run_spmd(3, program)
        # Every rank returns a view over the same consolidated store.
        for mm in spmd.results:
            assert mm.condensed.tobytes() == expected

    def test_cooperative_condensed(self, family, expected):
        def program(comm):
            return all_pairs(family, "ktuple", comm=comm, out="condensed")

        spmd = run_spmd(2, program)
        for cond in spmd.results:
            assert cond.condensed.tobytes() == expected

    def test_backend_condensed(self, family, expected):
        cond = all_pairs(
            family, "ktuple", backend="threads", workers=3, out="condensed"
        )
        assert cond.condensed.tobytes() == expected

    def test_tiling_never_changes_store_bytes(self, family, expected,
                                              tmp_path):
        for tile in (1, 7, 1 << 20):
            mm = all_pairs(
                family, "ktuple", out="memmap",
                store_dir=tmp_path / f"t{tile}", tile_pairs=tile,
            )
            assert mm.condensed.tobytes() == expected


class TestPropertyEquivalence:
    @given(
        texts=st.lists(
            st.text(alphabet=AMINO, min_size=1, max_size=14),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_memmap_always_matches_memory(self, texts, tmp_path_factory):
        seqs = seqs_from(texts)
        dense = all_pairs(seqs, "ktuple")
        root = tmp_path_factory.mktemp("store")
        mm = all_pairs(seqs, "ktuple", out="memmap", store_dir=root / "s")
        assert mm.condensed.tobytes() == condensed_bytes(dense)
