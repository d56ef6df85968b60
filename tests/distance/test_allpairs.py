"""The tiled all-pairs scheduler: validation, backends, cooperation."""

import numpy as np
import pytest

from repro.distance import (
    FullDpDistance,
    KtupleDistance,
    all_pairs,
    condensed_pair_indices,
)
from repro.parcomp.launcher import run_spmd
from repro.seq.sequence import Sequence


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


@pytest.fixture(scope="module")
def family():
    from repro.datagen.rose import generate_family

    fam = generate_family(
        n_sequences=10, mean_length=60, relatedness=300, seed=3,
        track_alignment=False,
    )
    return list(fam.sequences)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no sequences"):
            all_pairs([])

    def test_single_sequence_rejected(self):
        with pytest.raises(ValueError, match="single sequence"):
            all_pairs([Sequence("a", "MKV")])

    def test_zero_length_sequence_rejected(self):
        with pytest.raises(ValueError, match="length-0.*'z'"):
            all_pairs([Sequence("a", "MKV"), Sequence("z", "")])

    def test_legacy_delegates_validate_too(self):
        for est in (KtupleDistance(), FullDpDistance()):
            with pytest.raises(ValueError):
                all_pairs([], est)
            with pytest.raises(ValueError):
                all_pairs([Sequence("a", "MKV")], est)

    def test_bad_workers(self, family):
        with pytest.raises(ValueError):
            all_pairs(family, workers=0)

    def test_comm_excludes_backend(self, family):
        def program(comm):
            return all_pairs(family, comm=comm, backend="threads")

        with pytest.raises(RuntimeError, match="cooperative"):
            run_spmd(2, program)

    def test_unknown_backend(self, family):
        with pytest.raises(KeyError):
            all_pairs(family, backend="gpu")


class TestBackendEquivalence:
    """The acceptance contract: serial, threads and worker-process (pool)
    schedules produce byte-identical matrices."""

    @pytest.mark.parametrize("name", ["ktuple", "kmer-fraction", "full-dp"])
    def test_serial_threads_processes_identical(self, pool, family, name):
        serial = all_pairs(family, name, workers=1)
        threads = all_pairs(family, name, backend="threads", workers=3)
        procs = all_pairs(family, name, backend="pool", workers=2)
        assert serial.tobytes() == threads.tobytes()
        assert serial.tobytes() == procs.tobytes()

    def test_worker_count_never_changes_bytes(self, family):
        base = all_pairs(family, "ktuple")
        for workers in (1, 2, 5, 16):
            par = all_pairs(
                family, "ktuple", backend="threads", workers=workers
            )
            assert base.tobytes() == par.tobytes()

    def test_tile_size_never_changes_bytes(self, family):
        base = all_pairs(family, "ktuple")
        for tile in (1, 7, 1 << 20):
            assert base.tobytes() == all_pairs(
                family, "ktuple", tile_pairs=tile
            ).tobytes()
        assert base.tobytes() == all_pairs(
            family, "ktuple", backend="threads", workers=4, tile_pairs=2
        ).tobytes()

    def test_workers_capped_at_pair_count(self):
        seqs = seqs_from(["MKVA", "MKVAW"])  # one pair
        d = all_pairs(seqs, "ktuple", backend="threads", workers=64)
        assert d.shape == (2, 2)

    def test_default_backend_with_workers(self, family):
        # workers>1 without backend runs on the default backend.
        base = all_pairs(family, "ktuple")
        assert base.tobytes() == all_pairs(
            family, "ktuple", workers=2
        ).tobytes()


class TestCooperativeMode:
    def test_all_ranks_get_full_matrix(self, family):
        expected = all_pairs(family, "ktuple")

        def program(comm):
            return all_pairs(family, KtupleDistance(), comm=comm)

        spmd = run_spmd(3, program)
        for rank_matrix in spmd.results:
            assert rank_matrix.tobytes() == expected.tobytes()

    def test_cooperation_meters_messages(self, family):
        def program(comm):
            return all_pairs(family, comm=comm)

        spmd = run_spmd(3, program)
        assert spmd.ledger.n_messages() > 0

    def test_single_rank_cooperative(self, family):
        expected = all_pairs(family, "ktuple")

        def program(comm):
            return all_pairs(family, comm=comm)

        spmd = run_spmd(1, program)
        assert spmd.results[0].tobytes() == expected.tobytes()


class TestCondensedIndices:
    def test_cover_upper_triangle_once(self):
        ii, jj = condensed_pair_indices(5)
        assert len(ii) == 10
        assert (ii < jj).all()
        assert len({(int(a), int(b)) for a, b in zip(ii, jj)}) == 10
