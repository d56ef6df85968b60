"""Tiled vs per-pair DP distances: byte-identical on every backend.

The per-pair base is a plain loop over :func:`global_align` (the scalar
kernel); the ``full-dp`` estimator, one ``dp.identity_code_pairs`` call
per tile (identity counts only, no alignments), must produce the same
distance matrix to the last bit, whichever backend schedules the tiles
and whatever the tile size.
"""

import numpy as np
import pytest

from repro.align.pairwise import global_align
from repro.distance import all_pairs
from repro.parcomp.launcher import run_spmd


@pytest.fixture(scope="module")
def family():
    from repro.datagen.rose import generate_family

    fam = generate_family(
        n_sequences=10, mean_length=60, relatedness=300, seed=7,
        track_alignment=False,
    )
    return list(fam.sequences)


@pytest.fixture(scope="module")
def per_pair_base(family):
    """The serial ``full-dp`` matrix from one scalar DP per pair."""
    n = len(family)
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            base[i, j] = base[j, i] = (
                1.0 - global_align(family[i], family[j]).identity()
            )
    return base.tobytes()


@pytest.mark.parametrize("name", ["full-dp"])
class TestBatchedMatchesPerPair:
    def test_serial(self, family, per_pair_base, name):
        assert all_pairs(family, name, workers=1).tobytes() == per_pair_base

    def test_threads(self, family, per_pair_base, name):
        got = all_pairs(family, name, backend="threads", workers=3)
        assert got.tobytes() == per_pair_base

    def test_processes(self, one_shot_backend, family, per_pair_base, name):
        got = all_pairs(family, name, backend=one_shot_backend, workers=2)
        assert got.tobytes() == per_pair_base

    def test_pool(self, pool, family, per_pair_base, name):
        got = all_pairs(family, name, backend="pool", workers=2)
        assert got.tobytes() == per_pair_base

    def test_cooperative_spmd(self, family, per_pair_base, name):
        def program(comm):
            return all_pairs(family, name, comm=comm)

        spmd = run_spmd(2, program)
        for rank_matrix in spmd.results:
            assert rank_matrix.tobytes() == per_pair_base

    def test_batch_size_never_changes_bytes(
        self, family, per_pair_base, name
    ):
        for size in (1, 2, 7, 64, 4096):
            got = all_pairs(family, name, workers=1, tile_pairs=size)
            assert got.tobytes() == per_pair_base


class TestEachKernelsRoute:
    """``full-dp`` runs each tile on the DP kernel's path (one compiled
    call under ``c``, ``_forward`` -> ``_traceback`` per pair under
    ``numpy``), one ``dp.pairs`` span per tile; the matrix is the
    per-pair base's, byte for byte, under both."""

    def test_serial(self, dp_kernel, traced, family, per_pair_base):
        got, records = traced(
            lambda: all_pairs(family, "full-dp", workers=1)
        )
        assert got.tobytes() == per_pair_base
        spans = [r for r in records if r.name.startswith("dp.")]
        assert [r.name for r in spans] == ["dp.pairs"]
        assert spans[0].attrs["kernel"] == dp_kernel
        assert spans[0].attrs["pairs"] == 45

    def test_pool(self, dp_kernel, family, per_pair_base, monkeypatch):
        from repro.pool import PoolBackend, WorkerPool, workers

        # Forked now, so the workers run the kernel forced here.
        monkeypatch.setattr(workers, "START_METHOD", "fork")
        with WorkerPool(max_workers=2) as own:
            got = all_pairs(
                family, "full-dp", backend=PoolBackend(own), workers=2
            )
            assert own.stats()["runs"] == 1
        assert got.tobytes() == per_pair_base
