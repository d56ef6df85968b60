"""External-memory distances under worker crashes.

The memmap ``all_pairs`` mode writes tiles from pool workers; a
SIGKILLed worker must never corrupt the store (atomic publishes), the
retried run must produce byte-identical results, and a run that dies
for good must leave a store a later run resumes instead of recomputing.
"""

import os

import numpy as np
import pytest

from repro.distance import all_pairs
from repro.distance.tilestore import TileStore
from repro.obs.metrics import registry
from repro.pool import PoolBackend
from repro.pool import backend as backend_mod

from tests.distance.test_tilestore import CountingEstimator
from tests.pool.leaks import live_workers
from tests.pool.test_supervision import KillerEstimator


def condensed_bytes(dense):
    ii, jj = np.triu_indices(dense.shape[0], k=1)
    return dense[ii, jj].tobytes()


class TestCrashMidMemmapAllPairs:
    def test_retried_run_byte_identical(self, pool, tmp_path, diverse_family):
        seqs = list(diverse_family.sequences)[:16]
        expected = condensed_bytes(all_pairs(seqs, "ktuple"))
        killer = KillerEstimator(str(tmp_path / "tile-crash"))
        before = pool.stats()["respawns"]
        mm = all_pairs(
            seqs, killer, backend="pool", workers=4,
            out="memmap", store_dir=tmp_path / "store",
        )
        assert mm.condensed.tobytes() == expected
        assert os.path.exists(killer.sentinel)  # the crash really happened
        assert pool.stats()["respawns"] > before
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])

    def test_fatal_crash_leaves_resumable_store(
        self, pool, tmp_path, diverse_family
    ):
        seqs = list(diverse_family.sequences)[:16]
        expected = condensed_bytes(all_pairs(seqs, "ktuple"))
        root = tmp_path / "store"
        # A run that dies on its third tile publishes two, consolidates
        # nothing; then one of the two is torn as well.
        with pytest.raises(RuntimeError, match="crashed on tile 3"):
            all_pairs(
                seqs, CountingEstimator(fail_on_tile=3), out="memmap",
                store_dir=root, tile_pairs=8,
            )
        store = TileStore(root)
        assert not store.complete_path.exists()
        assert not store.condensed_path.exists()
        tiles = sorted(store.tiles_dir.glob("*.tile"))
        assert len(tiles) == 2
        tiles[1].write_bytes(tiles[1].read_bytes()[:12])  # torn write
        # The rerun (same estimator/tiling, this time on the pool)
        # recomputes only the torn and the missing tiles.
        before = registry().counter("tilestore.resumed_tiles").value
        mm = all_pairs(
            seqs, CountingEstimator(), backend="pool", workers=4,
            out="memmap", store_dir=root, tile_pairs=8,
        )
        assert mm.condensed.tobytes() == expected
        resumed = (
            registry().counter("tilestore.resumed_tiles").value - before
        )
        assert resumed == 1
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])

    def test_give_up_then_resume_completes(
        self, pool, tmp_path, diverse_family, monkeypatch
    ):
        seqs = list(diverse_family.sequences)[:16]
        expected = condensed_bytes(all_pairs(seqs, "ktuple"))
        root = tmp_path / "store"
        killer = KillerEstimator(str(tmp_path / "always-dead"))
        monkeypatch.setattr(backend_mod, "MAX_RETRIES", 0)
        backend = PoolBackend(pool=pool)
        with pytest.raises(RuntimeError, match="after 1 attempts"):
            all_pairs(
                seqs, killer, backend=backend, workers=4,
                out="memmap", store_dir=root, tile_pairs=8,
            )
        # Whatever tiles made it to disk before the crash are intact
        # (atomic publishes) -- the signature-matched rerun keeps them.
        rerun = all_pairs(
            seqs, killer, backend=backend, workers=4,
            out="memmap", store_dir=root, tile_pairs=8,
        )
        assert rerun.condensed.tobytes() == expected
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])
