"""The external-memory tile store: index math, views, crash tolerance."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import all_pairs
from repro.distance.estimators import DistanceEstimator, get_estimator
from repro.distance.tilestore import (
    CondensedMatrix,
    TileStore,
    condensed_index,
    condensed_row_indices,
    condensed_size,
    condensed_tile_indices,
)
from repro.obs.metrics import registry
from repro.parcomp import run_spmd
from repro.seq.sequence import Sequence


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


def random_condensed(n, seed=0):
    rng = np.random.default_rng(seed)
    vec = rng.uniform(0.01, 1.0, size=condensed_size(n))
    dense = np.zeros((n, n))
    ii, jj = np.triu_indices(n, k=1)
    dense[ii, jj] = vec
    dense[jj, ii] = vec
    return vec, dense


class TileCrash(RuntimeError):
    """The failure a :class:`CountingEstimator` raises on purpose."""


class CountingEstimator(DistanceEstimator):
    """ktuple distances that count how many pairs were computed.

    ``fail_on_tile=k`` raises :class:`TileCrash` on the k-th tile
    (1-based): the run dies midway, as a killed one does, and leaves the
    tiles it finished in the store.
    """

    name = "counting-test"

    def __init__(self, fail_on_tile=None):
        self.inner = get_estimator("ktuple")
        self.pairs_computed = 0
        self.tiles_seen = 0
        self.fail_on_tile = fail_on_tile

    def prepare(self, seqs):
        return self.inner.prepare(seqs)

    def pair_distances(self, seqs, ii, jj, state):
        self.tiles_seen += 1
        if self.tiles_seen == self.fail_on_tile:
            raise TileCrash(f"crashed on tile {self.tiles_seen}")
        self.pairs_computed += len(ii)
        return self.inner.pair_distances(seqs, ii, jj, state)

    # The counters and the planned crash are test-local scaffolding;
    # keep them out of the pickle bytes so the store's estimator
    # signature is the same for the crashing run and its resume.
    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self.__init__()


#: Where each schedule of the resume tests runs: serial, two ``threads``
#: ranks, three cooperative SPMD ranks.
SCHEDULES = ("serial", "threads", "cooperative")


def run_schedule(schedule, seqs, est, **kwargs):
    """``all_pairs`` on ``schedule``; rank 0's result when cooperative."""
    if schedule == "cooperative":
        spmd = run_spmd(
            3, lambda comm: all_pairs(seqs, est, comm=comm, **kwargs)
        )
        return spmd.results[0]
    if schedule == "threads":
        return all_pairs(seqs, est, backend="threads", workers=2, **kwargs)
    return all_pairs(seqs, est, workers=1, **kwargs)


class TestIndexMath:
    @given(n=st.integers(2, 60))
    @settings(max_examples=30, deadline=None)
    def test_condensed_index_matches_triu_order(self, n):
        ii, jj = np.triu_indices(n, k=1)
        idx = condensed_index(n, ii, jj)
        assert np.array_equal(idx, np.arange(condensed_size(n)))
        # Symmetric in (i, j).
        assert np.array_equal(condensed_index(n, jj, ii), idx)

    @given(
        n=st.integers(2, 50),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_tile_indices_match_sliced_triu(self, n, data):
        m = condensed_size(n)
        start = data.draw(st.integers(0, m))
        stop = data.draw(st.integers(start, m))
        ii, jj = np.triu_indices(n, k=1)
        ti, tj = condensed_tile_indices(n, start, stop)
        assert np.array_equal(ti, ii[start:stop])
        assert np.array_equal(tj, jj[start:stop])

    def test_tile_indices_out_of_range(self):
        with pytest.raises(ValueError):
            condensed_tile_indices(4, 0, condensed_size(4) + 1)
        with pytest.raises(ValueError):
            condensed_tile_indices(4, -1, 2)

    @given(n=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_row_indices_cover_every_offdiagonal(self, n):
        vec = np.arange(condensed_size(n), dtype=np.float64)
        dense = np.zeros((n, n))
        ii, jj = np.triu_indices(n, k=1)
        dense[ii, jj] = vec
        dense[jj, ii] = vec
        for r in range(n):
            idx, cols = condensed_row_indices(n, r)
            assert len(idx) == n - 1 and len(cols) == n - 1
            assert r not in cols
            row = np.zeros(n)
            row[cols] = vec[idx]
            assert np.array_equal(row, dense[r])


class TestCondensedMatrix:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="1-D"):
            CondensedMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="does not match"):
            CondensedMatrix(np.zeros(4))  # no n with n*(n-1)/2 == 4
        with pytest.raises(ValueError, match="does not match"):
            CondensedMatrix(np.zeros(3), n=4)

    def test_shape_protocol(self):
        m = CondensedMatrix(np.zeros(condensed_size(5)))
        assert m.shape == (5, 5) and len(m) == 5
        assert m.dtype == np.float64

    def test_pair_lookup_matches_dense(self):
        vec, dense = random_condensed(7)
        m = CondensedMatrix(vec)
        for i in range(7):
            for j in range(7):
                assert m[i, j] == dense[i, j]
        # Array indexing broadcasts.
        ii = np.array([0, 3, 6, 2])
        jj = np.array([5, 3, 0, 2])
        assert np.array_equal(m[ii, jj], dense[ii, jj])

    def test_single_index_rejected(self):
        m = CondensedMatrix(np.zeros(condensed_size(4)))
        with pytest.raises(TypeError, match="pair indexing"):
            m[1]
        with pytest.raises(IndexError):
            m[0, 4]

    def test_row_rows_submatrix_to_dense(self):
        vec, dense = random_condensed(9, seed=3)
        m = CondensedMatrix(vec)
        for r in range(9):
            assert np.array_equal(m.row(r), dense[r])
        sel = [7, 0, 4]
        assert np.array_equal(m.rows(sel), dense[sel])
        assert np.array_equal(m.submatrix(sel), dense[np.ix_(sel, sel)])
        assert np.array_equal(m.to_dense(), dense)

    def test_offdiag_stats_streams(self):
        vec, dense = random_condensed(12, seed=1)
        m = CondensedMatrix(vec)
        stats = m.offdiag_stats(chunk=7)  # force multiple chunks
        assert stats["min"] == vec.min()
        assert stats["max"] == vec.max()
        assert stats["mean"] == pytest.approx(vec.mean())


class TestTileStore:
    def test_write_read_roundtrip(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "v": 1})
        vals = np.array([0.5, 0.25, 1.0])
        store.write_tile(0, vals)
        assert np.array_equal(store.read_tile(0, 3), vals)

    def test_missing_tile_is_none(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        assert store.read_tile(0, 3) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b[: len(b) // 2],  # truncated
            lambda b: b[:-8] + b"\x00" * 8,  # garbled payload, same length
            lambda b: b"XXXXXXXX" + b[8:],  # wrong magic
            lambda b: b"",  # empty file
        ],
    )
    def test_corrupt_tile_reads_as_miss_and_is_dropped(
        self, tmp_path, corrupt
    ):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        store.write_tile(0, np.array([0.5, 0.25, 1.0]))
        path = store._tile_path(0)
        path.write_bytes(corrupt(path.read_bytes()))
        before = registry().counter("tilestore.corrupt_dropped").value
        assert store.read_tile(0, 3) is None
        assert not path.exists()  # dropped, so the rerun recomputes it
        after = registry().counter("tilestore.corrupt_dropped").value
        assert after == before + 1

    def test_wrong_offset_or_count_is_a_miss(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        store.write_tile(8, np.array([0.5]))
        # Right bytes, wrong expected count.
        assert store.read_tile(8, 2) is None

    def test_prepare_resumes_on_matching_header(self, tmp_path):
        store = TileStore(tmp_path / "s")
        header = {"n": 4, "signature": "abc"}
        assert store.prepare(header) is False
        store.write_tile(0, np.array([0.5, 0.25, 1.0]))
        assert store.prepare(header) is True
        assert store.read_tile(0, 3) is not None  # tiles survived

    def test_prepare_wipes_on_header_mismatch(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "signature": "abc"})
        store.write_tile(0, np.array([0.5, 0.25, 1.0]))
        assert store.prepare({"n": 4, "signature": "DIFFERENT"}) is False
        assert store.read_tile(0, 3) is None  # stale tiles gone

    def test_missing_tiles_counts_resumed(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        bounds = [(0, 2), (2, 4), (4, 6)]
        store.write_tile(2, np.array([0.1, 0.2]))
        before = registry().counter("tilestore.resumed_tiles").value
        assert store.missing_tiles(bounds) == [(0, 2), (4, 6)]
        after = registry().counter("tilestore.resumed_tiles").value
        assert after == before + 1

    def test_consolidate_and_matrix(self, tmp_path):
        n = 5
        vec, dense = random_condensed(n)
        store = TileStore(tmp_path / "s")
        store.prepare({"n": n, "n_pairs": vec.size})
        bounds = [(0, 4), (4, 7), (7, 10)]
        for a, b in bounds:
            store.write_tile(a, vec[a:b])
        store.consolidate(bounds, vec.size)
        assert store.is_complete()
        m = store.matrix(n)
        assert isinstance(m.condensed, np.memmap)
        assert m.condensed.tobytes() == vec.tobytes()
        assert np.array_equal(m.to_dense(), dense)
        # Consolidation deletes the tiles.
        assert store.stats()["tiles"] == 0

    def test_consolidate_gap_raises(self, tmp_path):
        vec, _ = random_condensed(5)
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 5, "n_pairs": vec.size})
        store.write_tile(0, vec[:4])
        with pytest.raises(RuntimeError, match="vanished|gap"):
            store.consolidate([(0, 4), (4, 10)], vec.size)

    def test_incomplete_without_marker(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "n_pairs": 6})
        assert not store.is_complete()


class TestAllPairsMemmap:
    @pytest.fixture(scope="class")
    def family(self):
        from repro.datagen.rose import generate_family

        fam = generate_family(
            n_sequences=9, mean_length=50, relatedness=300, seed=13,
            track_alignment=False,
        )
        return list(fam.sequences)

    def test_memmap_bytes_identical_to_memory(self, family, tmp_path):
        dense = all_pairs(family, "ktuple")
        m = all_pairs(
            family, "ktuple", out="memmap", store_dir=tmp_path / "s"
        )
        n = len(family)
        ii, jj = np.triu_indices(n, k=1)
        assert m.condensed.tobytes() == dense[ii, jj].tobytes()
        assert np.array_equal(m.to_dense(), dense)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_consolidated_store_short_circuits(
        self, family, tmp_path, schedule
    ):
        est = CountingEstimator()
        first = run_schedule(
            schedule, family, est, out="memmap", store_dir=tmp_path / "s"
        )
        assert est.pairs_computed == condensed_size(len(family))
        again = run_schedule(
            schedule, family, est, out="memmap", store_dir=tmp_path / "s"
        )
        assert est.pairs_computed == condensed_size(len(family))  # no work
        assert again.condensed.tobytes() == first.condensed.tobytes()

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_resume_recomputes_only_damaged_tiles(
        self, family, tmp_path, schedule
    ):
        root = tmp_path / "s"
        expected = all_pairs(family, "ktuple", out="condensed")
        # 36 pairs in tiles of 3 on every schedule (the store header
        # binds the tile size); the run dies on its fifth tile.
        with pytest.raises(RuntimeError, match="crashed on tile 5"):
            run_schedule(
                schedule, family, CountingEstimator(fail_on_tile=5),
                out="memmap", store_dir=root, tile_pairs=3,
            )
        store = TileStore(root)
        assert not store.complete_path.exists()
        assert not store.condensed_path.exists()
        tiles = sorted(store.tiles_dir.glob("*.tile"))
        assert len(tiles) >= 2  # the tiles finished before the crash
        tiles[0].write_bytes(tiles[0].read_bytes()[:10])  # torn
        # A tile file is a 32-byte header and 8 bytes a pair.
        kept = sum((t.stat().st_size - 32) // 8 for t in tiles[1:])
        est = CountingEstimator()
        before = registry().counter("tilestore.resumed_tiles").value
        resumed = run_schedule(
            schedule, family, est, out="memmap", store_dir=root,
            tile_pairs=3,
        )
        assert resumed.condensed.tobytes() == expected.condensed.tobytes()
        # Exactly the torn tile and the ones never written were computed.
        assert est.pairs_computed == condensed_size(len(family)) - kept
        resumed_tiles = (
            registry().counter("tilestore.resumed_tiles").value - before
        )
        assert resumed_tiles == len(tiles) - 1

    def test_store_dir_requires_memmap(self, family, tmp_path):
        with pytest.raises(ValueError, match="memmap"):
            all_pairs(family, "ktuple", store_dir=tmp_path / "s")

    def test_unknown_out_mode(self, family):
        with pytest.raises(ValueError, match="out mode"):
            all_pairs(family, "ktuple", out="ram")

    def test_header_binds_configuration(self, family, tmp_path):
        root = tmp_path / "s"
        all_pairs(family, "ktuple", out="memmap", store_dir=root, k=3)
        header = json.loads((root / "header.json").read_text())
        assert header["n"] == len(family)
        assert header["estimator"] == "ktuple"
        # A different estimator configuration must not resume this store.
        sig = header["signature"]
        all_pairs(family, "ktuple", out="memmap", store_dir=root, k=4)
        header2 = json.loads((root / "header.json").read_text())
        assert header2["signature"] != sig


class TestTemporaryStore:
    """``out="memmap"`` without ``store_dir``: nobody can resume the
    store, so it is removed once the result is mapped, and the mapping
    stays readable."""

    @pytest.fixture(scope="class")
    def family(self):
        return seqs_from(["MKVLAAGIKT", "MKVLSAGIKR", "MRVLAAGVKT",
                          "MKILAAGLKT", "MKVLAQGIKS"])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_store_removed_matrix_readable(
        self, family, tmp_path, monkeypatch, schedule
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        expected = all_pairs(family, "ktuple", out="condensed")
        mm = run_schedule(schedule, family, "ktuple", out="memmap")
        assert list(tmp_path.glob("repro-tilestore-*")) == []
        assert isinstance(mm.condensed, np.memmap)
        assert mm.condensed.tobytes() == expected.condensed.tobytes()

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_failed_run_removes_store(
        self, family, tmp_path, monkeypatch, schedule
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(RuntimeError, match="crashed on tile 2"):
            run_schedule(
                schedule, family, CountingEstimator(fail_on_tile=2),
                out="memmap", tile_pairs=1,
            )
        assert list(tmp_path.glob("repro-tilestore-*")) == []
