"""External-memory distance storage: condensed vectors on disk.

The all-pairs stage used to materialize the full dense ``(n, n)``
float64 matrix in RAM, capping N at a few thousand.  This module turns
that hard RAM wall into a disk-bandwidth curve:

- :func:`condensed_index` / :func:`condensed_tile_indices` -- closed-form
  arithmetic over the condensed upper triangle, so neither the driver
  nor any worker ever materializes the full ``np.triu_indices`` arrays
  (two int64 vectors of ``n*(n-1)/2`` each -- 3.2 GB at N=20,000);
- :class:`CondensedMatrix` -- a matrix *view* over the 1-D condensed
  vector (in RAM or an ``np.memmap``): scalar/fancy ``[i, j]`` lookups,
  ``row(i)`` / ``rows(idx)`` / ``submatrix(idx)`` gathers, all with
  O(gather) working memory;
- :class:`TileStore` -- the crash-safe unit of the external-memory
  ``all_pairs``: per-tile files written atomically (temp + ``os.replace``
  in the style of :class:`repro.serve.store.ResultStore`), a header
  binding the store to ``(n, estimator content-hash, tiling)``,
  corruption-tolerant reads (a truncated or garbled tile is a miss, so
  the rerun recomputes exactly that tile), and a completion marker that
  short-circuits fully-computed stores.

Tile wire format (one file per tile, ``tiles/<start>.tile``)::

    bytes  0..7   magic  b"RPTILE01"
    bytes  8..15  start  (uint64 LE, condensed offset of the tile)
    bytes 16..23  count  (uint64 LE, number of pairs)
    bytes 24..27  crc32  (uint32 LE, of the payload)
    bytes 28..31  zero padding
    bytes 32..    payload: ``count`` little-endian float64 values

The crc catches same-length garbling that a size check alone would miss;
both failure modes degrade to recomputation, never to wrong values.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import registry
from repro.obs.tracing import span

__all__ = [
    "CondensedMatrix",
    "TileStore",
    "condensed_index",
    "condensed_row_indices",
    "condensed_size",
    "condensed_tile_indices",
]

_MAGIC = b"RPTILE01"
_HEADER_STRUCT = struct.Struct("<8sQQI4x")
_TILE_SUFFIX = ".tile"


def condensed_size(n: int) -> int:
    """Number of condensed upper-triangle pairs of an ``n x n`` matrix."""
    return n * (n - 1) // 2


def condensed_index(
    n: int, i: Union[int, np.ndarray], j: Union[int, np.ndarray]
) -> Union[int, np.ndarray]:
    """Condensed offset of pair ``(i, j)`` with ``i < j`` (vectorized).

    Matches the ordering of ``np.triu_indices(n, k=1)`` (row-major over
    the upper triangle), which is the order every tile scheduler in
    :mod:`repro.distance` walks.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    idx = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
    return idx if idx.ndim else int(idx)


def _row_starts(n: int, rows: np.ndarray) -> np.ndarray:
    """Condensed offset of pair ``(r, r+1)`` for each row ``r``."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows * (2 * n - rows - 1) // 2


def condensed_tile_indices(
    n: int, start: int, stop: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ii, jj)`` of condensed positions ``[start, stop)`` -- O(stop-start).

    Byte-identical to ``np.triu_indices(n, k=1)`` sliced at
    ``[start:stop]``, but never materializes the full index arrays, so
    workers at genome scale stay at O(tile) memory.
    """
    if not 0 <= start <= stop <= condensed_size(n):
        raise ValueError(
            f"tile [{start}, {stop}) out of range for n={n} "
            f"({condensed_size(n)} pairs)"
        )
    if start == stop:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    k = np.arange(start, stop, dtype=np.int64)
    # Invert start(i) = i*(2n - i - 1)/2 <= k via the quadratic formula,
    # then fix the float-precision boundary cases exactly in integers.
    ii = ((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8.0 * k)) // 2
    ii = ii.astype(np.int64)
    ii = np.clip(ii, 0, n - 2)
    # start(ii) must be <= k < start(ii + 1); nudge where floats rounded.
    ii -= _row_starts(n, ii) > k
    ii += _row_starts(n, ii + 1) <= k
    jj = k - _row_starts(n, ii) + ii + 1
    return ii, jj


def condensed_row_indices(n: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(idx, cols)``: condensed offsets of row ``r``'s off-diagonal
    entries and the matching column positions (length ``n - 1`` each).

    The below-diagonal part (``j < r``) is a strided gather, the
    above-diagonal part (``j > r``) is one contiguous slice -- which is
    what makes row reads over a memmap stream-friendly.
    """
    below = np.arange(r, dtype=np.int64)
    idx_below = _row_starts(n, below) + (r - below - 1)
    first_above = int(_row_starts(n, np.asarray(r))) if r < n - 1 else 0
    idx_above = np.arange(
        first_above, first_above + (n - r - 1), dtype=np.int64
    )
    cols = np.concatenate(
        (below, np.arange(r + 1, n, dtype=np.int64))
    )
    return np.concatenate((idx_below, idx_above)), cols


class CondensedMatrix:
    """A symmetric zero-diagonal distance matrix stored condensed.

    Wraps the 1-D condensed upper-triangle vector (an in-RAM array or an
    ``np.memmap`` over a :class:`TileStore`'s consolidated file) and
    serves matrix-shaped reads with O(gather) working memory: the guide
    -tree builders read rows and submatrices without ever densifying.

    Not an ``ndarray`` subclass on purpose -- accidental ``np.asarray``
    densification is exactly the failure mode this type exists to
    prevent, so conversion is the explicit :meth:`to_dense`.
    """

    def __init__(
        self,
        condensed: np.ndarray,
        n: Optional[int] = None,
    ) -> None:
        condensed = (
            condensed
            if isinstance(condensed, np.memmap)
            else np.asarray(condensed, dtype=np.float64)
        )
        if condensed.ndim != 1:
            raise ValueError("condensed vector must be 1-D")
        if n is None:
            # Invert m = n*(n-1)/2; reject non-triangular sizes.
            n = int((1 + np.sqrt(1 + 8 * condensed.size)) // 2)
        if condensed_size(n) != condensed.size:
            raise ValueError(
                f"condensed vector of size {condensed.size} does not match "
                f"n={n} ({condensed_size(n)} pairs expected)"
            )
        self._vec = condensed
        self.n = int(n)

    # -- shape protocol ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    @property
    def dtype(self) -> np.dtype:
        return self._vec.dtype

    @property
    def condensed(self) -> np.ndarray:
        """The underlying 1-D condensed vector (zero-copy)."""
        return self._vec

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "memmap" if isinstance(self._vec, np.memmap) else "array"
        return f"CondensedMatrix(n={self.n}, backing={kind})"

    # -- reads -------------------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        """``m[i, j]`` pair lookup (scalars or broadcastable arrays)."""
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError(
                "CondensedMatrix supports pair indexing m[i, j]; use "
                ".row(i) / .submatrix(idx) / .to_dense() for larger reads"
            )
        i, j = (np.asarray(k, dtype=np.int64) for k in key)
        scalar = i.ndim == 0 and j.ndim == 0
        i, j = np.broadcast_arrays(i, j)
        if i.size and (
            (i < 0).any() or (j < 0).any()
            or (i >= self.n).any() or (j >= self.n).any()
        ):
            raise IndexError(f"pair index out of range for n={self.n}")
        vals = np.zeros(i.shape, dtype=np.float64)
        off = i != j
        if off.any():
            vals[off] = self._vec[condensed_index(self.n, i[off], j[off])]
        return float(vals[()]) if scalar else vals

    def row(self, r: int) -> np.ndarray:
        """Dense row ``r`` (length ``n``, zero diagonal)."""
        if not 0 <= r < self.n:
            raise IndexError(f"row {r} out of range for n={self.n}")
        out = np.zeros(self.n, dtype=np.float64)
        idx, cols = condensed_row_indices(self.n, int(r))
        out[cols] = self._vec[idx]
        return out

    def rows(self, idx: Sequence[int]) -> np.ndarray:
        """Dense rows ``idx`` as a ``(len(idx), n)`` array."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty((idx.size, self.n), dtype=np.float64)
        for t, r in enumerate(idx):
            out[t] = self.row(int(r))
        return out

    def submatrix(self, idx: Sequence[int]) -> np.ndarray:
        """Dense ``(k, k)`` submatrix over rows/columns ``idx``."""
        idx = np.asarray(idx, dtype=np.int64)
        k = idx.size
        out = np.zeros((k, k), dtype=np.float64)
        if k < 2:
            return out
        a, b = np.triu_indices(k, k=1)
        vals = self._vec[condensed_index(self.n, idx[a], idx[b])]
        out[a, b] = vals
        out[b, a] = vals
        return out

    def to_dense(self) -> np.ndarray:
        """The full ``(n, n)`` symmetric matrix (O(n^2) RAM -- explicit)."""
        out = np.zeros((self.n, self.n), dtype=np.float64)
        # Tile the scatter so a memmap backing streams instead of
        # fancy-indexing the whole file at once.
        tile = 1 << 20
        for start in range(0, self._vec.size, tile):
            stop = min(start + tile, self._vec.size)
            ii, jj = condensed_tile_indices(self.n, start, stop)
            vals = np.asarray(self._vec[start:stop])
            out[ii, jj] = vals
            out[jj, ii] = vals
        return out

    # -- reductions (chunked: O(chunk) RAM even over a memmap) -------------

    def offdiag_stats(self, chunk: int = 1 << 22) -> Dict[str, float]:
        """``min/mean/max`` of the off-diagonal distances, streamed."""
        vec = self._vec
        lo, hi, total = np.inf, -np.inf, 0.0
        for start in range(0, vec.size, chunk):
            part = np.asarray(vec[start : start + chunk])
            lo = min(lo, float(part.min()))
            hi = max(hi, float(part.max()))
            total += float(part.sum())
        return {
            "min": lo,
            "mean": total / max(vec.size, 1),
            "max": hi,
        }


class TileStore:
    """Disk-backed store of condensed distance tiles.

    One store holds the tiles of one ``all_pairs`` run: the header binds
    it to ``(n, estimator signature, tile size)`` so a re-run with the
    same configuration resumes (present, valid tiles are skipped) while
    any configuration change wipes the stale tiles first.  Workers on
    any backend write tiles directly (atomic temp + ``os.replace``
    publishes, so a SIGKILLed worker can never leave a half-written
    tile behind) and return tile *ids* to the driver -- O(1) transport
    per tile instead of shipping payloads home.

    Layout::

        <root>/header.json     # {"n": ..., "signature": ..., ...}
        <root>/tiles/<start>.tile
        <root>/condensed.f64   # consolidated vector (after finalize)
        <root>/complete.json   # completion marker (atomic, last)
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.tiles_dir = self.root / "tiles"
        self.header_path = self.root / "header.json"
        self.condensed_path = self.root / "condensed.f64"
        self.complete_path = self.root / "complete.json"
        self._lock = threading.Lock()

    # -- header ------------------------------------------------------------

    def read_header(self) -> Optional[Dict[str, Any]]:
        """The current header, or None when absent/corrupt."""
        try:
            header = json.loads(self.header_path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        return header if isinstance(header, dict) else None

    def prepare(self, header: Dict[str, Any]) -> bool:
        """Bind the store to ``header``; returns True when resuming.

        A matching existing header keeps every present tile (resume);
        a mismatch (different n, estimator signature, or tiling) wipes
        tiles, consolidated vector and markers before re-binding.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        existing = self.read_header()
        resuming = existing == header
        if not resuming:
            self._wipe()
        self.tiles_dir.mkdir(parents=True, exist_ok=True)
        if not resuming:
            self._write_atomic(
                self.header_path,
                json.dumps(header, sort_keys=True).encode("utf-8"),
            )
        return resuming

    def _wipe(self) -> None:
        self.complete_path.unlink(missing_ok=True)
        self.condensed_path.unlink(missing_ok=True)
        self.header_path.unlink(missing_ok=True)
        if self.tiles_dir.is_dir():
            for path in self.tiles_dir.iterdir():
                if path.suffix in (_TILE_SUFFIX, ".tmp"):
                    path.unlink(missing_ok=True)

    # -- tile I/O ----------------------------------------------------------

    def _tile_path(self, start: int) -> Path:
        return self.tiles_dir / f"{start:016d}{_TILE_SUFFIX}"

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def write_tile(self, start: int, values: np.ndarray) -> None:
        """Atomically publish the tile at condensed offset ``start``."""
        values = np.ascontiguousarray(values, dtype="<f8")
        payload = values.tobytes()
        head = _HEADER_STRUCT.pack(
            _MAGIC, start, values.size, zlib.crc32(payload) & 0xFFFFFFFF
        )
        with span("distance.tile_write", start=int(start), pairs=values.size):
            self._write_atomic(self._tile_path(start), head + payload)
        registry().counter("tilestore.tiles_written").inc()
        registry().counter("tilestore.bytes").inc(len(payload))

    def read_tile(self, start: int, count: int) -> Optional[np.ndarray]:
        """The tile's values, or None when missing/corrupt.

        Corruption tolerance in the :class:`~repro.serve.store
        .ResultStore` style: wrong magic, wrong offset, wrong length or
        a crc mismatch deletes the file and reads as a miss -- the
        scheduler then recomputes exactly this tile.
        """
        path = self._tile_path(start)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        ok = len(blob) >= _HEADER_STRUCT.size
        if ok:
            magic, t_start, t_count, crc = _HEADER_STRUCT.unpack_from(blob)
            payload = blob[_HEADER_STRUCT.size :]
            ok = (
                magic == _MAGIC
                and t_start == start
                and t_count == count
                and len(payload) == count * 8
                and (zlib.crc32(payload) & 0xFFFFFFFF) == crc
            )
        if not ok:
            path.unlink(missing_ok=True)
            registry().counter("tilestore.corrupt_dropped").inc()
            return None
        return np.frombuffer(payload, dtype="<f8").astype(
            np.float64, copy=False
        )

    def missing_tiles(
        self, bounds: Iterable[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """The subset of ``bounds`` whose tiles are absent or corrupt.

        Each present tile is fully read and crc-checked here, so a tile
        that survives this filter is guaranteed readable at
        consolidation time; the valid ones are counted as resumed.
        """
        missing = []
        resumed = 0
        for start, stop in bounds:
            if self.read_tile(start, stop - start) is None:
                missing.append((start, stop))
            else:
                resumed += 1
        if resumed:
            registry().counter("tilestore.resumed_tiles").inc(resumed)
        return missing

    # -- consolidation -----------------------------------------------------

    def is_complete(self) -> bool:
        """Whether a prior run consolidated this store successfully."""
        header = self.read_header()
        if header is None or not self.complete_path.exists():
            return False
        try:
            n_pairs = int(header["n_pairs"])
            return self.condensed_path.stat().st_size == n_pairs * 8
        except (OSError, KeyError, TypeError, ValueError):
            return False

    def consolidate(
        self,
        bounds: Iterable[Tuple[int, int]],
        n_pairs: int,
    ) -> None:
        """Assemble ``condensed.f64`` from the tiles, mark it complete and
        delete the tiles.

        Sequential buffered writes (not a writable memmap) keep the
        driver's resident set at O(tile) -- dirty memmap pages would
        count against RSS until writeback.  A missing/corrupt tile here
        raises: the caller schedules tiles before consolidating, so this
        only fires when the disk mutates mid-run.
        """
        bounds = sorted(bounds)
        with span("distance.consolidate", n_pairs=n_pairs):
            tmp = self.root / f".condensed.{os.getpid()}.tmp"
            try:
                with open(tmp, "wb") as fh:
                    expect = 0
                    for start, stop in bounds:
                        if start != expect:
                            raise RuntimeError(
                                f"tile gap at condensed offset {expect}"
                            )
                        vals = self.read_tile(start, stop - start)
                        if vals is None:
                            raise RuntimeError(
                                f"tile at offset {start} vanished or went "
                                "corrupt before consolidation"
                            )
                        fh.write(vals.astype("<f8", copy=False).tobytes())
                        expect = stop
                    if expect != n_pairs:
                        raise RuntimeError(
                            f"tiles cover {expect} of {n_pairs} pairs"
                        )
                os.replace(tmp, self.condensed_path)
            finally:
                tmp.unlink(missing_ok=True)
            self._write_atomic(
                self.complete_path,
                json.dumps({"n_pairs": n_pairs}).encode("utf-8"),
            )
        for start, _ in bounds:
            self._tile_path(start).unlink(missing_ok=True)

    def matrix(self, n: int) -> CondensedMatrix:
        """The consolidated matrix as a read-only memmap view."""
        vec = np.memmap(self.condensed_path, dtype="<f8", mode="r")
        return CondensedMatrix(vec, n)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        tiles = (
            sorted(self.tiles_dir.glob(f"*{_TILE_SUFFIX}"))
            if self.tiles_dir.is_dir()
            else []
        )
        return {
            "root": str(self.root),
            "tiles": len(tiles),
            "tile_bytes": sum(p.stat().st_size for p in tiles),
            "complete": self.is_complete(),
            "condensed_bytes": (
                self.condensed_path.stat().st_size
                if self.condensed_path.exists()
                else 0
            ),
        }
