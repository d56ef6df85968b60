"""The tiled all-pairs scheduler: one distance stage, any backend.

``all_pairs(seqs, estimator)`` computes the full symmetric distance
matrix by tiling the condensed upper triangle (the ``n*(n-1)/2`` pairs)
into chunks and executing the chunks

- **serially** (``workers=1`` -- no scheduler overhead),
- **on an execution backend** (``backend="threads"|"pool"``,
  ``workers=N`` -- ``pool`` puts the per-pair
  DPs on worker processes, ``threads`` on rank threads that run the
  compiled ``full-dp`` tiles with their run token parked), or
- **cooperatively inside an existing SPMD program** (``comm=...`` --
  ranks split the tiles cyclically and allgather, which is how the
  stage-parallel CLUSTALW baseline runs its distance stage through this
  same subsystem).

Leaving both ``backend`` and ``workers`` unset (the default) chooses
between the first two (:func:`auto_workers`): ``threads`` over every
usable core when the tiles are compiled calls that drop the interpreter
lock (``full-dp`` under the ``c`` kernel) and the stage holds at least
:data:`AUTO_THREADS_MIN_CELLS` DP cells, serial otherwise -- and always
serial inside an SPMD rank, whose peers already use the cores.

The **output placement** is independent of the schedule (``out=``):

- ``"memory"`` -- the historical dense ``(n, n)`` ndarray;
- ``"condensed"`` -- a :class:`~repro.distance.tilestore.CondensedMatrix`
  over the in-RAM condensed vector (half the dense footprint; the tree
  builders consume it natively);
- ``"memmap"`` -- the external-memory path: workers write tiles into a
  :class:`~repro.distance.tilestore.TileStore` under ``store_dir`` and
  return tile *ids* instead of payloads (O(1) transport per tile), the
  driver consolidates them into a disk-backed condensed vector, and the
  result is a memmap-backed ``CondensedMatrix`` with O(tile) resident
  memory end to end.  Already-present valid tiles are skipped on re-run
  (crash/resume), and a fully consolidated store returns immediately.

Determinism contract: a pair's value depends only on the two sequences
and the estimator (see :class:`~repro.distance.estimators
.DistanceEstimator`), and every pair is computed and written exactly
once -- so serial, threads and pool schedules produce
**byte-identical** values for any tiling, and the ``memmap`` condensed
vector is byte-identical to the in-RAM one by construction.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Any, List, Optional, Sequence as TSequence, Tuple, Union

import numpy as np

from repro.distance.estimators import (
    DistanceEstimator,
    FullDpDistance,
    get_estimator,
)
from repro.distance.tilestore import (
    CondensedMatrix,
    TileStore,
    condensed_size,
    condensed_tile_indices,
)
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span
from repro.parcomp.backends import get_backend, in_spmd_rank, usable_cores
from repro.seq.sequence import Sequence

__all__ = [
    "AUTO_THREADS_MIN_CELLS",
    "DEFAULT_TILE_PAIRS",
    "OUT_MODES",
    "all_pairs",
    "auto_workers",
    "condensed_pair_indices",
    "dp_cells",
]

#: Default pairs per tile; small enough to balance, large enough to
#: amortise per-tile numpy dispatch.
DEFAULT_TILE_PAIRS = 4096

#: Valid ``out=`` placements of the result matrix.
OUT_MODES = ("memory", "condensed", "memmap")

#: DP cells of a whole ``full-dp`` stage, sum over pairs of
#: ``(len_i + 1) * (len_j + 1)``, from which the unset placement runs it
#: on ``threads`` ranks; below it, serial.  On a 2-vCPU host two ranks
#: broke even at 1.24 M cells (N = 20, L = 80: about 10 ms either way),
#: lost by a third at 0.78 M and won from 1.76 M (N = 24, L = 80) up:
#: under the threshold, thread start and the per-tile python of the
#: smaller tiles cost more than the second core saves.
AUTO_THREADS_MIN_CELLS = 1_500_000


def auto_workers(
    seqs: TSequence[Sequence], estimator: DistanceEstimator
) -> int:
    """Ranks the unset placement (``backend=None, workers=None``) runs
    the stage on: ``1`` is the serial path, more are ``threads`` ranks.

    More than one only when every condition holds: the tiles run in the
    compiled entry that drops the interpreter lock (``full-dp`` with
    ``kernel().identity_codes`` loaded), at least two cores are usable,
    the caller is not itself an SPMD rank, and the stage's
    :func:`dp_cells` -- known before any compute -- reach
    :data:`AUTO_THREADS_MIN_CELLS`.  Then it is ``min(usable cores,
    pairs)``.
    """
    from repro.align.dp import kernel

    if not isinstance(estimator, FullDpDistance):
        return 1
    if kernel().identity_codes is None or in_spmd_rank():
        return 1
    cores = usable_cores()
    if cores < 2 or dp_cells(seqs) < AUTO_THREADS_MIN_CELLS:
        return 1
    return min(cores, condensed_size(len(seqs)))


def dp_cells(seqs: TSequence[Sequence]) -> int:
    """DP cells of aligning every pair once: the sum over pairs of
    ``(len_i + 1) * (len_j + 1)``, from the lengths alone."""
    sides = np.array([len(s) + 1 for s in seqs], dtype=np.int64)
    total = int(sides.sum())
    return (total * total - int((sides * sides).sum())) // 2


def _count_schedule(schedule: str) -> None:
    """``distance.schedule.<schedule>``: stages run per schedule."""
    _obs_registry().counter(f"distance.schedule.{schedule}").inc()


def _validate_seqs(seqs: TSequence[Sequence]) -> List[Sequence]:
    seqs = list(seqs)
    if len(seqs) == 0:
        raise ValueError(
            "distance stage: no sequences (need at least 2 for pairwise "
            "distances)"
        )
    if len(seqs) == 1:
        raise ValueError(
            "distance stage: a single sequence has no pairwise distances "
            "(need at least 2)"
        )
    empty = [s.id for s in seqs if len(s) == 0]
    if empty:
        raise ValueError(
            f"distance stage: length-0 sequence(s) {empty[:5]!r} have no "
            "distances; drop them before aligning"
        )
    return seqs


def condensed_pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the condensed upper triangle (``k=1``)."""
    return np.triu_indices(n, k=1)


def _tile_bounds(
    n_pairs: int, tile_pairs: int, workers: int
) -> List[Tuple[int, int]]:
    """``[start, stop)`` tile bounds over the condensed pair index.

    With multiple workers the tile size shrinks so every rank gets
    several tiles (cyclic assignment then load-balances uneven per-pair
    costs); tiling never changes values, only scheduling.
    """
    tile = _effective_tile(n_pairs, tile_pairs, workers)
    return [(s, min(s + tile, n_pairs)) for s in range(0, n_pairs, tile)]


def _effective_tile(n_pairs: int, tile_pairs: int, workers: int) -> int:
    tile = max(1, int(tile_pairs))
    if workers > 1:
        tile = max(1, min(tile, -(-n_pairs // (4 * workers))))
    return tile


def _compute_tiles(
    seqs: List[Sequence],
    estimator: DistanceEstimator,
    bounds: TSequence[Tuple[int, int]],
    n: int,
    state: Any,
) -> List[Tuple[int, np.ndarray]]:
    """Compute tile values; per-tile indices are derived arithmetically
    so no caller ever materializes the full ``np.triu_indices`` arrays
    (3.2 GB of int64 at N=20,000)."""
    out = []
    for a, b in bounds:
        with span("distance.tile", start=a, pairs=b - a):
            ii, jj = condensed_tile_indices(n, a, b)
            out.append((a, estimator.pair_distances(seqs, ii, jj, state)))
    return out


def _write_tiles(
    seqs: List[Sequence],
    estimator: DistanceEstimator,
    bounds: TSequence[Tuple[int, int]],
    n: int,
    state: Any,
    store: TileStore,
) -> List[Tuple[int, int]]:
    """Compute tiles and publish them to ``store``; return their ids.

    The external-memory analogue of :func:`_compute_tiles`: payloads go
    to disk where they were computed, only ``(start, stop)`` ids travel
    back to the driver.
    """
    ids = []
    for a, b in bounds:
        with span("distance.tile", start=a, pairs=b - a):
            ii, jj = condensed_tile_indices(n, a, b)
            store.write_tile(a, estimator.pair_distances(seqs, ii, jj, state))
        ids.append((a, b))
    return ids


def _merge_dense(
    n: int, parts: TSequence[Tuple[int, np.ndarray]]
) -> np.ndarray:
    """Scatter per-tile values into the symmetric matrix (zero diagonal).

    Every pair is written exactly once, so the merge is deterministic
    regardless of which rank computed which tile.
    """
    d = np.zeros((n, n), dtype=np.float64)
    for start, vals in parts:
        ii, jj = condensed_tile_indices(n, start, start + len(vals))
        d[ii, jj] = vals
        d[jj, ii] = vals
    return d


def _merge_condensed(
    n: int, parts: TSequence[Tuple[int, np.ndarray]]
) -> CondensedMatrix:
    """Place per-tile values into the in-RAM condensed vector."""
    vec = np.zeros(condensed_size(n), dtype=np.float64)
    for start, vals in parts:
        vec[start : start + len(vals)] = vals
    return CondensedMatrix(vec, n)


def _merge_out(n: int, parts, out: str):
    if out == "condensed":
        return _merge_condensed(n, parts)
    return _merge_dense(n, parts)


def _all_pairs_rank(comm, seqs, estimator, tile_pairs):
    """Rank program of the backend-scheduled mode (module-level so the
    ``pool`` backend can pickle it)."""
    n = len(seqs)
    n_pairs = condensed_size(n)
    bounds = _tile_bounds(n_pairs, tile_pairs, comm.size)
    state = estimator.prepare(seqs)
    return _compute_tiles(
        seqs, estimator, bounds[comm.rank :: comm.size], n, state
    )


def _all_pairs_rank_store(comm, seqs, estimator, missing, store_dir):
    """Rank program of the backend-scheduled external-memory mode: write
    this rank's share of the missing tiles into the store, return ids."""
    state = estimator.prepare(seqs)
    store = TileStore(store_dir)
    return _write_tiles(
        seqs, estimator, missing[comm.rank :: comm.size],
        len(seqs), state, store,
    )


def _estimator_signature(estimator: DistanceEstimator) -> str:
    """A content hash binding a store to its estimator configuration.

    Estimators are small frozen dataclasses, so their pickle bytes are a
    stable function of their configuration (including substitution
    matrices); unpicklable plug-ins fall back to ``repr``.
    """
    try:
        blob = pickle.dumps(estimator, protocol=4)
    except Exception:
        blob = repr(estimator).encode("utf-8", "replace")
    return hashlib.sha256(blob).hexdigest()


def _store_header(
    n: int, est: DistanceEstimator, tile: int
) -> dict:
    return {
        "version": 1,
        "n": n,
        "n_pairs": condensed_size(n),
        "tile_pairs": tile,
        "estimator": getattr(est, "name", type(est).__name__),
        "signature": _estimator_signature(est),
    }


def all_pairs(
    seqs: TSequence[Sequence],
    estimator: Union[str, DistanceEstimator, None] = None,
    *,
    backend: Optional[Any] = None,
    workers: Optional[int] = None,
    comm: Optional[Any] = None,
    tile_pairs: int = DEFAULT_TILE_PAIRS,
    cost_model: Optional[Any] = None,
    out: str = "memory",
    store_dir: Optional[Union[str, os.PathLike]] = None,
    keep_store_tiles: bool = False,
    **estimator_kwargs: Any,
) -> Union[np.ndarray, CondensedMatrix]:
    """All-pairs distance matrix of ``seqs`` under ``estimator``.

    Parameters
    ----------
    seqs:
        At least two sequences, none of length 0 (clean ``ValueError``
        otherwise -- the old per-aligner paths crashed deep in numpy).
    estimator:
        Registry name (default ``"ktuple"``) or a
        :class:`~repro.distance.estimators.DistanceEstimator` instance;
        ``estimator_kwargs`` feed the registry factory.
    backend:
        A registered execution backend name (or instance) schedules the
        tiles SPMD over ``workers`` ranks.  ``None`` with ``workers``
        unset too lets :func:`auto_workers` choose serial or
        ``threads``; ``None`` with ``workers=1`` is serial in-process.
    workers:
        Rank count for the backend mode (default: usable core count,
        capped at the pair count).  ``workers=1`` (without a backend)
        forces the serial path; ``workers>1`` with ``backend=None`` uses
        the default backend.
    comm:
        Cooperative mode: an existing
        :class:`~repro.parcomp.comm.VirtualComm`.  All ranks must call
        with identical arguments; tiles split cyclically by rank, the
        merged matrix is allgathered and returned on every rank.
        Mutually exclusive with ``backend``/``workers``.
    tile_pairs:
        Pairs per tile (scheduling granularity; never affects values).
    cost_model:
        Alpha-beta model forwarded to the backend's timing ledger.
    out:
        Result placement: ``"memory"`` (dense ndarray, the default),
        ``"condensed"`` (in-RAM :class:`CondensedMatrix`, half the dense
        footprint) or ``"memmap"`` (disk-backed ``CondensedMatrix`` via
        a resumable :class:`TileStore`; O(tile) resident memory).
    store_dir:
        Directory of the tile store (``out="memmap"`` only; a fresh
        temporary directory when omitted).  Re-running with the same
        sequences/estimator/tiling resumes: valid tiles are skipped,
        and a consolidated store returns without computing anything.
    keep_store_tiles:
        Keep the per-tile files after consolidation (they are deleted
        by default to halve the store's disk footprint).

    Returns
    -------
    ``out="memory"``: ``(n, n)`` float64 symmetric matrix, zero
    diagonal.  Otherwise: a :class:`CondensedMatrix` over the condensed
    upper triangle.  Values are byte-identical across serial / threads /
    pool schedules and across every ``out`` placement.  The
    ``distance.all_pairs`` span names the schedule that ran
    (``schedule=serial|threads|pool|cooperative``, ``workers=``), and
    the ``distance.schedule.<schedule>`` counter counts it.
    """
    seqs = _validate_seqs(seqs)
    est = get_estimator(estimator, **estimator_kwargs)
    n = len(seqs)
    n_pairs = condensed_size(n)
    est_name = getattr(est, "name", type(est).__name__)
    if out not in OUT_MODES:
        raise ValueError(
            f"unknown out mode {out!r}; one of {list(OUT_MODES)}"
        )
    if store_dir is not None and out != "memmap":
        raise ValueError("store_dir= requires out='memmap'")

    if comm is not None:
        if backend is not None or workers not in (None, 1):
            raise ValueError(
                "cooperative mode (comm=...) excludes backend=/workers="
            )
        if comm.rank == 0:  # one count per stage, not per rank
            _count_schedule("cooperative")
        with span(
            "distance.all_pairs", n=n, estimator=est_name,
            schedule="cooperative", workers=comm.size, out=out,
        ):
            bounds = _tile_bounds(n_pairs, tile_pairs, comm.size)
            if out == "memmap":
                return _all_pairs_cooperative_store(
                    comm, seqs, est, bounds, n, tile_pairs, store_dir,
                    keep_store_tiles,
                )
            state = est.prepare(seqs)
            mine = _compute_tiles(
                seqs, est, bounds[comm.rank :: comm.size], n, state
            )
            parts = [part for rank_parts in comm.allgather(mine)
                     for part in rank_parts]
            return _merge_out(n, parts, out)

    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if backend is None and workers is None:
        workers = auto_workers(seqs, est)
        if workers > 1:
            backend = "threads"
    if backend is None and workers == 1:
        _count_schedule("serial")
        with span(
            "distance.all_pairs", n=n, estimator=est_name,
            schedule="serial", workers=1, out=out,
        ):
            bounds = _tile_bounds(n_pairs, tile_pairs, 1)
            if out == "memmap":
                store, missing, bounds = _open_store(
                    est, n, bounds,
                    _effective_tile(n_pairs, tile_pairs, 1), store_dir,
                )
                if missing is None:  # already consolidated
                    return store.matrix(n)
                if missing:
                    state = est.prepare(seqs)
                    _write_tiles(seqs, est, missing, n, state, store)
                store.consolidate(bounds, n_pairs, keep_store_tiles)
                return store.matrix(n)
            state = est.prepare(seqs)
            return _merge_out(
                n, _compute_tiles(seqs, est, bounds, n, state), out
            )

    from repro.obs.propagate import run_traced

    n_workers = workers if workers is not None else usable_cores()
    n_workers = max(1, min(n_workers, n_pairs))
    backend = get_backend(backend)
    _count_schedule(backend.name)
    with span(
        "distance.all_pairs", n=n, estimator=est_name,
        schedule=backend.name, workers=n_workers, out=out,
    ):
        bounds = _tile_bounds(n_pairs, tile_pairs, n_workers)
        if out == "memmap":
            store, missing, bounds = _open_store(
                est, n, bounds,
                _effective_tile(n_pairs, tile_pairs, n_workers), store_dir,
            )
            if missing is None:
                return store.matrix(n)
            if missing:
                run_traced(
                    backend,
                    min(n_workers, len(missing)),
                    _all_pairs_rank_store,
                    stage="distance",
                    args=(seqs, est, missing, str(store.root)),
                    cost_model=cost_model,
                )
            store.consolidate(bounds, n_pairs, keep_store_tiles)
            return store.matrix(n)
        spmd = run_traced(
            backend,
            n_workers,
            _all_pairs_rank,
            stage="distance",
            args=(seqs, est, tile_pairs),
            cost_model=cost_model,
        )
        parts = [part for rank_parts in spmd.results for part in rank_parts]
        return _merge_out(n, parts, out)


def _open_store(
    est: DistanceEstimator,
    n: int,
    bounds: List[Tuple[int, int]],
    tile: int,
    store_dir: Optional[Union[str, os.PathLike]],
) -> Tuple[TileStore, Optional[List[Tuple[int, int]]], List[Tuple[int, int]]]:
    """Bind (or create) the tile store for this run.

    Returns ``(store, missing, bounds)`` where ``missing`` is the list
    of tiles still to compute -- empty when all tiles are present but
    unconsolidated, ``None`` when the store is already consolidated for
    this exact configuration (the caller returns immediately).
    """
    if store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="repro-tilestore-")
    store = TileStore(store_dir)
    resuming = store.prepare(_store_header(n, est, tile))
    if resuming and store.is_complete():
        return store, None, bounds
    missing = store.missing_tiles(bounds) if resuming else list(bounds)
    return store, missing, bounds


def _all_pairs_cooperative_store(
    comm,
    seqs: List[Sequence],
    est: DistanceEstimator,
    bounds: List[Tuple[int, int]],
    n: int,
    tile_pairs: int,
    store_dir: Optional[Union[str, os.PathLike]],
    keep_store_tiles: bool,
) -> CondensedMatrix:
    """Cooperative (in-SPMD) external-memory mode.

    Rank 0 owns store setup and consolidation; the plan (store root,
    completion, missing tiles) is shared through an allgather so every
    rank computes a disjoint share, and two more allgathers act as the
    barriers around consolidation.  Every rank returns a view over the
    same consolidated file.
    """
    n_pairs = condensed_size(n)
    tile = _effective_tile(n_pairs, tile_pairs, comm.size)
    if comm.rank == 0:
        root = (
            tempfile.mkdtemp(prefix="repro-tilestore-")
            if store_dir is None
            else store_dir
        )
        store = TileStore(root)
        resuming = store.prepare(_store_header(n, est, tile))
        complete = resuming and store.is_complete()
        missing = (
            []
            if complete
            else store.missing_tiles(bounds) if resuming else list(bounds)
        )
        plan = (str(store.root), complete, missing)
    else:
        plan = None
    root, complete, missing = comm.allgather(plan)[0]
    store = TileStore(root)
    if not complete:
        if missing:
            state = est.prepare(seqs)
            _write_tiles(
                seqs, est, missing[comm.rank :: comm.size], n, state, store
            )
        comm.allgather(None)  # barrier: every rank's tiles are published
        if comm.rank == 0:
            store.consolidate(bounds, n_pairs, keep_store_tiles)
        comm.allgather(None)  # barrier: consolidation is visible
    return store.matrix(n)
