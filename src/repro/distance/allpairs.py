"""The tiled all-pairs scheduler: one distance stage, any backend.

``all_pairs(seqs, estimator)`` computes the full symmetric distance
matrix by tiling the condensed upper triangle (the ``n*(n-1)/2`` pairs).
Every schedule runs the same three steps: a **plan** (the tiles left to
compute -- all of them in RAM, those the tile store lacks with one),
**one rank program** (rank ``r`` of ``s`` computes tiles ``r, r + s,
...``; cyclic shares balance uneven per-pair costs) and a **finish**
(scatter the parts into the result, or consolidate the store and map
it).  The schedules differ only in who runs the rank program:

- **serial** (``workers=1``) -- the caller, as rank 0 of 1;
- **an execution backend** (``backend="threads"|"pool"``,
  ``workers=N``) -- ``pool`` puts the ranks on worker processes,
  ``threads`` on rank threads that run the compiled ``full-dp`` tiles
  with their run token parked;
- **cooperative** (``comm=...``) -- the ranks of an existing SPMD
  program, which allgather the parts; this is how the stage-parallel
  CLUSTALW baseline runs its distance stage.

Leaving both ``backend`` and ``workers`` unset (the default) chooses
between the first two (:func:`auto_workers`): ``threads`` over every
usable core when the tiles are compiled calls that drop the interpreter
lock (``full-dp`` under the ``c`` kernel) and the stage holds at least
:data:`AUTO_THREADS_MIN_CELLS` DP cells, serial otherwise -- and always
serial inside an SPMD rank, whose peers already use the cores.

The **output placement** is independent of the schedule (``out=``):
``"memory"`` is the historical dense ``(n, n)`` ndarray; ``"condensed"``
a :class:`~repro.distance.tilestore.CondensedMatrix` over the in-RAM
condensed vector (half the dense footprint; the tree builders consume it
natively); ``"memmap"`` the external-memory path -- each rank writes its
tiles into a :class:`~repro.distance.tilestore.TileStore` under
``store_dir`` and returns tile *ids* (O(1) transport per tile), the
store is consolidated into a disk-backed condensed vector, and the
result is a memmap-backed ``CondensedMatrix`` with O(tile) resident
memory end to end.  Valid tiles already present are skipped on re-run
(crash/resume), a consolidated store returns at once, and a temporary
store (no ``store_dir``) is removed once every rank has mapped it.

Determinism contract: a pair's value depends only on the two sequences
and the estimator (see :class:`~repro.distance.estimators
.DistanceEstimator`), and every pair is computed and written exactly
once -- so every schedule produces **byte-identical** values for any
tiling, and the ``memmap`` condensed vector is byte-identical to the
in-RAM one by construction.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from types import SimpleNamespace
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

Bounds = List[Tuple[int, int]]

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


def _effective_tile(n_pairs: int, tile_pairs: int, workers: int) -> int:
    """Pairs per tile.  With several ranks the tile shrinks so every
    rank gets several tiles; tiling never changes values."""
    tile = max(1, int(tile_pairs))
    if workers > 1:
        tile = max(1, min(tile, -(-n_pairs // (4 * workers))))
    return tile


#: Rank 0 of 1: the serial schedule's stand-in for a communicator.
_SOLO = SimpleNamespace(rank=0, size=1)


def _plan(
    est: DistanceEstimator,
    n: int,
    tile: int,
    out: str,
    store_dir: Optional[Union[str, os.PathLike]],
) -> Tuple[Bounds, Optional[Bounds], Optional[str]]:
    """``(bounds, todo, root)``: every tile, the tiles left to compute
    and the tile store's root (``None`` in RAM).

    In RAM ``todo`` is every tile.  With a store (``out="memmap"``; a
    fresh temporary directory without ``store_dir``) the header binds it
    to ``(n, estimator content-hash, tile size)``: a matching store
    resumes, so ``todo`` is the tiles it lacks or holds torn, or
    ``None`` once it is consolidated; any other store is wiped first.
    """
    n_pairs = condensed_size(n)
    bounds = [(s, min(s + tile, n_pairs)) for s in range(0, n_pairs, tile)]
    if out != "memmap":
        return bounds, bounds, None
    if store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="repro-tilestore-")
    store = TileStore(store_dir)
    root = str(store.root)
    header = dict(
        version=1, n=n, n_pairs=n_pairs, tile_pairs=tile,
        estimator=getattr(est, "name", type(est).__name__),
        signature=_estimator_signature(est),
    )
    if not store.prepare(header):
        return bounds, bounds, root
    if store.is_complete():
        return bounds, None, root
    return bounds, store.missing_tiles(bounds), root


def _rank_tiles(comm, seqs, est, tiles, store_root):
    """The rank program of every schedule (module-level so the ``pool``
    backend can pickle it): compute ``tiles[comm.rank::comm.size]``.

    Returns ``(start, values)`` per tile; with a store, each tile is
    written where it was computed and only ``(start, stop)`` travels
    back.  Per-tile indices are derived arithmetically, so nobody
    materializes the full ``np.triu_indices`` arrays (3.2 GB of int64 at
    N=20,000).
    """
    mine = tiles[comm.rank :: comm.size]
    if not mine:
        return []
    n = len(seqs)
    state = est.prepare(seqs)
    store = None if store_root is None else TileStore(store_root)
    parts = []
    for a, b in mine:
        with span("distance.tile", start=a, pairs=b - a):
            ii, jj = condensed_tile_indices(n, a, b)
            values = est.pair_distances(seqs, ii, jj, state)
            if store is None:
                parts.append((a, values))
            else:
                store.write_tile(a, values)
                parts.append((a, b))
    return parts


def _finish(n, out, bounds, todo, parts, root, comm):
    """The result: the parts scattered into the dense or condensed
    matrix, or the store consolidated (by rank 0 under ``comm``) and
    mapped read-only on every rank.

    Every pair is written exactly once, so the result does not depend
    on which rank computed which tile.
    """
    if root is None:
        if out == "condensed":
            vec = np.zeros(condensed_size(n), dtype=np.float64)
            for start, vals in parts:
                vec[start : start + len(vals)] = vals
            return CondensedMatrix(vec, n)
        d = np.zeros((n, n), dtype=np.float64)
        for start, vals in parts:
            ii, jj = condensed_tile_indices(n, start, start + len(vals))
            d[ii, jj] = vals
            d[jj, ii] = vals
        return d
    store = TileStore(root)
    if todo is not None:
        if comm is None or comm.rank == 0:
            store.consolidate(bounds, condensed_size(n))
        if comm is not None:
            comm.allgather(None)  # barrier: consolidation is visible
    return store.matrix(n)


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


def all_pairs(
    seqs: TSequence[Sequence],
    estimator: Union[str, DistanceEstimator, None] = None,
    *,
    backend: Optional[Any] = None,
    workers: Optional[int] = None,
    comm: Optional[Any] = None,
    tile_pairs: int = DEFAULT_TILE_PAIRS,
    out: str = "memory",
    store_dir: Optional[Union[str, os.PathLike]] = None,
    **estimator_kwargs: Any,
) -> Union[np.ndarray, CondensedMatrix]:
    """All-pairs distance matrix of ``seqs`` under ``estimator``.

    Parameters
    ----------
    seqs:
        At least two sequences, none of length 0 (clean ``ValueError``
        otherwise -- the old per-aligner paths crashed deep in numpy).
    estimator:
        Estimator name (default ``"ktuple"``) or a
        :class:`~repro.distance.estimators.DistanceEstimator` instance;
        ``estimator_kwargs`` feed the named estimator's constructor.
    backend:
        An execution backend name (or instance) runs the tiles SPMD over
        ``workers`` ranks.  ``None`` with ``workers`` unset too lets
        :func:`auto_workers` choose serial or ``threads``; ``None`` with
        ``workers=1`` is serial in-process.
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
    out:
        Result placement: ``"memory"`` (dense ndarray, the default),
        ``"condensed"`` (in-RAM :class:`CondensedMatrix`, half the dense
        footprint) or ``"memmap"`` (disk-backed ``CondensedMatrix`` via
        a resumable :class:`TileStore`; O(tile) resident memory).
    store_dir:
        Directory of the tile store (``out="memmap"`` only).  Re-running
        with the same sequences/estimator/tiling resumes: valid tiles
        are skipped, and a consolidated store returns without computing
        anything.  Without it the store is a temporary directory,
        removed once every rank has mapped the result (the mapping
        stays readable).

    Returns
    -------
    ``out="memory"``: ``(n, n)`` float64 symmetric matrix, zero
    diagonal.  Otherwise: a :class:`CondensedMatrix` over the condensed
    upper triangle.  Values are byte-identical across serial / threads /
    pool / cooperative schedules and across every ``out`` placement.
    The ``distance.all_pairs`` span names the schedule that ran
    (``schedule=serial|threads|pool|cooperative``, ``workers=``), and
    the ``distance.schedule.<schedule>`` counter counts it (once per
    stage under ``comm``).
    """
    seqs = _validate_seqs(seqs)
    est = get_estimator(estimator, **estimator_kwargs)
    n = len(seqs)
    n_pairs = condensed_size(n)
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
        schedule, size = "cooperative", comm.size
    else:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if backend is None and workers is None:
            workers = auto_workers(seqs, est)
            if workers > 1:
                backend = "threads"
        if backend is None and workers == 1:
            schedule, size = "serial", 1
        else:
            backend = get_backend(backend)
            schedule = backend.name
            size = workers if workers is not None else usable_cores()
            size = max(1, min(size, n_pairs))
    lead = comm is None or comm.rank == 0
    if lead:  # one count per stage, not per rank
        _obs_registry().counter(f"distance.schedule.{schedule}").inc()
    with span(
        "distance.all_pairs", n=n,
        estimator=getattr(est, "name", type(est).__name__),
        schedule=schedule, workers=size, out=out,
    ):
        tile = _effective_tile(n_pairs, tile_pairs, size)
        if comm is not None and out == "memmap":
            # The plan touches the store: rank 0 makes it, all adopt it.
            plan = _plan(est, n, tile, out, store_dir) if lead else None
            plan = comm.allgather(plan)[0]
        else:
            plan = _plan(est, n, tile, out, store_dir)
        bounds, todo, root = plan
        temp = root is not None and store_dir is None
        try:
            if not todo:
                parts = []
            elif comm is not None:
                mine = _rank_tiles(comm, seqs, est, todo, root)
                parts = [p for ps in comm.allgather(mine) for p in ps]
            elif backend is None:
                parts = _rank_tiles(_SOLO, seqs, est, todo, root)
            else:
                from repro.obs.propagate import run_traced

                spmd = run_traced(
                    backend, min(size, len(todo)), _rank_tiles,
                    stage="distance", args=(seqs, est, todo, root),
                )
                parts = [p for ps in spmd.results for p in ps]
            result = _finish(n, out, bounds, todo, parts, root, comm)
            if temp and comm is not None:
                comm.allgather(None)  # barrier: every rank has mapped it
        finally:
            # Nobody can resume a temporary store; on POSIX the mapping
            # stays valid after its file is removed.
            if temp and lead:
                shutil.rmtree(root, ignore_errors=True)
        return result
