"""Batched affine-gap (Gotoh) DP kernels: K pair problems, one row loop.

Where this runs.  The **align mode** (:func:`affine_align_batch`,
:func:`gathered_align_batch`: decision planes + bit traceback) runs on
**compiler-less hosts only**.  In a process whose DP kernel is ``c``
(:func:`repro.align.dp.kernel`) both of its callers go pair by pair
through one compiled call each -- profile merges
(``align_profiles_batch``) and the ``full-dp`` distance stage
(``global_align_batch`` -> :func:`repro.align.dp.align_code_pairs`) --
because fusing exists to share numpy's per-row dispatch cost and a
compiled call has none to share (``benchmarks/bench_merge_batch.py``
and ``bench_distance_scaling.py`` re-measure both).  The **score mode**
(:func:`affine_score_batch`, :func:`gathered_score_batch`) has no
compiled counterpart and runs everywhere.  Whether the align mode
should go on existing for the hosts that cannot build is an open
question (ROADMAP), not decided here.

The numpy kernel in :mod:`repro.align.dp` is already exactly
row-vectorised, so its remaining cost is numpy *dispatch*: ~10 array ops
per DP row on short (length ~100-200) vectors, issued once per row per
pair.  The all-pairs distance stage runs N*(N-1)/2 such pairs, which
makes dispatch -- not arithmetic -- the dominant term of a full-DP
report on that kernel.

This module runs the *same exact prefix-scan recurrence* over a
length-padded stack of K problems at once: every elementwise op works on
a ``(n_max + 1, K)`` row block, so the per-row dispatch cost is paid
once per batch instead of once per pair.  MUSCLE-style pipelines use the
same trick to keep their pairwise stage dense.

The stack is **pair-minor** (K is the fastest axis): that turns the
horizontal-gap prefix scan into a log-step shifted-maximum over
*contiguous row blocks* -- ``np.maximum`` is an exact selection, so any
scan order yields bit-identical running maxima, and the log-step form
runs ~2x faster than ``np.maximum.accumulate``'s scalar inner loop.

Exactness and padding
---------------------
Each pair ``k`` occupies the leading ``(m_k + 1, n_k + 1)`` region of the
padded tables.  Correctness of the padding relies on two facts:

- columns are independent in the vertical-gap recurrence, and the
  horizontal-gap prefix scan only flows *left to right* -- so garbage in
  padded columns ``j > n_k`` can never reach a valid column;
- rows only read the previous row, and each pair's final row is captured
  at ``i == m_k`` -- so garbage rows ``i > m_k`` are never read.

Every elementwise op matches the scalar kernel's op-for-op (same IEEE
operations on the same values), which makes batched scores and
alignments **byte-identical** to per-pair :func:`~repro.align.dp
.affine_align` / :func:`~repro.align.dp.affine_score` -- the property
suite asserts exact equality, not closeness.  For alignments the
forward pass additionally evaluates the scalar traceback's comparisons
row-vectorised into four bool decision planes (four bytes per cell
instead of three float64 tables); the per-pair traceback then walks
those bits with the same state machine and the same tie-break order
(diagonal > vertical > horizontal), so paths are identical by
construction.

Two score sources, one loop
--------------------------
The row loop reads substitution scores through one seam,
``_PaddedBatch.score_row``, and two sources sit behind it:

- **dense** (:func:`affine_align_batch` / :func:`affine_score_batch`):
  the caller hands one score matrix per pair and they are stacked into a
  pair-minor ``(m_max, n_max, K)`` float tensor.  This is for scores
  that are not table look-ups -- profile-profile PSP matrices;
- **gather** (:func:`gathered_align_batch` /
  :func:`gathered_score_batch`, what the sequence-level
  ``global_align_batch`` / ``global_score_batch`` call): the caller
  hands residue codes and the substitution table, and each DP row's
  scores are gathered from the table into one pooled ``(n_max, K)``
  row.  No per-pair matrix and no stacked tensor exist; the values are
  the same table entries, so results are bit-identical to the dense
  source on ``table[x][:, y]``.

Every other operation of the loop is shared.  ``dp.batch`` spans carry
``scores="gather"|"dense"`` and ``dp.batch_gather_pairs`` counts the
pairs that took the gather source.

Memory is bounded: both modes keep O(K * n_max) float rows; alignment
mode adds four bytes per padded cell, the dense source adds its eight
bytes per padded cell twice over (pair-major fill, pair-minor stack),
and the batch is chunked so the padded cell count stays under
``max_batch_cells`` (env ``REPRO_DP_MAX_BATCH_CELLS``).  Callers hand
the kernel at most :data:`MAX_BATCH_PAIRS` pairs per call.
"""

from __future__ import annotations

import os
import threading
from typing import Any, List, Optional, Sequence as TSequence, Tuple

import numpy as np

from repro.align.dp import (
    NEG,
    AffineDPResult,
    _as_vec,
)
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span

__all__ = [
    "MAX_BATCH_PAIRS",
    "DEFAULT_MAX_BATCH_CELLS",
    "affine_align_batch",
    "affine_score_batch",
    "gathered_align_batch",
    "gathered_score_batch",
    "max_batch_cells_setting",
]

#: Pairs per caller-level batch (the distance stage's chunks of a tile,
#: the merge walk's chunks of a level).
MAX_BATCH_PAIRS = 128

#: Default cap on padded DP cells per fused forward chunk
#: (``REPRO_DP_MAX_BATCH_CELLS``).  In alignment mode a full chunk is
#: ~16 MB of bool decision planes; the dense score source stacks another
#: ~64 MB of float64 scores on top (two 8-byte tensors), the gather
#: source (sequence pairs) none.  K=64 at L=250 still measures best
#: for the full-DP distance stage with the gather source (1,128 pairs,
#: CPU seconds, best of four alternating rounds: 1 M cells 1.20,
#: 2 M 1.20, 4 M 1.12, 8.4 M 1.29).
DEFAULT_MAX_BATCH_CELLS = 4_194_304

# Batched-kernel counters, resolved once (same idiom as the scalar
# kernel's): calls = fused forward launches, pairs/cells = work moved
# through them.  /metrics shows the kernel switch via these.
_BATCH_CALLS = _obs_registry().counter("dp.batch_calls")
_BATCH_CELLS = _obs_registry().counter("dp.batch_cells")
_BATCH_PAIRS = _obs_registry().counter("dp.batch_pairs")
_BATCH_GATHER_PAIRS = _obs_registry().counter("dp.batch_gather_pairs")


def max_batch_cells_setting(default: int = DEFAULT_MAX_BATCH_CELLS) -> int:
    """Padded-cell budget per fused chunk from ``REPRO_DP_MAX_BATCH_CELLS``."""
    raw = os.environ.get("REPRO_DP_MAX_BATCH_CELLS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, value)


class _ScratchPool(threading.local):
    """Thread-local grow-only buffer pool.

    The stacked DP tables are tens of MB per chunk; allocating them
    fresh on every call pays the kernel's page-fault cost again and
    again (and is the dominant cost at large K).  Buffers here are
    faulted once per thread and reused across chunks and calls.  Reuse
    never changes results: stale bytes only ever land in *padded* cells,
    which the padding argument above guarantees are never read.

    Retained memory is bounded by the largest chunk served, i.e. by the
    ``REPRO_DP_MAX_BATCH_CELLS`` budget: ~16 MB of decision planes at
    the default, plus ~64 MB of stacked scores once a dense-source
    chunk that large has run.
    """

    def __init__(self) -> None:
        self.bufs: dict = {}

    def take(
        self, key: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        buf = self.bufs.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self.bufs[key] = buf
        return buf[:size].reshape(shape)


_scratch = _ScratchPool()


def _normalise_penalties(
    value: Any, lengths: TSequence[int], name: str
) -> List[np.ndarray]:
    """Per-pair per-position penalty vectors.

    ``value`` is either one scalar shared by every pair, or a sequence of
    K per-pair specs, each a scalar or a length-``m_k`` vector (exactly
    what the scalar kernel accepts per call).
    """
    if isinstance(value, (int, float, np.integer, np.floating)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    ):
        return [np.full(length, float(value)) for length in lengths]
    specs = list(value)
    if len(specs) != len(lengths):
        raise ValueError(
            f"{name} must be a scalar or a sequence of one spec per pair "
            f"(got {len(specs)} specs for {len(lengths)} pairs)"
        )
    return [
        _as_vec(spec, length, name) for spec, length in zip(specs, lengths)
    ]


def _chunk_bounds(
    shapes: TSequence[Tuple[int, int]], max_cells: int
) -> List[Tuple[int, int]]:
    """``[start, stop)`` chunk bounds keeping padded cells under budget.

    The padded cost of a chunk is ``len * (max_m + 1) * (max_n + 1)``
    (what the stacked tables actually allocate); a single oversized pair
    still gets its own chunk.  When the batch needs several chunks they
    are cut to near-equal pair counts rather than greedily -- a greedy
    cut leaves a tiny (inefficient) tail chunk, e.g. 103 + 25 instead
    of 64 + 64.  Chunking never changes values -- each pair's DP is
    independent.
    """
    K = len(shapes)
    padded = max((m + 1) * (n + 1) for m, n in shapes)
    if K * padded <= max_cells:
        return [(0, K)]
    # Upper-bound pair count per chunk using the worst-case padded pair,
    # then balance: every chunk's true cost only shrinks below this.
    per = max(1, max_cells // padded)
    n_chunks = -(-K // per)
    base, extra = divmod(K, n_chunks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for c in range(n_chunks):
        stop = start + base + (1 if c < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _empty_align(
    m: int,
    n: int,
    open_x: np.ndarray,
    ext_x: np.ndarray,
    open_y: np.ndarray,
    ext_y: np.ndarray,
    tf: float,
) -> AffineDPResult:
    """Alignment of a degenerate pair (mirrors the scalar edge path)."""
    x_map = np.concatenate([np.arange(m), np.full(n, -1, dtype=np.int64)])
    y_map = np.concatenate([np.full(m, -1, dtype=np.int64), np.arange(n)])
    score = 0.0
    if m:
        score = float(-tf * (open_x[0] + ext_x.sum()))
    elif n:
        score = float(-tf * (open_y[0] + ext_y.sum()))
    return AffineDPResult(score, x_map, y_map)


class _DenseScores:
    """Substitution scores given as one dense matrix per pair.

    What the matrix-level entries get from their callers (profile-profile
    PSP matrices): scores that are not table look-ups, so the rows have
    to be stacked.  The stack is filled pair-major with contiguous
    per-pair copies, then transposed in one bulk pass into the
    pair-minor ``(m_max, n_max, K)`` layout so the row loop reads
    contiguous ``(n_max, K)`` slices.
    """

    kind = "dense"

    def __init__(self, S_list: TSequence[np.ndarray]) -> None:
        self.S_list = [
            np.ascontiguousarray(S, dtype=np.float64) for S in S_list
        ]
        for S in self.S_list:
            if S.ndim != 2:
                raise ValueError("each pair-score matrix must be 2-D")
        self.shapes = [S.shape for S in self.S_list]

    def row_reader(self, ks: TSequence[int], mmax: int, nmax: int):
        K = len(ks)
        S_pm = _scratch.take("S_pm", (K, mmax, nmax))
        for t, k in enumerate(ks):
            m, n = self.shapes[k]
            S_pm[t, :m, :n] = self.S_list[k]
        S = _scratch.take("S", (mmax, nmax, K))
        np.copyto(S, S_pm.transpose(1, 2, 0))
        return S.__getitem__


class _GatheredScores:
    """Substitution scores looked up from one table, a DP row at a time.

    For sequence pairs the score of cell ``(i, j)`` of pair ``k`` is
    ``table[x_k[i], y_k[j]]``, so no per-pair matrix is ever built.  The
    chunk holds two small pooled index blocks -- the ``x`` codes,
    ``(m_max, K)``, and the ``y`` codes offset by ``k * width`` into a
    ``(K, width)`` block of table rows, ``(n_max, K)`` -- and row ``i``
    is two ``take`` calls: the K table rows that position ``i`` of each
    ``x`` selects (K * width floats), then the ``(n_max, K)`` scores
    out of those rows into a pooled float row.  The values are the same
    table entries a dense stack would hold, so everything downstream is
    bit-identical; working memory is O(K * n_max).  Padded lanes carry
    code 0, a valid entry whose score lands in cells that are never
    read.

    The gathers run with a non-raising ``take`` mode (with ``out=``,
    ``mode="raise"`` buffers the whole output), so the bounds check
    fancy indexing gave for free is made here, once, over all codes.
    """

    kind = "gather"

    def __init__(
        self,
        table: np.ndarray,
        code_pairs: TSequence[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        table = np.ascontiguousarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("the substitution table must be 2-D")
        self.table = table
        self.xs = [np.asarray(x) for x, _y in code_pairs]
        self.ys = [np.asarray(y) for _x, y in code_pairs]
        for codes, size in zip((self.xs, self.ys), table.shape):
            stacked = np.concatenate(codes) if codes else np.zeros(0)
            if stacked.size and not (
                0 <= int(stacked.min()) and int(stacked.max()) < size
            ):
                raise IndexError(
                    f"residue code out of bounds for a substitution "
                    f"table axis of size {size}"
                )
        self.shapes = [(len(x), len(y)) for x, y in zip(self.xs, self.ys)]

    def row_reader(self, ks: TSequence[int], mmax: int, nmax: int):
        K = len(ks)
        table = self.table
        width = table.shape[1]
        x_code = _scratch.take("x_code", (mmax, K), dtype=np.intp)
        y_idx = _scratch.take("y_idx", (nmax, K), dtype=np.intp)
        x_code[:] = 0
        y_idx[:] = 0
        for t, k in enumerate(ks):
            m, n = self.shapes[k]
            x_code[:m, t] = self.xs[k]
            y_idx[:n, t] = self.ys[k]
        y_idx += np.arange(K) * width
        x_rows = _scratch.take("x_rows", (K, width))
        x_rows_flat = x_rows.reshape(-1)
        row = _scratch.take("s_row", (nmax, K))

        def read(r: int) -> np.ndarray:
            table.take(x_code[r], axis=0, out=x_rows, mode="clip")
            return x_rows_flat.take(y_idx, out=row, mode="clip")

        return read


class _PaddedBatch:
    """Length-padded pair-minor stack of K non-degenerate pair problems.

    ``score_row(r)`` is the seam the forward loop reads substitution
    scores through: the ``(n_max, K)`` scores of x-position ``r`` against
    every y-position, from whichever source the entry was given
    (:class:`_DenseScores` or :class:`_GatheredScores`).  Besides that
    the batch holds transposed padded penalty matrices and per-pair
    exact cumulative extension costs (computed in 1-D so they match the
    scalar kernel bit for bit).

    ``uniform`` is the ``(open_x, ext_x, open_y, ext_y)`` scalar tuple
    when every pair shares the same scalar penalties (the
    :class:`~repro.seq.matrices.GapPenalties` hot path).  In that mode
    the penalty matrices are skipped entirely and the forward loop uses
    plain Python floats -- the same values, so results are unchanged,
    with none of the padded-matrix fill cost.
    """

    def __init__(
        self,
        scores: Any,
        ks: TSequence[int],
        open_x: TSequence[np.ndarray],
        ext_x: TSequence[np.ndarray],
        open_y: TSequence[np.ndarray],
        ext_y: TSequence[np.ndarray],
        uniform: Optional[Tuple[float, float, float, float]] = None,
    ) -> None:
        K = len(ks)
        self.K = K
        self.ms = np.array([scores.shapes[k][0] for k in ks], dtype=np.int64)
        self.ns = np.array([scores.shapes[k][1] for k in ks], dtype=np.int64)
        mmax = int(self.ms.max())
        nmax = int(self.ns.max())
        self.mmax, self.nmax = mmax, nmax
        self.uniform = uniform
        self.score_row = scores.row_reader(ks, mmax, nmax)

        # Pooled buffers: padded cells keep whatever bytes the pool held
        # before -- safe, because padded cells are never read (see the
        # module docstring), and zero-filling them is pure overhead.
        cum_x_pm = _scratch.take("cum_x_pm", (K, mmax + 1))
        cum_y_pm = _scratch.take("cum_y_pm", (K, nmax + 1))
        cum_x_pm[:, 0] = 0.0
        cum_y_pm[:, 0] = 0.0
        if uniform is not None:
            # One shared cumsum per axis: ``np.cumsum`` accumulates
            # sequentially, so a prefix of the length-max cumsum is
            # bit-identical to each pair's own shorter cumsum.
            _ox, ex_s, _oy, ey_s = uniform
            cum_x_pm[:, 1:] = np.cumsum(np.full(mmax, ex_s))
            cum_y_pm[:, 1:] = np.cumsum(np.full(nmax, ey_s))
            self.OX = self.EX = self.OY = None
        else:
            OX_pm = _scratch.take("OX_pm", (K, mmax))
            EX_pm = _scratch.take("EX_pm", (K, mmax))
            OY_pm = _scratch.take("OY_pm", (K, nmax))
            for t, k in enumerate(ks):
                m, n = int(self.ms[t]), int(self.ns[t])
                OX_pm[t, :m] = open_x[k]
                EX_pm[t, :m] = ext_x[k]
                OY_pm[t, :n] = open_y[k]
                # Per-pair 1-D cumsum: bit-identical to the scalar
                # kernel's.
                cx = np.cumsum(ext_x[k])
                cy = np.cumsum(ext_y[k])
                cum_x_pm[t, 1 : m + 1] = cx
                cum_x_pm[t, m + 1 :] = cx[-1]
                cum_y_pm[t, 1 : n + 1] = cy
                cum_y_pm[t, n + 1 :] = cy[-1]
            # Transposed penalty matrices for pair-minor row blocks.
            self.OX = _scratch.take("OX", (mmax, K))
            self.EX = _scratch.take("EX", (mmax, K))
            self.OY = _scratch.take("OY", (nmax, K))
            np.copyto(self.OX, OX_pm.T)
            np.copyto(self.EX, EX_pm.T)
            np.copyto(self.OY, OY_pm.T)
        self.cum_x = _scratch.take("cum_x", (mmax + 1, K))
        self.cum_y = _scratch.take("cum_y", (nmax + 1, K))
        np.copyto(self.cum_x, cum_x_pm.T)
        np.copyto(self.cum_y, cum_y_pm.T)
        # Pairs grouped by row count: the forward loop captures each
        # pair's final row the moment row m_k is computed.
        self.by_m: dict = {}
        for t, m in enumerate(self.ms.tolist()):
            self.by_m.setdefault(int(m), []).append(t)
        self.by_m = {m: np.array(ts) for m, ts in self.by_m.items()}


def _forward_batch(batch: _PaddedBatch, tf: float, align: bool):
    """Batched forward fill over the padded pair-minor stack.

    One Python-level loop of ``m_max`` iterations; every op inside works
    on an ``(n_max + 1, K)`` block.  Returns ``(last_rows, last_cols,
    decisions)`` -- each pair's final DP row / final DP column (captured
    on the fly; ``last_cols`` is None in score mode with
    ``terminal_factor == 1``), and in align mode the decision planes
    ``(PA, PD, SE, SF)`` for the bit traceback (None in score mode).
    Each plane is an ``(m_max + 1, n_max + 1, K)`` bool table written
    by one or two vectorised comparisons per row -- PA: take the
    diagonal, i.e. ``(diag >= E) & PD``; PD: ``max(diag, E) >= F``;
    SE: vertical gap extends; SF: horizontal gap extends.  (PA, PD)
    encode the scalar H-state tie-break exactly: diagonal iff PA;
    vertical iff PD and not PA -- because the running max makes
    ``E >= F`` equivalent to PD there; horizontal otherwise.  Floats live in O(K * n_max) swapped row buffers in both
    modes; the four byte planes still take ~6x less memory than stacked
    float64 H/E/F tables would.
    """
    K, mmax, nmax = batch.K, batch.mmax, batch.nmax
    cum_x, cum_y = batch.cum_x, batch.cum_y
    score_row = batch.score_row
    uni = batch.uniform
    if uni is None:
        OX, EX, OY = batch.OX, batch.EX, batch.OY
        ox0 = OX[0]
        oy0 = OY[0]
        oy_first = OY[:1]
        oy_tail = OY[1:]
        oy_mid = OY[1:nmax]
    else:
        # Uniform scalar penalties: same values as the padded matrices
        # would hold, so every op below produces identical floats with
        # no padded penalty matrices to fill.
        ox_s, ex_s, oy_s, _ey_s = uni
        ox0 = oy0 = oy_first = oy_tail = oy_mid = None

    track_cols = align or tf != 1.0
    rng = np.arange(K)
    h_prev = _scratch.take("h_prev", (nmax + 1, K))
    e_prev = _scratch.take("e_prev", (nmax + 1, K))
    h_row = _scratch.take("h_row", (nmax + 1, K))
    e_row = _scratch.take("e_row", (nmax + 1, K))
    last_rows = _scratch.take("last_rows", (nmax + 1, K))
    last_cols = (
        _scratch.take("last_cols", (mmax + 1, K)) if track_cols else None
    )
    if align:
        shape = (mmax + 1, nmax + 1, K)
        PA = _scratch.take("PA", shape, dtype=bool)
        PD = _scratch.take("PD", shape, dtype=bool)
        SE = _scratch.take("SE", shape, dtype=bool)
        SF = _scratch.take("SF", shape, dtype=bool)
        planes = (PA, PD, SE, SF)
    else:
        planes = None

    # Row 0: leading horizontal gap, scaled by tf.  Same op order as the
    # scalar kernel throughout: add, then scale by -tf.
    h_prev[0] = 0.0
    if uni is None:
        h_prev[1:] = -tf * (oy_first + cum_y[1:])
    else:
        h_prev[1:] = -tf * (oy_s + cum_y[1:])
    e_prev[:, :] = NEG

    # Loop-invariant row-0 boundary values, hoisted: row i holds the
    # per-row DP boundary H[i, 0] (same elementwise ops the scalar
    # kernel applies row by row).
    if uni is None:
        bounds = -tf * (ox0 + cum_x)
        term0s = (bounds + cum_y[0]) - oy0
        sf0s = NEG >= bounds - oy0
    else:
        bounds = -tf * (ox_s + cum_x)
        term0s = (bounds + cum_y[0]) - oy_s
        sf0s = NEG >= bounds - oy_s

    # Per-pair column capture degenerates to one row copy when every
    # pair shares n_max (no per-row fancy gather needed).
    simple_cols = track_cols and int(batch.ns.min()) == nmax
    if track_cols:
        if simple_cols:
            last_cols[0] = h_prev[nmax]
        else:
            last_cols[0] = h_prev[batch.ns, rng]

    # Pooled scratch rows; every loop op writes via ``out=`` so the row
    # loop allocates nothing.
    t1 = _scratch.take("t1", (nmax, K))
    dg = _scratch.take("dg", (nmax, K))
    h0 = _scratch.take("h0", (nmax, K))
    f_tail = _scratch.take("f_tail", (nmax, K))
    cy1 = cum_y[1:]
    cy_mid = cum_y[1:-1]
    # The log-step max-scan ping-pongs between two buffers: writing the
    # shifted maximum in place would overlap input and output, which
    # makes numpy copy the shifted input every step.  Each buffer
    # carries a NEG-filled left margin of ``nmax`` rows so a shifted
    # read below row 0 lands on NEG instead of needing a per-step
    # prefix copy: ``term[0]`` is a finite boundary-derived value, so
    # every running prefix maximum exceeds NEG and the margin is the
    # identity under ``np.maximum`` -- one op per scan step, same bits.
    # The margins are read-only during the scan (writes land at
    # ``[nmax:]`` only), so one fill per call suffices.
    termX = _scratch.take("termX", (2 * nmax, K))
    termX_b = _scratch.take("termX_b", (2 * nmax, K))
    termX[:nmax] = NEG
    termX_b[:nmax] = NEG
    term = termX[nmax:]
    # The buffer alternation is deterministic, so all views are hoisted.
    scan_plan = []
    step = 1
    src, dst = termX, termX_b
    while step < nmax:
        scan_plan.append(
            (src[nmax:], src[nmax - step : 2 * nmax - step], dst[nmax:])
        )
        src, dst = dst, src
        step *= 2
    term_out = src[nmax:]
    # Row roles alternate between the two buffer pairs each iteration;
    # hoist both parities' slice views out of the loop.
    parities = (
        (h_prev[1:], h_prev[:-1], e_prev[1:],
         h_row, h_row[1:], h_row[1:-1], e_row[1:]),
        (h_row[1:], h_row[:-1], e_row[1:],
         h_prev, h_prev[1:], h_prev[1:-1], e_prev[1:]),
    )
    for i in range(1, mmax + 1):
        ph1, ph0, pe1, ch, ch1, chm, ev = parities[(i - 1) & 1]
        if uni is None:
            ox = OX[i - 1]
            ex = EX[i - 1]
        else:
            ox, ex = ox_s, ex_s
        ch[0] = bounds[i]
        # Vertical gap: reads only the previous row.
        np.subtract(ph1, ox, out=t1)
        if align:
            # E-extension bit: E[i-1, j] >= H[i-1, j] - open_x[i-1].
            np.greater_equal(pe1, t1, out=SE[i][1:])
        np.maximum(pe1, t1, out=t1)
        np.subtract(t1, ex, out=ev)
        # Diagonal: previous row shifted.
        np.add(ph0, score_row(i - 1), out=dg)
        np.maximum(dg, ev, out=h0)
        # Horizontal gap via the exact prefix scan (see align.dp) in
        # log-step shifted-maximum form over contiguous row blocks:
        # ``np.maximum`` is an exact selection, so any scan order gives
        # the bit-identical running maximum.
        term[0] = term0s[i]
        tv = term[1:]
        np.add(h0[:-1], cy_mid, out=tv)
        np.subtract(tv, oy_s if uni is not None else oy_tail, out=tv)
        for s_hi, s_lo, s_out in scan_plan:
            np.maximum(s_hi, s_lo, out=s_out)
        np.subtract(term_out, cy1, out=f_tail)
        np.maximum(h0, f_tail, out=ch1)
        if align:
            # H-state tie-break planes (diagonal > vertical >
            # horizontal), one comparison each, written in place; PA is
            # folded to ``(diag >= E) & PD`` -- "take the diagonal" --
            # so the traceback tests a single bit per matched cell.
            np.greater_equal(dg, ev, out=PA[i][1:])
            np.greater_equal(h0, f_tail, out=PD[i][1:])
            np.logical_and(PA[i][1:], PD[i][1:], out=PA[i][1:])
            # F-extension bit: F[i, j-1] >= H[i, j-1] - open_y[j-1];
            # at j == 1 the predecessor is F[i, 0] == NEG.
            tfv = t1[: nmax - 1]
            np.subtract(
                chm,
                oy_s if uni is not None else oy_mid,
                out=tfv,
            )
            np.greater_equal(f_tail[:-1], tfv, out=SF[i][2:])
            SF[i][1] = sf0s[i]
        done = batch.by_m.get(i)
        if done is not None:
            last_rows[:, done] = ch[:, done]
        if simple_cols:
            last_cols[i] = ch[nmax]
        elif track_cols:
            last_cols[i] = ch[batch.ns, rng]

    return last_rows, last_cols, planes


def _terminal_best_batch(
    batch: _PaddedBatch,
    last_rows: np.ndarray,
    last_cols: np.ndarray,
    tf: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.align.dp._terminal_best` over the batch.

    Same candidate values from the same elementwise ops, same
    first-of-max argmax, same strict-inequality update order (final
    cell, then trailing vertical, then trailing horizontal) -- so the
    ``(score, i_end, j_end)`` triple matches the scalar helper exactly
    for every pair.
    """
    K, mmax, nmax = batch.K, batch.mmax, batch.nmax
    ms, ns = batch.ms, batch.ns
    rng = np.arange(K)
    cum_x, cum_y = batch.cum_x, batch.cum_y
    if batch.uniform is not None:
        ox_s, _ex, oy_s, _ey = batch.uniform
        open_x: Any = ox_s
        open_y: Any = oy_s
    else:
        open_x = batch.OX
        open_y = batch.OY

    best = last_rows[ns, rng]
    # Trailing vertical gap: end at (i, n), consume x_{i+1..m}.
    trail = last_cols[:mmax] - tf * (
        (open_x + cum_x[ms, rng]) - cum_x[:mmax]
    )
    np.copyto(trail, -np.inf, where=np.arange(mmax)[:, None] >= ms)
    ic = np.argmax(trail, axis=0)
    vc = trail[ic, rng]
    col_wins = vc > best
    best = np.where(col_wins, vc, best)
    bi = np.where(col_wins, ic, ms)
    # Trailing horizontal gap: end at (m, j), consume y_{j+1..n}.
    trail = last_rows[:nmax] - tf * (
        (open_y + cum_y[ns, rng]) - cum_y[:nmax]
    )
    np.copyto(trail, -np.inf, where=np.arange(nmax)[:, None] >= ns)
    jr = np.argmax(trail, axis=0)
    vr = trail[jr, rng]
    row_wins = vr > best
    best = np.where(row_wins, vr, best)
    bi = np.where(row_wins, ms, bi)
    bj = np.where(row_wins, jr, ns)
    return best.astype(np.float64, copy=False), bi, bj


def _traceback_bits(
    pa: np.ndarray,
    pd: np.ndarray,
    se: np.ndarray,
    sf: np.ndarray,
    i: int,
    j: int,
    m: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover one optimal path from the decision planes.

    Structurally identical to the scalar kernel's ``_traceback`` state
    machine -- every branch tests a bit that was computed from exactly
    the comparison the scalar traceback would evaluate, so the emitted
    path (and its tie-breaks) is byte-identical.  Diagonal stretches
    are emitted run-at-a-time: the cells of one stretch share a
    diagonal of the PA ("take the diagonal") plane, so the run length
    is one vectorised scan along that diagonal instead of a per-cell
    loop (similar sequences spend most of the path there).
    """
    xs: List[int] = []
    ys: List[int] = []
    # Trailing gap emitted first (we build the path reversed).
    for t in range(n, j, -1):
        xs.append(-1)
        ys.append(t - 1)
    for t in range(m, i, -1):
        xs.append(t - 1)
        ys.append(-1)

    state = 0  # 0 = H, 1 = E, 2 = F
    while i > 0 and j > 0:
        if state == 0:
            if not pa[i, j]:
                # Not a diagonal cell: PD picks vertical over
                # horizontal (the scalar ``e >= f`` tie-break -- the
                # running maximum makes them equivalent here).
                state = 1 if pd[i, j] else 2
            else:
                # Diagonal run: the current cell chose diagonal; keep
                # stepping while the next cells up the off-diagonal
                # ``j - i`` also choose diagonal.  Those cells share one
                # diagonal of the decision planes, so the run length is
                # a single vectorised scan instead of a per-cell loop.
                # The scan covers cells (i-1, j-1) .. (i-t+1, j-t+1)
                # where t = min(i, j): the scalar loop border-checks
                # *before* reading bits, so the cell where a coordinate
                # reaches 0 is never tested.
                t_hi = i if i < j else j
                if t_hi > 1:
                    diag = pa.diagonal(j - i)[1:t_hi][::-1]
                    stop = int(np.argmin(diag))
                    run = t_hi if diag[stop] else stop + 1
                else:
                    run = 1
                xs.extend(range(i - 1, i - 1 - run, -1))
                ys.extend(range(j - 1, j - 1 - run, -1))
                i -= run
                j -= run
                continue
        if state == 1:
            xs.append(i - 1)
            ys.append(-1)
            stay = se[i, j]
            i -= 1
            if not stay or i == 0:
                state = 0
        else:
            xs.append(-1)
            ys.append(j - 1)
            stay = sf[i, j]
            j -= 1
            if not stay or j == 0:
                state = 0
    # Leading gap along whichever axis remains.
    while i > 0:
        xs.append(i - 1)
        ys.append(-1)
        i -= 1
    while j > 0:
        xs.append(-1)
        ys.append(j - 1)
        j -= 1

    return (
        np.array(xs[::-1], dtype=np.int64),
        np.array(ys[::-1], dtype=np.int64),
    )


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    )


def _normalise(
    shapes: TSequence[Tuple[int, int]],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any,
    gap_extend_y: Any,
):
    """Normalise penalties to per-pair vectors.

    Also detects the uniform-scalar-penalty hot path (all four penalty
    specs are plain scalars, as with :class:`~repro.seq.matrices
    .GapPenalties`), which the forward loop exploits for cheaper
    dispatch without changing any value.
    """
    ms = [m for m, _n in shapes]
    ns = [n for _m, n in shapes]
    oy_raw = gap_open if gap_open_y is None else gap_open_y
    ey_raw = gap_extend if gap_extend_y is None else gap_extend_y
    uniform: Optional[Tuple[float, float, float, float]] = None
    if all(_is_scalar(v) for v in (gap_open, gap_extend, oy_raw, ey_raw)):
        uniform = (
            float(gap_open),
            float(gap_extend),
            float(oy_raw),
            float(ey_raw),
        )
    open_x = _normalise_penalties(gap_open, ms, "gap_open")
    ext_x = _normalise_penalties(gap_extend, ms, "gap_extend")
    open_y = _normalise_penalties(oy_raw, ns, "gap_open_y")
    ext_y = _normalise_penalties(ey_raw, ns, "gap_extend_y")
    return open_x, ext_x, open_y, ext_y, uniform


def _solve_batch(
    scores: Any,
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any,
    gap_extend_y: Any,
    tf: float,
    max_batch_cells: Optional[int],
    align: bool,
) -> Tuple[np.ndarray, Optional[List[Tuple[np.ndarray, np.ndarray]]]]:
    """The one chunked driver behind every batched entry.

    ``scores`` is a :class:`_DenseScores` or :class:`_GatheredScores`;
    nothing else differs between the two.  Returns the ``(K,)`` optimal
    scores and, in align mode, each pair's ``(x_map, y_map)`` (``None``
    in score mode, where no decision planes are written).
    """
    shapes = scores.shapes
    open_x, ext_x, open_y, ext_y, uniform = _normalise(
        shapes, gap_open, gap_extend, gap_open_y, gap_extend_y
    )
    out = np.empty(len(shapes), dtype=np.float64)
    maps: Optional[list] = [None] * len(shapes) if align else None

    live: List[int] = []
    for k, (m, n) in enumerate(shapes):
        if m == 0 or n == 0:
            res = _empty_align(
                m, n, open_x[k], ext_x[k], open_y[k], ext_y[k], tf
            )
            out[k] = res.score
            if align:
                maps[k] = (res.x_map, res.y_map)
        else:
            live.append(k)
    if not live:
        return out, maps

    budget = (
        max_batch_cells_setting()
        if max_batch_cells is None
        else max(1, int(max_batch_cells))
    )
    gathered = scores.kind == "gather"
    for a, b in _chunk_bounds([shapes[k] for k in live], budget):
        ks = live[a:b]
        batch = _PaddedBatch(
            scores, ks, open_x, ext_x, open_y, ext_y, uniform=uniform
        )
        cells = int((batch.ms * batch.ns).sum())
        _BATCH_CALLS.inc()
        _BATCH_PAIRS.inc(len(ks))
        _BATCH_CELLS.inc(cells)
        if gathered:
            _BATCH_GATHER_PAIRS.inc(len(ks))
        with span(
            "dp.batch",
            pairs=len(ks),
            cells=cells,
            mode="align" if align else "score",
            scores=scores.kind,
        ):
            last_rows, last_cols, planes = _forward_batch(batch, tf, align)
            if align or tf != 1.0:
                out[ks], bis, bjs = _terminal_best_batch(
                    batch, last_rows, last_cols, tf
                )
            else:
                out[ks] = last_rows[batch.ns, np.arange(len(ks))]
            if align:
                PA, PD, SE, SF = planes
                for t, k in enumerate(ks):
                    maps[k] = _traceback_bits(
                        PA[:, :, t],
                        PD[:, :, t],
                        SE[:, :, t],
                        SF[:, :, t],
                        int(bis[t]),
                        int(bjs[t]),
                        *shapes[k],
                    )
    return out, maps


def _as_results(
    out: np.ndarray, maps: List[Tuple[np.ndarray, np.ndarray]]
) -> List[AffineDPResult]:
    return [
        AffineDPResult(float(score), x_map, y_map)
        for score, (x_map, y_map) in zip(out, maps)
    ]


def affine_score_batch(
    S_list: TSequence[np.ndarray],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
) -> np.ndarray:
    """Optimal global affine scores of K pair problems, one fused pass.

    Parameters mirror :func:`repro.align.dp.affine_score` with one
    batch-level twist: each penalty is either a scalar shared by every
    pair, or a sequence of K per-pair specs (scalar or per-position
    vector).  Returns a ``(K,)`` float64 array byte-identical to calling
    the scalar kernel per pair.  O(K * n_max) working memory on top of
    the stacked score matrices.
    """
    return _solve_batch(
        _DenseScores(S_list), gap_open, gap_extend, gap_open_y,
        gap_extend_y, terminal_factor, max_batch_cells, align=False,
    )[0]


def affine_align_batch(
    S_list: TSequence[np.ndarray],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
) -> List[AffineDPResult]:
    """Optimal global affine alignments of K pair problems.

    Batched forward fill in memory-bounded chunks, then a cheap per-pair
    O(m + n) traceback over the stacked decision planes -- the same
    state machine and tie-break order as the scalar kernel's traceback,
    so every result is byte-identical to per-pair
    :func:`~repro.align.dp.affine_align`.
    """
    return _as_results(
        *_solve_batch(
            _DenseScores(S_list), gap_open, gap_extend, gap_open_y,
            gap_extend_y, terminal_factor, max_batch_cells, align=True,
        )
    )


def gathered_score_batch(
    table: np.ndarray,
    code_pairs: TSequence[Tuple[np.ndarray, np.ndarray]],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
) -> np.ndarray:
    """:func:`affine_score_batch` for scores that are table look-ups.

    Pair ``k`` is ``(x_codes, y_codes)`` and its score matrix would be
    ``table[x_codes][:, y_codes]`` -- which is never built: the row loop
    gathers each row from ``table`` (see :class:`_GatheredScores`).
    Byte-identical to the dense entry on those matrices.  A code outside
    the table raises ``IndexError``.
    """
    return _solve_batch(
        _GatheredScores(table, code_pairs), gap_open, gap_extend,
        gap_open_y, gap_extend_y, terminal_factor, max_batch_cells,
        align=False,
    )[0]


def gathered_align_batch(
    table: np.ndarray,
    code_pairs: TSequence[Tuple[np.ndarray, np.ndarray]],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
) -> List[AffineDPResult]:
    """:func:`affine_align_batch` for scores that are table look-ups
    (see :func:`gathered_score_batch`)."""
    return _as_results(
        *_solve_batch(
            _GatheredScores(table, code_pairs), gap_open, gap_extend,
            gap_open_y, gap_extend_y, terminal_factor, max_batch_cells,
            align=True,
        )
    )
