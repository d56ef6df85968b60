"""Batched affine-gap (Gotoh) scores: K pair problems, one row loop.

Score mode only.  Every alignment in the system goes through
:mod:`repro.align.dp` -- one compiled call per pair, or the numpy/python
path where the host cannot build one -- so this module computes no
tracebacks.  What is left is :func:`affine_score_batch`: the optimal
global scores of K dense pair-score matrices, byte-identical to calling
:func:`~repro.align.dp.affine_score` per pair.  No production path calls
it; the benchmark's ``align.batch_cells_per_s`` probe does, and the
module goes once that probe measures :func:`~repro.align.dp
.align_code_pairs` instead.

The numpy kernel in :mod:`repro.align.dp` is exactly row-vectorised, so
its cost on short rows is numpy *dispatch*: ~10 array ops per DP row,
issued once per row per pair.  This module runs the *same exact
prefix-scan recurrence* over a length-padded stack of K problems at
once: every elementwise op works on an ``(n_max + 1, K)`` row block, so
the per-row dispatch cost is paid once per batch instead of once per
pair.

The stack is **pair-minor** (K is the fastest axis): that turns the
horizontal-gap prefix scan into a log-step shifted-maximum over
*contiguous row blocks* -- ``np.maximum`` is an exact selection, so any
scan order yields bit-identical running maxima, and the log-step form
runs ~2x faster than ``np.maximum.accumulate``'s scalar inner loop.

Exactness and padding
---------------------
Each pair ``k`` occupies the leading ``(m_k + 1, n_k + 1)`` region of the
padded rows.  Correctness of the padding relies on two facts:

- columns are independent in the vertical-gap recurrence, and the
  horizontal-gap prefix scan only flows *left to right* -- so garbage in
  padded columns ``j > n_k`` can never reach a valid column;
- rows only read the previous row, and each pair's final row is captured
  at ``i == m_k`` -- so garbage rows ``i > m_k`` are never read.

Every elementwise op matches the scalar kernel's op-for-op (same IEEE
operations on the same values), which makes batched scores
**byte-identical** to per-pair :func:`~repro.align.dp.affine_score` --
the property suite asserts exact equality, not closeness.

Memory is bounded: the row loop keeps O(K * n_max) float rows, the
stacked score matrices take sixteen bytes per padded cell (pair-major
fill, pair-minor copy), and the batch is cut into chunks of at most
:data:`DEFAULT_MAX_BATCH_CELLS` padded cells.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence as TSequence, Tuple

import numpy as np

from repro.align.dp import NEG, _as_vec, _degenerate
from repro.align.tablepool import TablePool
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span

__all__ = ["DEFAULT_MAX_BATCH_CELLS", "affine_score_batch"]

#: Cap on padded DP cells per fused chunk: ~64 MB of stacked float64
#: scores (two 8-byte tensors) at the cap.
DEFAULT_MAX_BATCH_CELLS = 4_194_304

# Batched-kernel counters, resolved once (same idiom as the scalar
# kernel's): calls = fused forward launches, pairs/cells = work moved
# through them.
_BATCH_CALLS = _obs_registry().counter("dp.batch_calls")
_BATCH_CELLS = _obs_registry().counter("dp.batch_cells")
_BATCH_PAIRS = _obs_registry().counter("dp.batch_pairs")

# Stale bytes in a reused buffer only ever land in *padded* cells, which
# the padding argument above guarantees are never read.
_scratch = TablePool()


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    )


def _normalise_penalties(
    value: Any, lengths: TSequence[int], name: str
) -> List[np.ndarray]:
    """Per-pair per-position penalty vectors.

    ``value`` is either one scalar shared by every pair, or a sequence of
    K per-pair specs, each a scalar or a length-``m_k`` vector (exactly
    what the scalar kernel accepts per call).
    """
    if _is_scalar(value):
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
    (what the stacked rows actually allocate); a single oversized pair
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


class _PaddedBatch:
    """Length-padded pair-minor stack of K non-degenerate pair problems.

    Holds the stacked ``(m_max, n_max, K)`` score tensor (filled
    pair-major with contiguous per-pair copies, then transposed in one
    bulk pass so the row loop reads contiguous ``(n_max, K)`` slices),
    transposed padded penalty matrices and per-pair exact cumulative
    extension costs (computed in 1-D so they match the scalar kernel bit
    for bit).

    ``uniform`` is the ``(open_x, ext_x, open_y, ext_y)`` scalar tuple
    when every pair shares the same scalar penalties (the
    :class:`~repro.seq.matrices.GapPenalties` hot path).  In that mode
    the penalty matrices are skipped entirely and the forward loop uses
    plain Python floats -- the same values, so results are unchanged,
    with none of the padded-matrix fill cost.
    """

    def __init__(
        self,
        S_list: TSequence[np.ndarray],
        ks: TSequence[int],
        open_x: TSequence[np.ndarray],
        ext_x: TSequence[np.ndarray],
        open_y: TSequence[np.ndarray],
        ext_y: TSequence[np.ndarray],
        uniform: Optional[Tuple[float, float, float, float]] = None,
    ) -> None:
        K = len(ks)
        self.K = K
        self.ms = np.array([S_list[k].shape[0] for k in ks], dtype=np.int64)
        self.ns = np.array([S_list[k].shape[1] for k in ks], dtype=np.int64)
        mmax = int(self.ms.max())
        nmax = int(self.ns.max())
        self.mmax, self.nmax = mmax, nmax
        self.uniform = uniform

        # Pooled buffers: padded cells keep whatever bytes the pool held
        # before -- safe, because padded cells are never read (see the
        # module docstring), and zero-filling them is pure overhead.
        S_pm = _scratch.take("S_pm", (K, mmax, nmax))
        for t, k in enumerate(ks):
            m, n = S_list[k].shape
            S_pm[t, :m, :n] = S_list[k]
        self.S = _scratch.take("S", (mmax, nmax, K))
        np.copyto(self.S, S_pm.transpose(1, 2, 0))

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


def _forward_batch(batch: _PaddedBatch, tf: float):
    """Batched forward fill over the padded pair-minor stack.

    One Python-level loop of ``m_max`` iterations; every op inside works
    on an ``(n_max + 1, K)`` block.  Returns ``(last_rows, last_cols)``
    -- each pair's final DP row / final DP column, captured on the fly
    (``last_cols`` is None when ``terminal_factor == 1``, where the
    score is the final cell).  Floats live in O(K * n_max) swapped row
    buffers.
    """
    K, mmax, nmax = batch.K, batch.mmax, batch.nmax
    cum_x, cum_y = batch.cum_x, batch.cum_y
    S = batch.S
    uni = batch.uniform
    if uni is None:
        OX, EX, OY = batch.OX, batch.EX, batch.OY
        ox0 = OX[0]
        oy0 = OY[0]
        oy_first = OY[:1]
        oy_tail = OY[1:]
    else:
        # Uniform scalar penalties: same values as the padded matrices
        # would hold, so every op below produces identical floats with
        # no padded penalty matrices to fill.
        ox_s, ex_s, oy_s, _ey_s = uni
        ox0 = oy0 = oy_first = oy_tail = None

    track_cols = tf != 1.0
    rng = np.arange(K)
    h_prev = _scratch.take("h_prev", (nmax + 1, K))
    e_prev = _scratch.take("e_prev", (nmax + 1, K))
    h_row = _scratch.take("h_row", (nmax + 1, K))
    e_row = _scratch.take("e_row", (nmax + 1, K))
    last_rows = _scratch.take("last_rows", (nmax + 1, K))
    last_cols = (
        _scratch.take("last_cols", (mmax + 1, K)) if track_cols else None
    )

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
    else:
        bounds = -tf * (ox_s + cum_x)
        term0s = (bounds + cum_y[0]) - oy_s

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
        (h_prev[1:], h_prev[:-1], e_prev[1:], h_row, h_row[1:], e_row[1:]),
        (h_row[1:], h_row[:-1], e_row[1:], h_prev, h_prev[1:], e_prev[1:]),
    )
    for i in range(1, mmax + 1):
        ph1, ph0, pe1, ch, ch1, ev = parities[(i - 1) & 1]
        if uni is None:
            ox = OX[i - 1]
            ex = EX[i - 1]
        else:
            ox, ex = ox_s, ex_s
        ch[0] = bounds[i]
        # Vertical gap: reads only the previous row.
        np.subtract(ph1, ox, out=t1)
        np.maximum(pe1, t1, out=t1)
        np.subtract(t1, ex, out=ev)
        # Diagonal: previous row shifted.
        np.add(ph0, S[i - 1], out=dg)
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
        done = batch.by_m.get(i)
        if done is not None:
            last_rows[:, done] = ch[:, done]
        if simple_cols:
            last_cols[i] = ch[nmax]
        elif track_cols:
            last_cols[i] = ch[batch.ns, rng]

    return last_rows, last_cols


def _terminal_best_batch(
    batch: _PaddedBatch,
    last_rows: np.ndarray,
    last_cols: np.ndarray,
    tf: float,
) -> np.ndarray:
    """Vectorised :func:`repro.align.dp._terminal_best` score over the
    batch.

    Same candidate values from the same elementwise ops, same
    first-of-max argmax, same strict-inequality update order (final
    cell, then trailing vertical, then trailing horizontal) -- so each
    pair's score matches the scalar helper exactly.
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
    vc = trail[np.argmax(trail, axis=0), rng]
    best = np.where(vc > best, vc, best)
    # Trailing horizontal gap: end at (m, j), consume y_{j+1..n}.
    trail = last_rows[:nmax] - tf * (
        (open_y + cum_y[ns, rng]) - cum_y[:nmax]
    )
    np.copyto(trail, -np.inf, where=np.arange(nmax)[:, None] >= ns)
    vr = trail[np.argmax(trail, axis=0), rng]
    best = np.where(vr > best, vr, best)
    return best.astype(np.float64, copy=False)


def affine_score_batch(
    S_list: TSequence[np.ndarray],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
) -> np.ndarray:
    """Optimal global affine scores of K pair problems, one fused pass.

    Parameters mirror :func:`repro.align.dp.affine_score` with one
    batch-level twist: each penalty is either a scalar shared by every
    pair, or a sequence of K per-pair specs (scalar or per-position
    vector).  Returns a ``(K,)`` float64 array byte-identical to calling
    the scalar kernel per pair.  O(K * n_max) working memory on top of
    the stacked score matrices.
    """
    S_list = [np.ascontiguousarray(S, dtype=np.float64) for S in S_list]
    for S in S_list:
        if S.ndim != 2:
            raise ValueError("each pair-score matrix must be 2-D")
    ms = [S.shape[0] for S in S_list]
    ns = [S.shape[1] for S in S_list]
    oy_raw = gap_open if gap_open_y is None else gap_open_y
    ey_raw = gap_extend if gap_extend_y is None else gap_extend_y
    # All four penalty specs plain scalars (as with ``GapPenalties``):
    # the forward loop's cheaper-dispatch path, same values.
    uniform: Optional[Tuple[float, float, float, float]] = None
    if all(_is_scalar(v) for v in (gap_open, gap_extend, oy_raw, ey_raw)):
        uniform = (
            float(gap_open), float(gap_extend), float(oy_raw), float(ey_raw)
        )
    open_x = _normalise_penalties(gap_open, ms, "gap_open")
    ext_x = _normalise_penalties(gap_extend, ms, "gap_extend")
    open_y = _normalise_penalties(oy_raw, ns, "gap_open_y")
    ext_y = _normalise_penalties(ey_raw, ns, "gap_extend_y")
    tf = float(terminal_factor)

    out = np.empty(len(S_list), dtype=np.float64)
    live: List[int] = []
    for k, (m, n) in enumerate(zip(ms, ns)):
        if m == 0 or n == 0:
            out[k] = _degenerate(
                m, n, open_x[k], ext_x[k], open_y[k], ext_y[k], tf
            ).score
        else:
            live.append(k)
    if not live:
        return out

    shapes = [(ms[k], ns[k]) for k in live]
    for a, b in _chunk_bounds(shapes, DEFAULT_MAX_BATCH_CELLS):
        ks = live[a:b]
        batch = _PaddedBatch(
            S_list, ks, open_x, ext_x, open_y, ext_y, uniform=uniform
        )
        cells = int((batch.ms * batch.ns).sum())
        _BATCH_CALLS.inc()
        _BATCH_PAIRS.inc(len(ks))
        _BATCH_CELLS.inc(cells)
        with span("dp.batch", pairs=len(ks), cells=cells):
            last_rows, last_cols = _forward_batch(batch, tf)
            if tf != 1.0:
                out[ks] = _terminal_best_batch(batch, last_rows, last_cols, tf)
            else:
                out[ks] = last_rows[batch.ns, np.arange(len(ks))]
    return out
