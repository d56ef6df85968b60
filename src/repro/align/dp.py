"""The shared affine-gap dynamic-programming kernel (Gotoh).

One kernel serves every alignment in the system -- sequence-sequence,
profile-profile, and the ancestor tweak -- because all of them reduce to a
DP over a pre-computed pair-score matrix ``S`` with (possibly
position-specific) affine gap penalties.

Vectorisation strategy (hpc-parallel guide: vectorise inner loops, avoid
needless copies):

The classic Gotoh recurrences over rows ``i`` and columns ``j`` are::

    E[i,j] = max(E[i-1,j],  H[i-1,j] - open_x[i]) - ext_x[i]     (gap in Y)
    F[i,j] = max(F[i,j-1],  H[i,j-1] - open_y[j]) - ext_y[j]     (gap in X)
    H[i,j] = max(H[i-1,j-1] + S[i,j], E[i,j], F[i,j])

``E`` only reads the previous row, so it vectorises directly.  ``F`` has an
in-row dependency, but it admits an exact prefix-scan form: with cumulative
extension cost ``C[j] = sum_{t<=j} ext_y[t]``,

    F[j] = max_{k<j} ( H[i,k] + C[k] - open_y[k+1] ) - C[j]

and the maximum may be taken over ``H0 = max(diag, E)`` instead of the
final ``H`` because an ``F``-derived cell can never seed a better ``F``
(re-opening a gap from inside a gap costs an extra ``open >= 0``).  The
whole row therefore computes with one ``np.maximum.accumulate``.  This is
exact -- property-tested against a scalar reference implementation.

Terminal gaps are scaled by ``terminal_factor`` (1.0 = fully penalised
global alignment; 0.0 = free end gaps) via boundary initialisation plus a
final sweep over the last row/column.

Compiled kernel.  On merge-sized rows (80-250 doubles) the eleven
ufunc calls per row are dispatch cost, not arithmetic, and the python
around the fill -- the boundary vectors, the end-cell choice, the
per-cell traceback loop -- costs more than a compiled fill does.  So the
whole align-mode call also exists as one C function
(``_gotoh_rows.c``, built and loaded by :mod:`repro.align.ckernel`):
cumulative sums, row and column 0, the row loop, :func:`_terminal_best`
and :func:`_traceback`, per value the same IEEE operations in the same
order and per branch the same comparison, hence H, E, F, the score and
both maps bit for bit what the python path produces and every
alignment byte-identical.  It has three entries over one body: dense
scores (:func:`affine_align`: profile merges, the ancestor tweak,
refinement), scores read from a substitution table through residue
codes (:func:`align_code_pairs`: sequence pairs, never a per-pair
score matrix), and the same look-ups over a whole tile of pairs that
keeps only the matched and identical residue counts along each path
(:func:`identity_code_pairs`: the ``full-dp`` distance stage, one call
per tile, no maps and no python per pair).  The same library carries a
fourth entry that is not alignment -- the UPGMA / WPGMA / single-linkage
agglomeration of :mod:`repro.tree.builders` -- and a fifth that applies
a path: :func:`apply_path` lays two clades' code matrices out along a
merge path and sums their column counts in one integer pass (every
progressive merge, and :func:`repro.align.profile.merge_profiles`).  All
five are resolved, probed and fallen back from together.

Which path runs is decided once per process from what the host has
(:func:`kernel`): the compiled one when a C compiler and a private
cache directory exist and the loaded code reproduces the python path on
a probe of the values where platforms differ (signed zeros, NaN,
summation order: :func:`repro.align.ckernel._reproduces_numpy`);
otherwise :func:`_forward` -> :func:`_terminal_best` ->
:func:`_traceback`, with the reason on ``kernel().fallback``.  There
is no switch, and those three functions are also the reference every
test compares the compiled call against.  Every entry serves both
paths -- one alignment path per kernel, whoever the caller; under
``numpy`` the tile entry runs its pairs through
:func:`align_code_pairs` and counts along the maps, and
:func:`apply_path` fills the merged matrix by fancy indexing and
recounts it (:func:`_apply_numpy`, the oracle of the compiled one).  Argument
validation, the table pool, the single-pair entries' degenerate
(empty-side) pairs and the score-only mode are numpy/python on both
paths.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence as TSequence,
    Tuple,
)

import numpy as np

from repro.align import ckernel
from repro.align.tablepool import TablePool
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span
from repro.parcomp.comm import run_token_parked
from repro.seq.alignment import code_counts

__all__ = [
    "AffineDPResult",
    "DPKernel",
    "affine_align",
    "affine_score",
    "align_code_pairs",
    "apply_path",
    "identity_code_pairs",
    "kernel",
    "NEG",
]

#: Effectively minus infinity for the DP (finite so arithmetic stays clean).
NEG = -1.0e30

# Kernel call/cell counters, resolved once: the DP is the system's hot
# path, so per-call cost must stay at two lock-guarded integer adds.
_ALIGN_CALLS = _obs_registry().counter("dp.align_calls")
_ALIGN_CELLS = _obs_registry().counter("dp.align_cells")
_SCORE_CALLS = _obs_registry().counter("dp.score_calls")
_SCORE_CELLS = _obs_registry().counter("dp.score_cells")
_APPLY_CALLS = _obs_registry().counter("dp.apply_calls")
# Processes (this one, and pool workers via their metric deltas) that
# resolved to the numpy loop because the compiled kernel was unusable.
_KERNEL_FALLBACKS = _obs_registry().counter("dp.kernel_fallbacks")


_tables = TablePool()


@dataclass
class AffineDPResult:
    """Outcome of a global affine alignment.

    Attributes
    ----------
    score:
        Optimal alignment score.
    x_map, y_map:
        Arrays of equal length (one entry per alignment column): the 0-based
        row/column index consumed at that column, or ``-1`` for a gap.
    """

    score: float
    x_map: np.ndarray
    y_map: np.ndarray

    @property
    def n_columns(self) -> int:
        return len(self.x_map)


def _as_vec(value, length: int, name: str) -> np.ndarray:
    """Broadcast a scalar penalty to a per-position vector (C-contiguous
    native float64 whatever the caller's strides or byte order)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(length, float(arr))
    if arr.shape != (length,):
        raise ValueError(f"{name} must be scalar or length {length}")
    return np.ascontiguousarray(arr)


class DPKernel(NamedTuple):
    """Which align-mode path this process runs (see :func:`kernel`).

    ``name`` is ``"c"`` or ``"numpy"``; ``fallback`` is ``None`` under
    ``"c"`` and otherwise why the compiled kernel is not in use
    (``no_compiler`` / ``cache_unwritable`` / ``build_failed`` /
    ``load_failed`` from :func:`repro.align.ckernel.load`, or
    ``check_failed`` when it loaded but did not reproduce the python
    path's bytes on this host); ``align`` / ``align_codes`` /
    ``identity_codes`` are the three loaded alignment entries (dense
    scores / table + residue codes / a tile of coded pairs to identity
    counts), ``agglomerate`` the guide-tree loop that
    :mod:`repro.tree.builders` runs for UPGMA, WPGMA and single linkage,
    and ``apply`` the merge of two clades along a path
    (:func:`apply_path`).
    """

    name: str
    fallback: Optional[str] = None
    align: Optional[Callable[..., int]] = None
    align_codes: Optional[Callable[..., int]] = None
    identity_codes: Optional[Callable[..., None]] = None
    agglomerate: Optional[Callable[..., None]] = None
    apply: Optional[Callable[..., int]] = None

    def describe(self) -> dict:
        """The entries ``/metrics`` and ``repro trace`` show."""
        out = {"dp.kernel": self.name}
        if self.fallback is not None:
            out["dp.kernel_fallback"] = self.fallback
        return out


_kernel: Optional[DPKernel] = None  # resolved on first use; tests monkeypatch
_kernel_lock = threading.Lock()


def kernel() -> DPKernel:
    """The kernel in use, resolved on first call and then fixed for the
    life of the process (a cached build costs one ``cc --version`` and
    one ``dlopen``; an empty cache, one compile of 484 lines)."""
    global _kernel
    if _kernel is None:
        # Resolved outside the lock (threads racing here each resolve;
        # the build is atomic and idempotent) so that a pool forked
        # meanwhile never inherits a lock held across a compile.  Rank
        # threads of one ``threads`` run do not race: nothing here
        # parks their run token.  Its own span, so the first request's
        # load is not unnamed time.
        with span("dp.kernel_load") as load_span:
            entries, reason = ckernel.load()
            if entries is not None and not ckernel._reproduces_numpy(
                *entries
            ):
                entries, reason = None, "check_failed"
            load_span.set(kernel="numpy" if entries is None else "c")
        with _kernel_lock:
            if _kernel is None:
                if entries is None:
                    _KERNEL_FALLBACKS.inc()
                    _kernel = DPKernel("numpy", reason)
                else:
                    _kernel = DPKernel("c", None, *entries)
    return _kernel


def _ptr(arr: np.ndarray, size: int, dtype=np.float64) -> int:
    """Address of ``arr`` for the C kernel, after checking it is the
    ``size`` C-contiguous native ``dtype`` items the kernel will index."""
    if not (
        arr.flags.c_contiguous and arr.dtype == dtype and arr.size == size
    ):
        raise ValueError(
            f"compiled DP kernel needs {size} C-contiguous native "
            f"{np.dtype(dtype).name} items; "
            f"got dtype={arr.dtype}, shape={arr.shape}, strides={arr.strides}"
        )
    return arr.ctypes.data


def _forward(
    S: np.ndarray,
    open_x: np.ndarray,
    ext_x: np.ndarray,
    open_y: np.ndarray,
    ext_y: np.ndarray,
    tf: float,
    keep_matrices: bool,
):
    """Fill the DP tables.  Returns (H, E, F) full matrices when
    ``keep_matrices`` else the final row *and* final column of H
    (score-only mode stays O(n) memory even with scaled terminal gaps)."""
    m, n = S.shape
    cum_x = np.concatenate(([0.0], np.cumsum(ext_x)))  # C_x[i], i=0..m
    cum_y = np.concatenate(([0.0], np.cumsum(ext_y)))  # C_y[j], j=0..n

    if keep_matrices:
        H = _tables.take("H", (m + 1, n + 1))
        E = _tables.take("E", (m + 1, n + 1))
        F = _tables.take("F", (m + 1, n + 1))
        h_col = None
    else:
        H = E = F = None
        h_col = np.empty(m + 1)  # H[:, n], tracked incrementally

    # Row 0: leading horizontal gap (consuming Y), scaled by tf.
    h_prev = np.empty(n + 1)
    h_prev[0] = 0.0
    if n:
        h_prev[1:] = -tf * (open_y[0] + cum_y[1:])
    e_prev = np.full(n + 1, NEG)
    if keep_matrices:
        H[0] = h_prev
        E[0] = e_prev
        F[0, 0] = NEG
        F[0, 1:] = h_prev[1:]
        h_prev = H[0]
        e_prev = E[0]
    else:
        h_col[0] = h_prev[n]

    open_k = np.empty(n)  # open_y at first consumed column k+1, k = 0..n-1
    if n:
        open_k[:] = open_y

    # Loop-invariant boundary values, hoisted out of the row loop: the
    # same elementwise ops the loop used to apply one scalar at a time,
    # so every value is bit-identical.
    bounds = -tf * (open_x[0] + cum_x)  # H[i, 0] == E[i, 0]
    if n:
        term0s = (bounds + cum_y[0]) - open_k[0]
        cy_mid = cum_y[1:-1]
        cy1 = cum_y[1:]
        ok_tail = open_k[1:]

    # Preallocated row scratch, written via ``out=`` so the row loop
    # allocates nothing (the old per-row temporaries dominated dispatch
    # cost on short rows).  In matrix mode the E/F/H rows are computed
    # directly in their table slots and ``h_prev``/``e_prev`` become
    # views of the previous table row -- same values, no row copies.
    t1 = np.empty(n)
    dg = np.empty(n)
    h0 = np.empty(n)
    term = np.empty(n)
    scan = np.empty(n)
    h_row = None if keep_matrices else np.empty(n + 1)
    e_row = None if keep_matrices else np.empty(n + 1)
    f_tail = None if keep_matrices else np.empty(n)
    for i in range(1, m + 1):
        ox, ex = open_x[i - 1], ext_x[i - 1]
        if keep_matrices:
            h_row, e_row = H[i], E[i]
            f_row1 = F[i, 1:]
            F[i, 0] = NEG
        else:
            f_row1 = f_tail
        h_row[0] = bounds[i]
        e_row[0] = bounds[i]
        if n:
            ev = e_row[1:]
            # Vertical gap: reads only the previous row.
            np.subtract(h_prev[1:], ox, out=t1)
            np.maximum(e_prev[1:], t1, out=ev)
            np.subtract(ev, ex, out=ev)
            # Diagonal: previous row shifted.
            np.add(h_prev[:-1], S[i - 1], out=dg)
            np.maximum(dg, ev, out=h0)
            # Horizontal gap via the exact prefix scan (see module docstring).
            term[0] = term0s[i]
            tv = term[1:]
            np.add(h0[:-1], cy_mid, out=tv)
            np.subtract(tv, ok_tail, out=tv)
            np.maximum.accumulate(term, out=scan)
            np.subtract(scan, cy1, out=f_row1)
            np.maximum(h0, f_row1, out=h_row[1:])
        if keep_matrices:
            h_prev, e_prev = h_row, e_row
        else:
            h_col[i] = h_row[n]
            h_prev, h_row = h_row, h_prev
            e_prev, e_row = e_row, e_prev
    # After the swap (or final view), h_prev holds the final row.
    if keep_matrices:
        return H, E, F, cum_x, cum_y
    return h_prev.copy(), h_col, cum_x, cum_y


def _terminal_best(
    H_last_col: np.ndarray,
    H_last_row: np.ndarray,
    open_x: np.ndarray,
    open_y: np.ndarray,
    cum_x: np.ndarray,
    cum_y: np.ndarray,
    tf: float,
) -> Tuple[float, int, int]:
    """Best end cell accounting for scaled trailing gaps.

    Returns ``(score, i_end, j_end)`` where the optimal alignment matches
    up to cell (i_end, j_end) and the remaining suffix is one trailing gap.
    """
    m = len(H_last_col) - 1
    n = len(H_last_row) - 1
    best = H_last_row[n]  # == H[m, n]
    bi, bj = m, n
    if m:  # end at (i, n), trailing vertical gap consuming x_{i+1..m}
        trail = H_last_col[:m] - tf * (open_x + cum_x[m] - cum_x[:m])
        i = int(np.argmax(trail))
        if trail[i] > best:
            best, bi, bj = float(trail[i]), i, n
    if n:  # end at (m, j), trailing horizontal gap consuming y_{j+1..n}
        trail = H_last_row[:n] - tf * (open_y + cum_y[n] - cum_y[:n])
        j = int(np.argmax(trail))
        if trail[j] > best:
            best, bi, bj = float(trail[j]), m, j
    return float(best), bi, bj


def affine_score(
    S: np.ndarray,
    gap_open,
    gap_extend,
    gap_open_y=None,
    gap_extend_y=None,
    terminal_factor: float = 1.0,
) -> float:
    """Optimal global affine alignment score (no traceback, O(n) memory).

    ``S`` is the ``(m, n)`` pair-score matrix.  ``gap_open``/``gap_extend``
    apply to gaps consuming X (may be per-row vectors); the ``_y`` variants
    (default: same scalars) apply to gaps consuming Y (per-column vectors).
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    m, n = S.shape
    _SCORE_CALLS.inc()
    _SCORE_CELLS.inc(m * n)
    open_x = _as_vec(gap_open, m, "gap_open")
    ext_x = _as_vec(gap_extend, m, "gap_extend")
    open_y = _as_vec(gap_open if gap_open_y is None else gap_open_y, n, "gap_open_y")
    ext_y = _as_vec(
        gap_extend if gap_extend_y is None else gap_extend_y, n, "gap_extend_y"
    )
    if m == 0 or n == 0:
        tf = terminal_factor
        if m == 0 and n == 0:
            return 0.0
        if m == 0:
            return -tf * (open_y[0] + ext_y.sum()) if n else 0.0
        return -tf * (open_x[0] + ext_x.sum())
    h_last, h_col, cum_x, cum_y = _forward(
        S, open_x, ext_x, open_y, ext_y, terminal_factor, keep_matrices=False
    )
    if terminal_factor == 1.0:
        return float(h_last[n])
    # Scaled trailing gaps need the last column too; it is tracked
    # incrementally during the same O(n)-memory pass.
    score, _i, _j = _terminal_best(
        h_col, h_last, open_x, open_y, cum_x, cum_y, terminal_factor
    )
    return score


def _degenerate(
    m: int,
    n: int,
    open_x: np.ndarray,
    ext_x: np.ndarray,
    open_y: np.ndarray,
    ext_y: np.ndarray,
    tf: float,
) -> AffineDPResult:
    """The alignment when one side is empty: a single gap."""
    x_map = np.concatenate([np.arange(m), np.full(n, -1, dtype=np.int64)])
    y_map = np.concatenate([np.full(m, -1, dtype=np.int64), np.arange(n)])
    score = 0.0
    if m:
        score = -tf * (open_x[0] + ext_x.sum())
    elif n:
        score = -tf * (open_y[0] + ext_y.sum())
    return AffineDPResult(float(score), x_map, y_map)


def _align_numpy(
    S: np.ndarray,
    open_x: np.ndarray,
    ext_x: np.ndarray,
    open_y: np.ndarray,
    ext_y: np.ndarray,
    tf: float,
):
    """One alignment on the python path: ``(score, x_map, y_map,
    (H, E, F, cum_x, cum_y))``, the tables pooled."""
    m, n = S.shape
    H, E, F, cum_x, cum_y = _forward(
        S, open_x, ext_x, open_y, ext_y, tf, keep_matrices=True
    )
    score, i, j = _terminal_best(
        H[:, n], H[m, :], open_x, open_y, cum_x, cum_y, tf
    )
    x_map, y_map = _traceback(H, E, F, S, open_x, open_y, i, j, m, n)
    return score, x_map, y_map, (H, E, F, cum_x, cum_y)


def _align_compiled(
    entry: Callable[..., int],
    scores: Tuple[int, ...],
    m: int,
    n: int,
    open_x: np.ndarray,
    ext_x: np.ndarray,
    open_y: np.ndarray,
    ext_y: np.ndarray,
    tf: float,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """One alignment in one compiled call: ``(score, x_map, y_map)``, and
    the tables it filled in the pool (:func:`_pooled_tables`).

    ``entry`` is :attr:`DPKernel.align` with ``scores = (S,)`` or
    :attr:`DPKernel.align_codes` with ``scores = (table, width, x_codes,
    y_codes)``, addresses already checked by :func:`_ptr`; ``m, n >= 1``.
    The four penalty vectors are copied into one pooled buffer, so every
    other address the call takes is a pooled one.
    """
    address = _tables.address
    cells = (m + 1) * (n + 1)
    pen = _tables.take("penalties", (2 * (m + n),))
    pen[:m] = open_x
    pen[m:2 * m] = ext_x
    pen[2 * m:2 * m + n] = open_y
    pen[2 * m + n:] = ext_y
    pen_at = address("penalties", 2 * (m + n))
    xs = _tables.take("xs", (m + n,), np.int64)
    ys = _tables.take("ys", (m + n,), np.int64)
    score = ctypes.c_double()
    length = entry(
        m, n, *scores,
        pen_at, pen_at + 8 * m, pen_at + 16 * m, pen_at + 16 * m + 8 * n, tf,
        address("H", cells), address("E", cells), address("F", cells),
        address("cum_x", m + 1), address("cum_y", n + 1),
        address("xs", m + n, np.int64), address("ys", m + n, np.int64),
        ctypes.byref(score),
    )
    # The kernel writes the path end first, into pooled memory.
    return score.value, xs[:length][::-1].copy(), ys[:length][::-1].copy()


def _pooled_tables(m: int, n: int) -> tuple:
    """``(H, E, F, cum_x, cum_y)`` as the last compiled ``(m, n)`` call
    left them in this thread's pool."""
    return (
        _tables.take("H", (m + 1, n + 1)), _tables.take("E", (m + 1, n + 1)),
        _tables.take("F", (m + 1, n + 1)), _tables.take("cum_x", (m + 1,)),
        _tables.take("cum_y", (n + 1,)),
    )


def affine_align(
    S: np.ndarray,
    gap_open,
    gap_extend,
    gap_open_y=None,
    gap_extend_y=None,
    terminal_factor: float = 1.0,
) -> AffineDPResult:
    """Optimal global affine alignment with traceback.

    See :func:`affine_score` for parameter semantics.  The returned maps
    define one alignment achieving the optimal score; ties break
    deterministically (diagonal > vertical > horizontal).
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    m, n = S.shape
    _ALIGN_CALLS.inc()
    _ALIGN_CELLS.inc(m * n)
    open_x = _as_vec(gap_open, m, "gap_open")
    ext_x = _as_vec(gap_extend, m, "gap_extend")
    open_y = _as_vec(gap_open if gap_open_y is None else gap_open_y, n, "gap_open_y")
    ext_y = _as_vec(
        gap_extend if gap_extend_y is None else gap_extend_y, n, "gap_extend_y"
    )
    penalties = (open_x, ext_x, open_y, ext_y, float(terminal_factor))

    if m == 0 or n == 0:
        return _degenerate(m, n, *penalties)

    kern = kernel()
    with span("dp.align", m=m, n=n, kernel=kern.name):
        if kern.align is not None:
            score, x_map, y_map = _align_compiled(
                kern.align, (_ptr(S, m * n),), m, n, *penalties
            )
        else:
            score, x_map, y_map, _ = _align_numpy(S, *penalties)
    return AffineDPResult(score, x_map, y_map)


def align_code_pairs(
    table: np.ndarray,
    code_pairs: TSequence[Tuple[np.ndarray, np.ndarray]],
    gap_open: float,
    gap_extend: float,
    terminal_factor: float = 1.0,
) -> List[AffineDPResult]:
    """Global alignments of sequence pairs, one alignment call per pair.

    Pair ``k`` is ``(x_codes, y_codes)`` and is scored by
    ``table[x_codes][:, y_codes]``.  Each result is byte-identical to
    :func:`affine_align` on that matrix, on either path: under ``c`` the
    compiled call reads ``table`` through the codes and the matrix is
    never built; under ``numpy`` each pair takes its matrix from the
    table and runs :func:`_align_numpy`.

    Every code of every pair is checked against the table before any
    pair is aligned (``IndexError``), whether or not the other side of
    its pair is empty; an empty side never reaches either path.  One
    ``dp.pairs`` span (``kernel=`` the path) covers the call;
    ``dp.align_calls`` / ``dp.align_cells`` count its pairs and cells.
    """
    kern = kernel()
    table = _code_table(table)
    sides = ([np.asarray(x) for x, _y in code_pairs],
             [np.asarray(y) for _x, y in code_pairs])
    for codes, size in zip(sides, table.shape):
        _check_codes(np.concatenate(codes) if codes else np.zeros(0), size)
    pairs = [
        (np.ascontiguousarray(x, dtype=np.uint8),
         np.ascontiguousarray(y, dtype=np.uint8))
        for x, y in zip(*sides)
    ]
    cells = sum(len(x) * len(y) for x, y in pairs)
    _ALIGN_CALLS.inc(len(pairs))
    _ALIGN_CELLS.inc(cells)
    tf = float(terminal_factor)
    # One penalty vector per kind, as long as the longest sequence; a
    # pair passes the leading slice it needs.
    longest = max((max(len(x), len(y)) for x, y in pairs), default=0)
    opens = np.full(longest, float(gap_open))
    exts = np.full(longest, float(gap_extend))
    table_ptr, width = _ptr(table, table.size), table.shape[1]
    results: List[AffineDPResult] = []
    with span("dp.pairs", pairs=len(pairs), cells=cells, kernel=kern.name):
        for x, y in pairs:
            m, n = len(x), len(y)
            penalties = (opens[:m], exts[:m], opens[:n], exts[:n], tf)
            if m == 0 or n == 0:
                results.append(_degenerate(m, n, *penalties))
                continue
            if kern.align_codes is not None:
                score, x_map, y_map = _align_compiled(
                    kern.align_codes,
                    (table_ptr, width,
                     _ptr(x, m, np.uint8), _ptr(y, n, np.uint8)),
                    m, n, *penalties,
                )
            else:
                score, x_map, y_map, _ = _align_numpy(
                    table.take(x, 0).take(y, 1), *penalties
                )
            results.append(AffineDPResult(score, x_map, y_map))
    return results


def _code_table(table) -> np.ndarray:
    """``table`` as the C-contiguous float64 matrix uint8 codes index."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.ndim != 2 or max(table.shape) > 256:
        raise ValueError(
            "the substitution table must be 2-D and at most 256 x 256 "
            f"(residue codes are uint8); got shape {table.shape}"
        )
    return table


def _check_codes(codes: np.ndarray, size: int) -> None:
    """``IndexError`` unless every code indexes a table axis of ``size``."""
    if codes.size and not (0 <= int(codes.min()) and int(codes.max()) < size):
        raise IndexError(
            f"residue code out of bounds for a substitution "
            f"table axis of size {size}"
        )


def _path_counts(x, y, x_map, y_map) -> List[int]:
    """``[matched, identical]`` along one alignment: columns with a
    residue on both sides, and those whose two codes are equal."""
    both = (x_map >= 0) & (y_map >= 0)
    return [int(both.sum()), int((x[x_map[both]] == y[y_map[both]]).sum())]


def _identity_compiled(
    entry: Callable[..., None],
    table: np.ndarray,
    codes: np.ndarray,
    offsets: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    opens: np.ndarray,
    exts: np.ndarray,
    tf: float,
) -> np.ndarray:
    """One tile in one compiled call: ``(len(ii), 2)`` int64 counts.

    ``entry`` is :attr:`DPKernel.identity_codes`, or a wrapper of it
    (:func:`identity_code_pairs` parks the run token around the call;
    the kernel probe calls the raw entry, so a ``threads`` rank still
    resolving :func:`kernel` keeps the token and no other rank starts a
    resolution of its own).  The codes are checked against the table
    and the indices against the offsets; ``opens`` / ``exts`` cover the
    longest sequence of the tile.  The pooled tables are sized for its
    largest pair.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    ii = np.ascontiguousarray(ii, dtype=np.int64)
    jj = np.ascontiguousarray(jj, dtype=np.int64)
    lens = np.diff(offsets)
    m, n = lens[ii], lens[jj]
    cells = int(((m + 1) * (n + 1)).max(initial=1))
    longest = int(max(m.max(initial=0), n.max(initial=0)))
    path = int((m + n).max(initial=0))
    pairs = len(ii)
    H = _tables.take("H", (cells,))
    E = _tables.take("E", (cells,))
    F = _tables.take("F", (cells,))
    cum_x = _tables.take("cum_x", (longest + 1,))
    cum_y = _tables.take("cum_y", (longest + 1,))
    xs = _tables.take("xs", (path,), np.int64)
    ys = _tables.take("ys", (path,), np.int64)
    counts = np.empty((pairs, 2), dtype=np.int64)
    args = (
        pairs, _ptr(ii, pairs, np.int64), _ptr(jj, pairs, np.int64),
        _ptr(codes, codes.size, np.uint8),
        _ptr(offsets, offsets.size, np.int64),
        _ptr(table, table.size), table.shape[1],
        _ptr(opens, opens.size), _ptr(exts, exts.size), tf,
        _ptr(H, cells), _ptr(E, cells), _ptr(F, cells),
        _ptr(cum_x, longest + 1), _ptr(cum_y, longest + 1),
        _ptr(xs, path, np.int64), _ptr(ys, path, np.int64),
        _ptr(counts, 2 * pairs, np.int64),
    )
    entry(*args)
    return counts


def identity_code_pairs(
    table: np.ndarray,
    codes: np.ndarray,
    offsets: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    gap_open: float,
    gap_extend: float,
    terminal_factor: float = 1.0,
) -> np.ndarray:
    """Matched and identical residue counts of a tile of global
    alignments: ``(len(ii), 2)`` int64, row ``p`` being
    ``(matched, identical)`` along the alignment of sequence ``ii[p]``
    with sequence ``jj[p]``.

    Sequence ``s`` is ``codes[offsets[s]:offsets[s + 1]]``; pairs are
    scored by ``table`` as :func:`align_code_pairs` scores them, and each
    row equals the counts along that entry's maps: *matched* columns
    hold a residue on both sides, *identical* ones two equal codes.  A
    pair with an empty side counts ``(0, 0)``.  Under ``c`` the whole
    tile is one compiled call that returns no maps; under ``numpy`` it is
    :func:`align_code_pairs` and a count along each pair's maps.

    Every code (of every sequence, in the tile or not) is checked against
    both table axes, and every index against ``offsets``, before any pair
    is aligned.  One ``dp.pairs`` span (``kernel=`` the path) covers the
    call; ``dp.align_calls`` / ``dp.align_cells`` count its pairs and
    cells.
    """
    kern = kernel()
    table = _code_table(table)
    codes = np.asarray(codes)
    offsets = np.asarray(offsets, dtype=np.int64)
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    _check_codes(codes, min(table.shape))
    lens = np.diff(offsets)
    if offsets.ndim != 1 or offsets[0] != 0 or offsets[-1] != codes.size or (
        lens.min(initial=0) < 0
    ):
        raise ValueError(
            "offsets must start at 0, never decrease and end at len(codes)"
        )
    for idx in (ii, jj):
        if idx.size and not (0 <= idx.min() and idx.max() < lens.size):
            raise IndexError(f"sequence index out of bounds for {lens.size}")
    tf = float(terminal_factor)
    if kern.identity_codes is None:
        seqs = np.split(codes, offsets[1:-1])
        results = align_code_pairs(
            table, [(seqs[a], seqs[b]) for a, b in zip(ii, jj)],
            gap_open, gap_extend, tf,
        )
        counts = np.zeros((len(ii), 2), dtype=np.int64)
        for p, (a, b, res) in enumerate(zip(ii, jj, results)):
            counts[p] = _path_counts(seqs[a], seqs[b], res.x_map, res.y_map)
        return counts
    cells = int((lens[ii] * lens[jj]).sum())
    _ALIGN_CALLS.inc(len(ii))
    _ALIGN_CELLS.inc(cells)
    longest = int(lens.max(initial=0))
    opens = np.full(longest, float(gap_open))
    exts = np.full(longest, float(gap_extend))

    def parked(*args) -> None:
        # The call drops the interpreter lock and touches no Python
        # object, so a ``threads`` rank lets the next rank run meanwhile.
        with run_token_parked():
            kern.identity_codes(*args)

    with span("dp.pairs", pairs=len(ii), cells=cells, kernel=kern.name):
        return _identity_compiled(
            parked, table, codes, offsets, ii, jj, opens, exts, tf
        )


_NOT_A_MERGE = (
    "DP path does not consume each side's columns exactly once and in "
    "order, or has a column that is a gap on both sides"
)


def _apply_numpy(
    x_codes: np.ndarray,
    x_counts: np.ndarray,
    y_codes: np.ndarray,
    y_counts: np.ndarray,
    x_map: np.ndarray,
    y_map: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`apply_path` on the python path: the merged matrix by fancy
    indexing, its counts recounted from it."""
    x_cols, y_cols = x_map >= 0, y_map >= 0
    if not (
        (x_cols | y_cols).all()
        and np.array_equal(x_map[x_cols], np.arange(x_counts.shape[0]))
        and np.array_equal(y_map[y_cols], np.arange(y_counts.shape[0]))
    ):
        raise ValueError(_NOT_A_MERGE)
    width = x_counts.shape[1]
    nx = x_codes.shape[0]
    codes = np.full(
        (nx + y_codes.shape[0], len(x_map)), width - 1, dtype=np.uint8
    )
    codes[:nx, x_cols] = x_codes
    codes[nx:, y_cols] = y_codes
    return codes, code_counts(codes, width)


def _apply_compiled(
    entry: Callable[..., int],
    x_codes: np.ndarray,
    x_counts: np.ndarray,
    y_codes: np.ndarray,
    y_counts: np.ndarray,
    x_map: np.ndarray,
    y_map: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`apply_path` in one compiled call (:attr:`DPKernel.apply`)."""
    (nx, mx), (ny, my) = x_codes.shape, y_codes.shape
    length, width = len(x_map), x_counts.shape[1]
    codes = np.empty((nx + ny, length), dtype=np.uint8)
    counts = np.empty((length, width), dtype=np.int64)
    status = entry(
        length, _ptr(x_map, length, np.int64), _ptr(y_map, length, np.int64),
        nx, mx, _ptr(x_codes, nx * mx, np.uint8),
        _ptr(x_counts, mx * width, np.int64),
        ny, my, _ptr(y_codes, ny * my, np.uint8),
        _ptr(y_counts, my * width, np.int64),
        width, _ptr(codes, codes.size, np.uint8),
        _ptr(counts, counts.size, np.int64),
    )
    if status:
        raise ValueError(_NOT_A_MERGE)
    return codes, counts


def apply_path(
    x_codes: np.ndarray,
    x_counts: np.ndarray,
    y_codes: np.ndarray,
    y_counts: np.ndarray,
    x_map,
    y_map,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two clades along a DP path: ``(codes, counts)``.

    A side is its ``(rows, cols)`` uint8 code matrix and its
    ``(cols, width)`` int64 column counts, whose last column counts gaps
    (the gap code is ``width - 1``, as for
    :meth:`~repro.seq.alignment.Alignment.column_counts`).  ``x_map`` /
    ``y_map`` are a path as :func:`affine_align` returns it: per output
    column, the side's column consumed there or ``-1`` for a gap.  The
    result is the ``(x rows + y rows, len(path))`` matrix, x's rows
    first, and its column counts -- the two sides' counts summed, exact
    integers either way.

    ``ValueError`` unless the path is a merge: each side's non-gap
    entries must be ``0, 1, ...`` in order and use up its columns, and
    no column may be a gap on both sides.  Under ``c`` this is one
    compiled call that writes nothing for a refused path; under
    ``numpy`` it is :func:`_apply_numpy`.  ``dp.apply_calls`` counts the
    calls.
    """
    x_map = np.ascontiguousarray(x_map, dtype=np.int64)
    y_map = np.ascontiguousarray(y_map, dtype=np.int64)
    if x_map.ndim != 1 or x_map.shape != y_map.shape:
        raise ValueError("x_map and y_map must have equal length")
    x_codes = np.ascontiguousarray(x_codes, dtype=np.uint8)
    y_codes = np.ascontiguousarray(y_codes, dtype=np.uint8)
    x_counts = np.ascontiguousarray(x_counts, dtype=np.int64)
    y_counts = np.ascontiguousarray(y_counts, dtype=np.int64)
    width = x_counts.shape[1]
    if not (
        x_counts.shape == (x_codes.shape[1], width)
        and y_counts.shape == (y_codes.shape[1], width)
        and 1 <= width <= 256
    ):
        raise ValueError(
            "each side needs (cols, width) counts for its (rows, cols) "
            "codes, one width of at most 256 for both"
        )
    _APPLY_CALLS.inc()
    entry = kernel().apply
    if entry is None:
        return _apply_numpy(x_codes, x_counts, y_codes, y_counts, x_map, y_map)
    return _apply_compiled(
        entry, x_codes, x_counts, y_codes, y_counts, x_map, y_map
    )


def _traceback(
    H: np.ndarray,
    E: np.ndarray,
    F: np.ndarray,
    S: np.ndarray,
    open_x: np.ndarray,
    open_y: np.ndarray,
    i: int,
    j: int,
    m: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover one optimal path from filled tables, starting the matched
    region at ``(i, j)`` (the :func:`_terminal_best` end cell).

    Ties break deterministically (diagonal > vertical > horizontal).  The
    tables are the pooled ``(m+1, n+1)`` ones :func:`_forward` filled;
    the compiled call walks the same comparisons over its own.
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

    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            diag = H[i - 1, j - 1] + S[i - 1, j - 1]
            e, f = E[i, j], F[i, j]
            if diag >= e and diag >= f:
                xs.append(i - 1)
                ys.append(j - 1)
                i -= 1
                j -= 1
            elif e >= f:
                state = "E"
            else:
                state = "F"
        elif state == "E":
            # Consumed x_i against a gap; predecessor is E (extend) or H (open).
            xs.append(i - 1)
            ys.append(-1)
            stay = E[i - 1, j] >= H[i - 1, j] - open_x[i - 1]
            i -= 1
            if not stay or i == 0:
                state = "H"
        else:  # state == "F"
            xs.append(-1)
            ys.append(j - 1)
            stay = F[i, j - 1] >= H[i, j - 1] - open_y[j - 1]
            j -= 1
            if not stay or j == 0:
                state = "H"
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
