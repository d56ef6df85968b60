"""Sum-of-pairs (SP) scoring of multiple alignments.

Two forms are provided:

- :func:`sp_score` -- linear-gap SP, fully vectorised over columns via the
  column-count identity ``sum_{i<j} s(r_i, r_j) = (c^T M c - sum_a c_a
  M_aa) / 2``; the objective Sample-Align-D reports after gluing and the
  one iterative refinement maximises (cheap enough to call in a loop).
  :func:`sp_score_counts` is the same computation from column counts,
  :func:`cross_sp_counts` the share of pairs between two disjoint row
  sets, and :func:`sp_is_exact` says when every term is an exact
  integer, so that score differences can stand in for rescoring
  (:mod:`repro.align.refine`).
- :func:`affine_sp_score` -- exact affine-gap SP: the sum over all induced
  pairwise alignments, each charged Gotoh gap costs (O(n_rows^2) per
  alignment, vectorised per pair).
"""

from __future__ import annotations

import numpy as np

from repro.seq.alignment import Alignment
from repro.seq.matrices import BLOSUM62, GapPenalties, SubstitutionMatrix

__all__ = [
    "sp_score",
    "sp_score_counts",
    "cell_pair_scores",
    "cross_sp_counts",
    "sp_is_exact",
    "affine_sp_score",
]


def sp_score(
    aln: Alignment,
    matrix: SubstitutionMatrix = BLOSUM62,
    gap_penalty: float = 1.0,
) -> float:
    """Linear-gap sum-of-pairs score of an alignment.

    Every residue pair in a column scores via ``matrix``; every
    residue-gap pair costs ``gap_penalty``; gap-gap pairs are free.
    """
    if aln.alphabet != matrix.alphabet:
        raise ValueError("alignment/matrix alphabet mismatch")
    return sp_score_counts(
        aln.column_counts(include_gap=True), aln.n_rows, matrix, gap_penalty
    )


def sp_score_counts(
    counts: np.ndarray,
    n_rows: int,
    matrix: SubstitutionMatrix = BLOSUM62,
    gap_penalty: float = 1.0,
) -> float:
    """:func:`sp_score` of the ``n_rows`` rows whose ``(n_cols, A+1)``
    column counts (last column: gaps) are ``counts`` -- the same float
    operations, so the same bits as scoring the alignment itself."""
    if n_rows < 2 or counts.shape[0] == 0:
        return 0.0
    counts = counts.astype(np.float64)
    res = counts[:, :-1]
    gaps = counts[:, -1]
    M = matrix.residue_part
    # Ordered pairs (incl. self) minus self pairs, halved -> unordered pairs.
    quad = np.einsum("la,ab,lb->l", res, M, res)
    self_pairs = res @ np.diag(M)
    pair_scores = 0.5 * (quad - self_pairs)
    gap_pairs = gaps * (n_rows - gaps)
    return float(pair_scores.sum() - gap_penalty * gap_pairs.sum())


def cell_pair_scores(
    matrix: SubstitutionMatrix = BLOSUM62, gap_penalty: float = 1.0
) -> np.ndarray:
    """The linear-SP score of one pair of alignment cells, by code.

    ``(A+1, A+1)``: residue pairs score by ``matrix``, a residue facing
    a gap ``-gap_penalty``, a gap facing a gap 0.
    """
    scores = matrix.matrix.copy()
    scores[:-1, -1] = scores[-1, :-1] = -gap_penalty
    return scores


def cross_sp_counts(
    counts_a: np.ndarray, counts_b: np.ndarray, pair_scores: np.ndarray
) -> float:
    """The part of the linear SP score made of pairs with one row in each
    of two disjoint row sets, from their column counts.

    ``counts_a`` / ``counts_b`` are ``(n_cols, A+1)`` code counts (last
    column: gaps) of the two sets over the same columns, and
    ``pair_scores`` is :func:`cell_pair_scores`: per column the sum is
    ``counts_a[c] @ pair_scores @ counts_b[c]``.  The form is bilinear,
    so rows stacked with negated ``counts_b`` subtract their share.
    """
    return float(((counts_a.astype(np.float64) @ pair_scores) * counts_b).sum())


def sp_is_exact(
    matrix: SubstitutionMatrix, gap_penalty: float, n_rows: int, n_cols: int
) -> bool:
    """Is every term of the linear SP score of an ``n_rows x n_cols``
    alignment an exact integer in float64, whatever order it is summed in?

    True when the residue scores are symmetric integers, the gap penalty
    is an integer, and ``n_rows**2 * n_cols * max(|M|, |gap_penalty|)``
    stays below ``2**52``: then :func:`sp_score` computes the exact
    integer score, and so does any sum of differences of such scores.
    """
    M = matrix.residue_part
    if not (
        np.all(np.mod(M, 1.0) == 0.0)
        and np.array_equal(M, M.T)
        and float(gap_penalty).is_integer()
    ):
        return False
    bound = max(int(np.abs(M).max(initial=0.0)), abs(int(gap_penalty)))
    return n_rows * n_rows * n_cols * bound < 2**52


def _pair_affine_score(
    rx: np.ndarray,
    ry: np.ndarray,
    gap_code: int,
    M: np.ndarray,
    gaps: GapPenalties,
) -> float:
    """Affine-gap score of the pairwise alignment induced by two MSA rows."""
    both = ~((rx == gap_code) & (ry == gap_code))
    rx = rx[both]
    ry = ry[both]
    if rx.size == 0:
        return 0.0
    gx = rx == gap_code
    gy = ry == gap_code
    match = ~gx & ~gy
    score = float(M[rx[match].astype(np.int64), ry[match].astype(np.int64)].sum())
    for g in (gx, gy):
        if not g.any():
            continue
        padded = np.concatenate(([False], g, [False]))
        delta = np.diff(padded.astype(np.int8))
        run_starts = np.flatnonzero(delta == 1)
        run_ends = np.flatnonzero(delta == -1)
        for s, e in zip(run_starts, run_ends):
            terminal = s == 0 or e == g.size
            score -= gaps.cost(int(e - s), terminal=terminal)
    return score


def affine_sp_score(
    aln: Alignment,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
) -> float:
    """Exact affine-gap sum-of-pairs score (sums induced pairwise scores).

    O(n_rows^2 * n_cols); intended for the modest alignments where exact
    affine bookkeeping matters (quality studies, refinement acceptance
    tests in ablations).
    """
    if aln.alphabet != matrix.alphabet:
        raise ValueError("alignment/matrix alphabet mismatch")
    n = aln.n_rows
    if n < 2 or aln.n_columns == 0:
        return 0.0
    gap_code = aln.alphabet.gap_code
    M = matrix.matrix  # (A+1, A+1); gap row/col zero, never indexed on match
    total = 0.0
    for i in range(n):
        ri = aln.matrix[i]
        for j in range(i + 1, n):
            total += _pair_affine_score(ri, aln.matrix[j], gap_code, M, gaps)
    return total
