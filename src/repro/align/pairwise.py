"""Pairwise sequence alignment wrappers over the shared DP kernel.

Global (Needleman-Wunsch/Gotoh) alignment is the workhorse of the CLUSTALW
baseline's distance stage and of quality metrics; local (Smith-Waterman)
alignment feeds the T-Coffee-like consistency library.

The ``full-dp`` distance stage does not come through here: it needs
only identity counts, which :func:`repro.align.dp.identity_code_pairs`
computes for a whole tile from residue codes and the substitution
table, bit for bit :meth:`PairwiseResult.identity` of
:func:`global_align` per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.align.dp import NEG, affine_align, affine_score
from repro.seq.alphabet import GAP_CHAR
from repro.seq.matrices import BLOSUM62, GapPenalties, SubstitutionMatrix
from repro.seq.sequence import Sequence

__all__ = [
    "PairwiseResult",
    "global_align",
    "global_score",
    "local_align",
    "pairwise_identity",
]


@dataclass
class PairwiseResult:
    """A pairwise alignment of two sequences.

    ``x_map``/``y_map`` hold, per alignment column, the residue index
    consumed from each sequence (``-1`` = gap), exactly as produced by
    :func:`repro.align.dp.affine_align`.
    """

    x: Sequence
    y: Sequence
    score: float
    x_map: np.ndarray
    y_map: np.ndarray

    @property
    def n_columns(self) -> int:
        return len(self.x_map)

    def gapped_texts(self) -> Tuple[str, str]:
        """The two aligned rows as gapped strings."""
        gx = "".join(
            self.x.residues[i] if i >= 0 else GAP_CHAR for i in self.x_map
        )
        gy = "".join(
            self.y.residues[j] if j >= 0 else GAP_CHAR for j in self.y_map
        )
        return gx, gy

    def matched_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Residue index pairs aligned to each other (no gaps)."""
        both = (self.x_map >= 0) & (self.y_map >= 0)
        return self.x_map[both], self.y_map[both]

    def identity(self) -> float:
        """Fraction of identical residues among matched pairs."""
        xi, yi = self.matched_pairs()
        if xi.size == 0:
            return 0.0
        xc = self.x.codes[xi]
        yc = self.y.codes[yi]
        return float(np.mean(xc == yc))


def _check_alphabets(x: Sequence, y: Sequence, matrix: SubstitutionMatrix) -> None:
    if x.alphabet != matrix.alphabet or y.alphabet != matrix.alphabet:
        raise ValueError(
            "sequence alphabets must match the substitution matrix alphabet"
        )


def global_align(
    x: Sequence,
    y: Sequence,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
) -> PairwiseResult:
    """Optimal global (Needleman-Wunsch/Gotoh) alignment of two sequences."""
    _check_alphabets(x, y, matrix)
    S = matrix.pair_scores(x.codes, y.codes)
    res = affine_align(
        S, gaps.open, gaps.extend, terminal_factor=gaps.terminal_factor
    )
    return PairwiseResult(x, y, res.score, res.x_map, res.y_map)


def global_score(
    x: Sequence,
    y: Sequence,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
) -> float:
    """Optimal global alignment score (no traceback, linear memory)."""
    _check_alphabets(x, y, matrix)
    S = matrix.pair_scores(x.codes, y.codes)
    return affine_score(
        S, gaps.open, gaps.extend, terminal_factor=gaps.terminal_factor
    )


def local_align(
    x: Sequence,
    y: Sequence,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
) -> PairwiseResult:
    """Best local (Smith-Waterman) alignment of two sequences.

    Uses the same exact row-vectorised scan as the global kernel with the
    additional "restart at 0" clamp.  Returns only residue-consuming
    columns (a local alignment has no terminal gaps by definition).
    """
    _check_alphabets(x, y, matrix)
    S = matrix.pair_scores(x.codes, y.codes).astype(np.float64)
    m, n = S.shape
    if m == 0 or n == 0:
        return PairwiseResult(
            x, y, 0.0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
    go, ge = gaps.open, gaps.extend

    H = np.zeros((m + 1, n + 1))
    E = np.full((m + 1, n + 1), NEG)
    F = np.full((m + 1, n + 1), NEG)
    cum = ge * np.arange(n + 1)
    for i in range(1, m + 1):
        e_row = np.maximum(E[i - 1, 1:], H[i - 1, 1:] - go) - ge
        h0 = np.maximum(H[i - 1, :-1] + S[i - 1], e_row)
        np.maximum(h0, 0.0, out=h0)
        term = np.empty(n)
        term[0] = H[i, 0] + cum[0] - go
        term[1:] = h0[:-1] + cum[1:-1] - go
        scan = np.maximum.accumulate(term)
        f_row = scan - cum[1:]
        E[i, 1:] = e_row
        F[i, 1:] = f_row
        H[i, 1:] = np.maximum(h0, f_row)

    flat = int(np.argmax(H))
    i, j = divmod(flat, n + 1)
    score = float(H[i, j])
    xs, ys = [], []
    state = "H"
    while i > 0 and j > 0 and not (state == "H" and H[i, j] <= 0.0):
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
            xs.append(i - 1)
            ys.append(-1)
            stay = E[i - 1, j] >= H[i - 1, j] - go
            i -= 1
            if not stay or i == 0:
                state = "H"
        else:
            xs.append(-1)
            ys.append(j - 1)
            stay = F[i, j - 1] >= H[i, j - 1] - go
            j -= 1
            if not stay or j == 0:
                state = "H"
    return PairwiseResult(
        x,
        y,
        score,
        np.array(xs[::-1], dtype=np.int64),
        np.array(ys[::-1], dtype=np.int64),
    )


def pairwise_identity(
    x: Sequence,
    y: Sequence,
    matrix: SubstitutionMatrix = BLOSUM62,
    gaps: GapPenalties = GapPenalties(),
) -> float:
    """Fractional identity of the optimal global alignment (CLUSTALW's
    full-DP distance measure is ``1 - identity``)."""
    return global_align(x, y, matrix, gaps).identity()
