"""Substitution matrices and affine gap penalties.

The DP kernels score residue pairs through a :class:`SubstitutionMatrix`
bound to an alphabet; profile kernels consume the dense ``matrix`` array
directly (one matmul per profile pair).  BLOSUM62 (the MUSCLE/PSI-BLAST
default) and PAM250 (the CLUSTALW classic) are bundled with standard
integer scores; identity and simple-DNA matrices support tests and the
nucleotide paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence as TSequence

import numpy as np

from repro.seq.alphabet import Alphabet, DNA, PROTEIN

__all__ = [
    "SubstitutionMatrix",
    "GapPenalties",
    "BLOSUM62",
    "PAM250",
    "IDENTITY",
    "DNA_SIMPLE",
    "get_matrix",
]


@dataclass(frozen=True)
class GapPenalties:
    """Affine gap model: a gap of length ``g`` costs ``open + g * extend``.

    Both values are positive costs in matrix score units (they are
    *subtracted* during DP).  ``terminal_factor`` scales penalties applied
    to leading/trailing gaps (1.0 = fully penalised ends, 0.0 = free ends).
    """

    open: float = 10.0
    extend: float = 0.5
    terminal_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.open < 0 or self.extend < 0:
            raise ValueError("gap penalties must be non-negative costs")
        if self.extend > self.open:
            raise ValueError(
                "gap extend must not exceed gap open (required for the "
                "vectorised lazy-F DP to be exact)"
            )
        if not 0.0 <= self.terminal_factor <= 1.0:
            raise ValueError("terminal_factor must be in [0, 1]")

    def cost(self, length: int, terminal: bool = False) -> float:
        """Total cost of a gap run of ``length`` residues."""
        if length <= 0:
            return 0.0
        c = self.open + length * self.extend
        return c * (self.terminal_factor if terminal else 1.0)

    def to_dict(self) -> Dict[str, float]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return {
            "open": self.open,
            "extend": self.extend,
            "terminal_factor": self.terminal_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "GapPenalties":
        return cls(**data)


class SubstitutionMatrix:
    """A symmetric residue-pair score matrix bound to an alphabet.

    The dense array has shape ``(A+1, A+1)`` where ``A = alphabet.size``:
    the extra row/column is the gap code, kept at 0 so profile code paths
    can index with raw code arrays (gap scoring is the gap model's job,
    never the matrix's).
    """

    def __init__(self, name: str, alphabet: Alphabet, scores: np.ndarray) -> None:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (alphabet.size, alphabet.size):
            raise ValueError(
                f"score matrix shape {scores.shape} does not match alphabet "
                f"size {alphabet.size}"
            )
        if not np.allclose(scores, scores.T):
            raise ValueError("substitution matrix must be symmetric")
        self.name = name
        self.alphabet = alphabet
        full = np.zeros((alphabet.size + 1, alphabet.size + 1))
        full[: alphabet.size, : alphabet.size] = scores
        full.setflags(write=False)
        self.matrix = full

    def __repr__(self) -> str:
        return f"SubstitutionMatrix({self.name!r}, alphabet={self.alphabet.name!r})"

    def score(self, a: str, b: str) -> float:
        """Score of a single residue pair given as characters."""
        return float(self.matrix[self.alphabet.index(a), self.alphabet.index(b)])

    def pair_scores(self, x_codes: np.ndarray, y_codes: np.ndarray) -> np.ndarray:
        """Dense ``(len(x), len(y))`` score matrix for two code arrays.

        Chained column-then-row ``take``: same cells as ``np.ix_`` fancy
        indexing but several times faster, and the result is
        C-contiguous, the layout every DP kernel wants (a
        ``matrix[x][:, y]`` gather comes back column-major, and each
        kernel would copy it once more before its first DP row).
        """
        return self.matrix.take(y_codes, axis=1).take(x_codes, axis=0)

    @property
    def residue_part(self) -> np.ndarray:
        """The ``(A, A)`` residue-only block (no gap row/column)."""
        return self.matrix[: self.alphabet.size, : self.alphabet.size]

    def expected_score(self, background: np.ndarray | None = None) -> float:
        """Expected pair score under a background distribution."""
        bg = self.alphabet.background_frequencies() if background is None else background
        return float(bg @ self.residue_part @ bg)


def _parse_rows(symbols: str, rows: TSequence[str]) -> np.ndarray:
    """Parse whitespace-separated integer rows into a square matrix."""
    mat = np.array([[int(v) for v in row.split()] for row in rows], dtype=float)
    if mat.shape != (len(symbols), len(symbols)):
        raise ValueError("bad matrix literal")
    return mat


# Standard NCBI BLOSUM62, rows/cols in ARNDCQEGHILKMFPSTWYV order.
_BLOSUM62_20 = _parse_rows(
    "ARNDCQEGHILKMFPSTWYV",
    [
        " 4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0",
        "-1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3",
        "-2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3",
        "-2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3",
        " 0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1",
        "-1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2",
        "-1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2",
        " 0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3",
        "-2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3",
        "-1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3",
        "-1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1",
        "-1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2",
        "-1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1",
        "-2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1",
        "-1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2",
        " 1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2",
        " 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0",
        "-3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3",
        "-2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1",
        " 0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4",
    ],
)

# Classic Dayhoff PAM250, same residue order.
_PAM250_20 = _parse_rows(
    "ARNDCQEGHILKMFPSTWYV",
    [
        " 2 -2  0  0 -2  0  0  1 -1 -1 -2 -1 -1 -3  1  1  1 -6 -3  0",
        "-2  6  0 -1 -4  1 -1 -3  2 -2 -3  3  0 -4  0  0 -1  2 -4 -2",
        " 0  0  2  2 -4  1  1  0  2 -2 -3  1 -2 -3  0  1  0 -4 -2 -2",
        " 0 -1  2  4 -5  2  3  1  1 -2 -4  0 -3 -6 -1  0  0 -7 -4 -2",
        "-2 -4 -4 -5 12 -5 -5 -3 -3 -2 -6 -5 -5 -4 -3  0 -2 -8  0 -2",
        " 0  1  1  2 -5  4  2 -1  3 -2 -2  1 -1 -5  0 -1 -1 -5 -4 -2",
        " 0 -1  1  3 -5  2  4  0  1 -2 -3  0 -2 -5 -1  0  0 -7 -4 -2",
        " 1 -3  0  1 -3 -1  0  5 -2 -3 -4 -2 -3 -5  0  1  0 -7 -5 -1",
        "-1  2  2  1 -3  3  1 -2  6 -2 -2  0 -2 -2  0 -1 -1 -3  0 -2",
        "-1 -2 -2 -2 -2 -2 -2 -3 -2  5  2 -2  2  1 -2 -1  0 -5 -1  4",
        "-2 -3 -3 -4 -6 -2 -3 -4 -2  2  6 -3  4  2 -3 -3 -2 -2 -1  2",
        "-1  3  1  0 -5  1  0 -2  0 -2 -3  5  0 -5 -1  0  0 -3 -4 -2",
        "-1  0 -2 -3 -5 -1 -2 -3 -2  2  4  0  6  0 -2 -2 -1 -4 -2  2",
        "-3 -4 -3 -6 -4 -5 -5 -5 -2  1  2 -5  0  9 -5 -3 -3  0  7 -1",
        " 1  0  0 -1 -3  0 -1  0  0 -2 -3 -1 -2 -5  6  1  0 -6 -5 -1",
        " 1  0  1  0  0 -1  0  1 -1 -1 -3  0 -2 -3  1  2  1 -2 -3 -1",
        " 1 -1  0  0 -2 -1  0  0 -1  0 -2  0 -1 -3  0  1  3 -5 -3  0",
        "-6  2 -4 -7 -8 -5 -7 -7 -3 -5 -2 -3 -4  0 -6 -2 -5 17  0 -6",
        "-3 -4 -2 -4  0 -4 -4 -5  0 -1 -1 -4 -2  7 -5 -3 -3  0 10 -2",
        " 0 -2 -2 -2 -2 -2 -2 -1 -2  4  2 -2  2 -1 -1 -1  0 -6 -2  4",
    ],
)


def _with_wildcard(core20: np.ndarray, x_score: float = -1.0) -> np.ndarray:
    """Extend a 20x20 matrix with the X wildcard row/column."""
    full = np.full((21, 21), x_score)
    full[:20, :20] = core20
    return full


#: BLOSUM62 over :data:`repro.seq.alphabet.PROTEIN` (X scores -1 vs all).
BLOSUM62 = SubstitutionMatrix("blosum62", PROTEIN, _with_wildcard(_BLOSUM62_20))

#: PAM250 over :data:`repro.seq.alphabet.PROTEIN` (X scores -1 vs all).
PAM250 = SubstitutionMatrix("pam250", PROTEIN, _with_wildcard(_PAM250_20))

#: Match/mismatch identity matrix for the protein alphabet (testing aid).
IDENTITY = SubstitutionMatrix(
    "identity",
    PROTEIN,
    np.where(np.eye(PROTEIN.size, dtype=bool), 1.0, -1.0),
)

#: NUC44-style simple nucleotide matrix (match 5, mismatch -4, N neutral 0).
_dna = np.full((DNA.size, DNA.size), -4.0)
np.fill_diagonal(_dna, 5.0)
_dna[DNA.index("N"), :] = 0.0
_dna[:, DNA.index("N")] = 0.0
DNA_SIMPLE = SubstitutionMatrix("dna_simple", DNA, _dna)

_REGISTRY: Dict[str, SubstitutionMatrix] = {
    m.name: m for m in (BLOSUM62, PAM250, IDENTITY, DNA_SIMPLE)
}


def get_matrix(name: str) -> SubstitutionMatrix:
    """Look up a bundled substitution matrix by name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown matrix {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
