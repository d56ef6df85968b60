"""Multiple sequence alignments.

An :class:`Alignment` is an ordered set of equal-length gapped rows over a
shared alphabet.  Rows are stored as a dense ``(n_rows, n_cols)`` uint8 code
matrix (gap = ``alphabet.gap_code``), which makes column statistics, profile
extraction and scoring single numpy expressions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence as TSequence, Tuple

import numpy as np

from repro.seq.alphabet import Alphabet, GAP_CHAR, PROTEIN
from repro.seq.sequence import Sequence, SequenceSet

__all__ = ["Alignment", "code_counts"]


def code_counts(matrix: np.ndarray, n_codes: int) -> np.ndarray:
    """Per-column counts of each code in a ``(rows, cols)`` code matrix.

    Returns ``(cols, n_codes)`` int64.  Vectorised via one ``bincount``
    over a fused (column, code) key; the rows may be any subset of an
    alignment's (refinement counts one side of a split this way).
    """
    n_cols = matrix.shape[1]
    if n_cols == 0:
        return np.zeros((0, n_codes), dtype=np.int64)
    cols = np.arange(n_cols, dtype=np.int64)
    key = cols[None, :] * n_codes + matrix.astype(np.int64)
    counts = np.bincount(key.ravel(), minlength=n_cols * n_codes)
    return counts.reshape(n_cols, n_codes)


class Alignment:
    """A gapped, equal-length multiple sequence alignment.

    Parameters
    ----------
    ids:
        Row identifiers, unique, in row order.
    matrix:
        ``(n_rows, n_cols)`` uint8 code matrix (``alphabet.gap_code`` = gap).
    alphabet:
        Shared residue alphabet.
    """

    def __init__(
        self,
        ids: TSequence[str],
        matrix: np.ndarray,
        alphabet: Alphabet = PROTEIN,
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("alignment matrix must be 2-D")
        ids = list(ids)
        if len(ids) != matrix.shape[0]:
            raise ValueError("ids/matrix row count mismatch")
        row_index = dict(zip(ids, range(len(ids))))
        if len(row_index) != len(ids):
            raise ValueError("duplicate row ids in alignment")
        if matrix.size and int(matrix.max()) > alphabet.gap_code:
            raise ValueError("alignment matrix contains out-of-range codes")
        self.ids = ids
        self.matrix = matrix
        self.alphabet = alphabet
        self._row_index = row_index

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        ids: TSequence[str],
        rows: TSequence[str],
        alphabet: Alphabet = PROTEIN,
    ) -> "Alignment":
        """Build from gapped row strings (all must have equal length).

        The rows are encoded as one string, ``"".join(rows)``, reshaped
        to ``(n_rows, width)``: a fixed number of numpy calls however
        many rows there are (every store hit decodes its result here).
        A character the alphabet cannot encode raises the ``ValueError``
        a per-row encode would, naming the character and its column
        within the first row that has one.
        """
        if not rows:
            return cls(ids, np.zeros((0, 0), dtype=np.uint8), alphabet)
        lengths = set(map(len, rows))
        if len(lengths) != 1:
            raise ValueError(f"rows have differing lengths: {sorted(lengths)}")
        try:
            codes = alphabet.encode("".join(rows))
        except ValueError:
            # Off the hot path: re-encode row by row so the message
            # carries the position within the offending row.
            for row in rows:
                alphabet.encode(row)
            raise
        return cls(ids, codes.reshape(len(rows), len(rows[0])), alphabet)

    @classmethod
    def from_single(cls, seq: Sequence) -> "Alignment":
        """The trivial alignment of one ungapped sequence."""
        return cls([seq.id], seq.codes[None, :].copy(), seq.alphabet)

    @classmethod
    def concatenate_rows(cls, blocks: TSequence["Alignment"]) -> "Alignment":
        """Stack alignments that share an identical column space."""
        if not blocks:
            raise ValueError("no blocks to concatenate")
        ncols = {b.n_columns for b in blocks}
        if len(ncols) != 1:
            raise ValueError(f"blocks have differing column counts: {sorted(ncols)}")
        ids: List[str] = []
        for b in blocks:
            ids.extend(b.ids)
        mat = np.vstack([b.matrix for b in blocks])
        return cls(ids, mat, blocks[0].alphabet)

    # -- basic protocol --------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return zip(self.ids, self._row_texts())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Alignment)
            and self.ids == other.ids
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __repr__(self) -> str:
        return f"Alignment(rows={self.n_rows}, cols={self.n_columns})"

    # -- row/column access ------------------------------------------------------

    def row(self, key) -> np.ndarray:
        """Code row by index or id (view, do not mutate)."""
        i = self._row_index[key] if isinstance(key, str) else int(key)
        return self.matrix[i]

    def row_text(self, key) -> str:
        return self.alphabet.decode(self.row(key))

    def _row_texts(self) -> List[str]:
        """Every row's gapped text, in row order: one decode of the whole
        matrix, sliced by width."""
        width = self.n_columns
        if width == 0:
            return [""] * self.n_rows
        text = self.alphabet.decode(self.matrix.ravel())
        return [text[i : i + width] for i in range(0, len(text), width)]

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]

    def gap_mask(self) -> np.ndarray:
        """Boolean (n_rows, n_cols) matrix, True where gap."""
        return self.matrix == self.alphabet.gap_code

    def column_counts(self, include_gap: bool = True) -> np.ndarray:
        """Per-column residue counts.

        Returns ``(n_cols, A+1)`` (or ``(n_cols, A)`` without the gap row),
        where ``A`` is the alphabet size.  Vectorised via one ``bincount``
        over a fused (column, code) key.
        """
        a1 = self.alphabet.gap_code + 1
        counts = code_counts(self.matrix, a1)
        return counts if include_gap else counts[:, : a1 - 1]

    def occupancy(self) -> np.ndarray:
        """Fraction of non-gap residues per column, shape (n_cols,)."""
        if self.n_rows == 0:
            return np.zeros(self.n_columns)
        return 1.0 - self.gap_mask().mean(axis=0)

    # -- transformations ---------------------------------------------------------

    def ungapped(self) -> SequenceSet:
        """The original ungapped sequences, in row order."""
        out = []
        gap = self.alphabet.gap_code
        for i, rid in enumerate(self.ids):
            row = self.matrix[i]
            out.append(
                Sequence(rid, self.alphabet.decode(row[row != gap]), self.alphabet)
            )
        return SequenceSet(out)

    def select_rows(self, keys: Iterable) -> "Alignment":
        """Sub-alignment of the given rows (ids or indices), columns intact."""
        idx = [
            self._row_index[k] if isinstance(k, str) else int(k) for k in keys
        ]
        return Alignment(
            [self.ids[i] for i in idx], self.matrix[idx], self.alphabet
        )

    def drop_all_gap_columns(self) -> "Alignment":
        """Remove columns that are gaps in every row."""
        if self.n_rows == 0:
            return self
        keep = ~self.gap_mask().all(axis=0)
        return Alignment(self.ids, self.matrix[:, keep], self.alphabet)

    def insert_gap_columns(self, positions: np.ndarray) -> "Alignment":
        """New alignment with gap columns inserted *before* each position.

        ``positions`` is a sorted array of column indices in the *current*
        coordinate system (may repeat; ``n_columns`` means append).  Used by
        the glue step to expand blocks onto the union column space.
        """
        positions = np.asarray(positions, dtype=np.int64)
        n_new = self.n_columns + len(positions)
        out = np.full((self.n_rows, n_new), self.alphabet.gap_code, dtype=np.uint8)
        # Target indices of the original columns after insertion.
        shift = np.searchsorted(positions, np.arange(self.n_columns), side="right")
        tgt = np.arange(self.n_columns) + shift
        out[:, tgt] = self.matrix
        return Alignment(self.ids, out, self.alphabet)

    def residue_to_column(self) -> List[np.ndarray]:
        """Per row, the alignment column of each ungapped residue.

        ``maps[r][k]`` is the column index of residue ``k`` of row ``r``.
        This is the primitive the Q-score metric builds on.
        """
        gap = self.alphabet.gap_code
        return [np.flatnonzero(self.matrix[i] != gap) for i in range(self.n_rows)]

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form (row strings + alphabet name); inverse of
        :meth:`from_dict`."""
        return {
            "ids": list(self.ids),
            "rows": self._row_texts(),
            "alphabet": self.alphabet.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Alignment":
        from repro.seq.alphabet import get_alphabet

        return cls.from_rows(
            data["ids"], data["rows"], get_alphabet(data["alphabet"])
        )

    # -- rendering -----------------------------------------------------------------

    def to_fasta(self, width: int = 60) -> str:
        """FASTA text of the gapped rows."""
        parts = []
        for rid, text in self:
            parts.append(f">{rid}")
            parts.extend(text[i : i + width] for i in range(0, len(text), width))
        return "\n".join(parts) + ("\n" if parts else "")

    def pretty(self, block: int = 60, max_rows: int | None = None) -> str:
        """Human-readable block view (the paper's Fig. 7 style snapshot)."""
        rows = list(zip(self.ids, self._row_texts()))[:max_rows]
        width = max((len(rid) for rid, _ in rows), default=0) + 2
        lines: List[str] = []
        for start in range(0, self.n_columns, block):
            for rid, text in rows:
                lines.append(f"{rid:<{width}}{text[start : start + block]}")
            lines.append("")
        return "\n".join(lines)
