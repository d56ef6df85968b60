"""Alignment profiles: per-column statistics plus merge machinery.

A :class:`Profile` wraps an :class:`~repro.seq.alignment.Alignment` with
cached column counts, residue frequencies and occupancy.  Profile-profile
alignment (:mod:`repro.align.profile_align`) consumes the frequency arrays;
:func:`merge_profiles` applies a DP path to produce the merged alignment --
the single operation progressive alignment is built from.
"""

from __future__ import annotations

from typing import Sequence as TSequence

import numpy as np

from repro.seq.alignment import Alignment
from repro.seq.alphabet import Alphabet
from repro.seq.sequence import Sequence

__all__ = ["Profile", "merge_profiles"]


class Profile:
    """Column statistics over an alignment.

    Attributes
    ----------
    alignment:
        The underlying alignment (rows are the member sequences), or
        ``None`` for a profile built with :meth:`from_counts`.
    counts:
        ``(n_cols, A+1)`` residue counts; the last column counts gaps.
    frequencies:
        ``(n_cols, A)`` residue frequencies normalised by the number of
        rows, so a column's frequency mass equals its occupancy (gappy
        columns weigh less in profile scores -- the PSP convention).
    occupancy:
        ``(n_cols,)`` fraction of non-gap residues per column.
    """

    def __init__(self, alignment: Alignment) -> None:
        self.alignment = alignment
        self._set_counts(
            alignment.column_counts(include_gap=True),
            alignment.n_rows,
            alignment.alphabet,
        )

    def _set_counts(
        self, counts: np.ndarray, n_sequences: int, alphabet: Alphabet
    ) -> None:
        self.alphabet = alphabet
        self.n_sequences = n_sequences
        self.counts = counts
        n_rows = max(n_sequences, 1)
        self.frequencies = counts[:, :-1].astype(np.float64) / n_rows
        self.occupancy = 1.0 - counts[:, -1].astype(np.float64) / n_rows

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, n_sequences: int, alphabet: Alphabet
    ) -> "Profile":
        """Profile of rows known only by their ``(n_cols, A+1)`` column
        counts -- the same statistics :class:`Profile` of those rows has,
        without building an :class:`Alignment` of them.  Such a profile
        can be scored and aligned; it has no rows to merge
        (``alignment`` is ``None``)."""
        profile = cls.__new__(cls)
        profile.alignment = None
        profile._set_counts(counts, n_sequences, alphabet)
        return profile

    @classmethod
    def from_sequence(cls, seq: Sequence) -> "Profile":
        return cls(Alignment.from_single(seq))

    @classmethod
    def from_sequences(cls, seqs: TSequence[Sequence]) -> "Profile":
        """Profile of already-equal-length ungapped sequences (rare; mostly
        a testing aid).  Use progressive alignment for the general case."""
        ids = [s.id for s in seqs]
        rows = [s.residues for s in seqs]
        return cls(Alignment.from_rows(ids, rows, seqs[0].alphabet))

    # -- basic protocol -----------------------------------------------------------

    @property
    def n_columns(self) -> int:
        return self.counts.shape[0]

    def __repr__(self) -> str:
        return f"Profile(seqs={self.n_sequences}, cols={self.n_columns})"


def merge_profiles(
    px: Profile, py: Profile, x_map: np.ndarray, y_map: np.ndarray
) -> Profile:
    """Merge two profiles along a DP path into one profile.

    ``x_map``/``y_map`` come from :func:`repro.align.dp.affine_align` run on
    the two profiles' column-score matrix: per output column, the source
    column consumed from each profile or ``-1`` for a gap.  Rows of ``px``
    come first in the merged alignment.
    """
    x_map = np.asarray(x_map, dtype=np.int64)
    y_map = np.asarray(y_map, dtype=np.int64)
    if len(x_map) != len(y_map):
        raise ValueError("x_map and y_map must have equal length")
    if px.alphabet != py.alphabet:
        raise ValueError("profiles must share an alphabet")
    n_cols = len(x_map)
    gap = px.alphabet.gap_code
    nx, ny = px.n_sequences, py.n_sequences

    out = np.full((nx + ny, n_cols), gap, dtype=np.uint8)
    x_cols = np.flatnonzero(x_map >= 0)
    y_cols = np.flatnonzero(y_map >= 0)
    if x_cols.size != px.n_columns or y_cols.size != py.n_columns:
        raise ValueError("DP path does not consume every profile column")
    if x_cols.size:
        out[:nx, x_cols] = px.alignment.matrix[:, x_map[x_cols]]
    if y_cols.size:
        out[nx:, y_cols] = py.alignment.matrix[:, y_map[y_cols]]

    merged = Alignment(
        list(px.alignment.ids) + list(py.alignment.ids), out, px.alphabet
    )
    return Profile(merged)
