"""Alignment profiles: per-column statistics plus merge machinery.

A :class:`Profile` wraps an :class:`~repro.seq.alignment.Alignment` with
cached column counts, residue frequencies and occupancy.  Profile-profile
alignment (:mod:`repro.align.profile_align`) consumes the frequency arrays;
:func:`merge_profiles` applies a DP path to produce the merged alignment.

A :class:`Clade` is the profile a progressive walk carries from node to
node: a code matrix, integer column counts and a row order, with no ids
and no :class:`Alignment`.  :meth:`Clade.merge` -- the single operation
progressive alignment is built from -- and :func:`merge_profiles` both
apply their path with :func:`repro.align.dp.apply_path`.
"""

from __future__ import annotations

from typing import Sequence as TSequence

import numpy as np

from repro.align.dp import apply_path
from repro.seq.alignment import Alignment, code_counts
from repro.seq.alphabet import Alphabet
from repro.seq.sequence import Sequence

__all__ = ["Clade", "Profile", "merge_profiles"]


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
        # Integer counts over an int divide as float64 (what an astype
        # first would give), in one pass.
        self.frequencies = counts[:, :-1] / n_rows
        self.occupancy = 1.0 - counts[:, -1] / n_rows

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


class Clade(Profile):
    """One node of a progressive walk, as arrays.

    A clade is its ``(rows, cols)`` uint8 code matrix ``codes``, its
    int64 column ``counts`` and its row order ``rows`` (the leaf index
    of each matrix row) -- all a merge reads or writes -- plus the
    profile statistics derived once from the counts, so it scores and
    aligns as any :class:`Profile` does.  It has no ids and no
    :class:`Alignment` (``alignment`` is ``None``); a walk names its
    rows once, at the root (:meth:`to_alignment`).

    Row-weighted merges (CLUSTALW) replace the frequencies with
    :meth:`reweight`.  Pickled, a clade is its codes, counts and rows
    (and reweighted frequencies); the rest is derived again on arrival.
    """

    def __init__(
        self,
        codes: np.ndarray,
        counts: np.ndarray,
        rows: np.ndarray,
        alphabet: Alphabet,
        frequencies: np.ndarray | None = None,
    ) -> None:
        self.alignment = None
        self.codes = codes
        self.rows = rows
        self._set_counts(counts, codes.shape[0], alphabet)
        self.weighted = frequencies is not None
        if frequencies is not None:
            self.frequencies = frequencies

    @classmethod
    def from_codes(
        cls, codes: np.ndarray, rows: np.ndarray, alphabet: Alphabet
    ) -> "Clade":
        """The clade of ``codes``, its counts counted from them."""
        return cls(codes, code_counts(codes, alphabet.gap_code + 1), rows,
                   alphabet)

    @classmethod
    def leaf(cls, seq: Sequence, row: int) -> "Clade":
        """Leaf ``row`` of a walk: ``seq``, one ungapped row."""
        return cls.from_codes(
            seq.codes[None, :], np.array([row], dtype=np.int64), seq.alphabet
        )

    def reweight(self, frequencies: np.ndarray) -> None:
        """Score this clade by ``frequencies`` instead of its counts'."""
        self.frequencies = frequencies
        self.weighted = True

    def merge(self, other: "Clade", x_map, y_map) -> "Clade":
        """This clade and ``other`` merged along a DP path (see
        :func:`~repro.align.dp.apply_path`); this clade's rows first."""
        codes, counts = apply_path(
            self.codes, self.counts, other.codes, other.counts, x_map, y_map
        )
        return Clade(
            codes, counts, np.concatenate([self.rows, other.rows]),
            self.alphabet,
        )

    def to_alignment(self, labels: TSequence[str]) -> Alignment:
        """The clade's rows as an alignment, row ``r`` named
        ``labels[rows[r]]``."""
        return Alignment(
            [labels[r] for r in self.rows], self.codes, self.alphabet
        )

    def __reduce__(self):
        return Clade, (
            self.codes, self.counts, self.rows, self.alphabet,
            self.frequencies if self.weighted else None,
        )

    def __repr__(self) -> str:
        return f"Clade(rows={self.n_sequences}, cols={self.n_columns})"


def merge_profiles(
    px: Profile, py: Profile, x_map: np.ndarray, y_map: np.ndarray
) -> Profile:
    """Merge two profiles along a DP path into one profile.

    ``x_map``/``y_map`` come from :func:`repro.align.dp.affine_align` run on
    the two profiles' column-score matrix: per output column, the source
    column consumed from each profile or ``-1`` for a gap.  Rows of ``px``
    come first in the merged alignment.  ``ValueError`` unless the path
    consumes each profile's columns exactly once, in order, with no
    column a gap on both sides (:func:`~repro.align.dp.apply_path`, which
    also sums the merged counts).
    """
    if px.alphabet != py.alphabet:
        raise ValueError("profiles must share an alphabet")
    codes, counts = apply_path(
        px.alignment.matrix, px.counts, py.alignment.matrix, py.counts,
        x_map, y_map,
    )
    merged = Profile.from_counts(counts, codes.shape[0], px.alphabet)
    merged.alignment = Alignment(
        list(px.alignment.ids) + list(py.alignment.ids), codes, px.alphabet
    )
    return merged
