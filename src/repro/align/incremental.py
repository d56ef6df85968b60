"""Incremental alignment: adding sequences to an existing MSA.

The paper's ancestor constraint descends from the PSI-BLAST observation
(its ref. [19]) that *"a profile is used to align any query sequence with
the sequences that have generated the profile"*.  This module exposes
that primitive directly:

- :func:`add_sequence` -- profile-align one new sequence against a frozen
  MSA profile; the MSA's columns are preserved, new insert columns appear
  only where the query demands them.
- :func:`add_sequences` -- fold a batch in, most-similar-first (keeps the
  profile informative for the stragglers).

Useful in its own right (classifying new genome sequences against an
existing family alignment) and as the machinery behind Sample-Align-D's
tweak step, made available at the public API level.
"""

from __future__ import annotations

from typing import Sequence as TSequence

import numpy as np

from repro.align.profile import Profile, merge_profiles
from repro.align.profile_align import ProfileAlignConfig, align_profiles
from repro.kmer.counting import KmerCounter, kmer_match_fraction_matrix
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence

__all__ = ["add_sequence", "add_sequences"]


def add_sequence(
    aln: Alignment,
    seq: Sequence,
    config: ProfileAlignConfig | None = None,
) -> Alignment:
    """Align one new sequence to an existing MSA (columns preserved).

    Returns a new alignment whose first rows are the original MSA (with
    gap columns inserted where the new sequence has insertions) and whose
    last row is the new sequence.
    """
    config = config or ProfileAlignConfig()
    if seq.id in aln.ids:
        raise ValueError(f"sequence id {seq.id!r} already present in the MSA")
    if aln.n_rows == 0:
        return Alignment.from_single(seq)
    merged, _res = align_profiles(
        Profile(aln), Profile.from_sequence(seq), config
    )
    return merged.alignment


def add_sequences(
    aln: Alignment,
    seqs: TSequence[Sequence],
    config: ProfileAlignConfig | None = None,
    order: str = "similarity",
) -> Alignment:
    """Fold a batch of new sequences into an existing MSA.

    ``order``: ``"similarity"`` adds the sequence most similar to the
    current profile consensus first (recommended); ``"given"`` keeps the
    input order.
    """
    config = config or ProfileAlignConfig()
    if order not in ("similarity", "given"):
        raise ValueError("order must be 'similarity' or 'given'")
    pending = list(seqs)
    if not pending:
        return aln
    current = aln
    if order == "given":
        for s in pending:
            current = add_sequence(current, s, config)
        return current

    counter = KmerCounter()
    while pending:
        members = list(current.ungapped())
        frac = kmer_match_fraction_matrix(pending, members, counter)
        best = int(frac.mean(axis=1).argmax())
        current = add_sequence(current, pending.pop(best), config)
    return current
