"""Tree-driven progressive alignment.

Replays a :class:`~repro.tree.GuideTree`'s merge order,
aligning profiles pairwise at every internal node -- the architecture
shared by CLUSTALW, MUSCLE and MAFFT, and the sequential engine
Sample-Align-D runs inside every processor.

Since the tree-subsystem refactor the walk is expressed as a task DAG
(:func:`repro.tree.merge_schedule`): sibling subtrees are independent,
so ``progressive_align`` can execute the merges serially (the default),
on an execution backend (``backend="threads"|"pool"``,
``workers=N``), or cooperatively inside an existing SPMD program
(``comm=``) -- with **byte-identical** alignments in every mode.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence as TSequence

import numpy as np

from repro.align.profile import Profile
from repro.align.profile_align import ProfileAlignConfig, align_profiles
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence
from repro.tree.guide_tree import GuideTree

__all__ = ["progressive_align"]


class _MergeNode:
    """The per-node merge of one progressive run.

    A small picklable callable (so it can cross the process-backend
    boundary) closing over the scoring config, the optional sequence
    weights, and the optional ``merge_fn`` override.  Deterministic in
    its profile inputs -- the property that makes every schedule of the
    merge DAG byte-identical.
    """

    def __init__(
        self,
        config: ProfileAlignConfig,
        merge_fn,
        weights: Optional[np.ndarray],
        leaf_index: Optional[Dict[str, int]],
    ) -> None:
        self.config = config
        self.merge_fn = merge_fn
        self.weights = weights
        self.leaf_index = leaf_index

    def __call__(self, step: int, pa: Profile, pb: Profile) -> Profile:
        if self.merge_fn is not None:
            merged = self.merge_fn(pa, pb)
        else:
            merged, _res = align_profiles(pa, pb, self.config)
        if self.weights is not None:
            # Recompute weighted frequencies for the merged profile.
            w = np.array(
                [
                    self.weights[self.leaf_index[rid]]
                    for rid in merged.alignment.ids
                ]
            )
            _apply_row_weights(merged, w)
        return merged


def progressive_align(
    seqs: TSequence[Sequence],
    tree: GuideTree,
    config: ProfileAlignConfig | None = None,
    sequence_weights: np.ndarray | None = None,
    merge_fn=None,
    *,
    backend: Optional[Any] = None,
    workers: Optional[int] = None,
    comm: Optional[Any] = None,
    clades: Optional[Any] = None,
) -> Alignment:
    """Align ``seqs`` progressively along ``tree``.

    ``tree.labels`` must be exactly the sequence ids (leaf ``i`` is the
    sequence labelled ``tree.labels[i]``).  Optional ``sequence_weights``
    (one per leaf, CLUSTALW-style) rescale each single-sequence profile's
    frequency mass before any merge, biasing column scores toward
    under-represented sequences.  ``merge_fn(pa, pb) -> Profile`` overrides
    the default optimal profile-profile merge (used e.g. by the MAFFT-like
    FFT-anchored aligner).

    Execution (see :func:`repro.tree.progressive_merge`): ``backend=None``
    replays the merges serially; ``backend="threads"|"pool"`` runs
    the merge DAG level-parallel over ``workers`` ranks; ``comm=`` joins
    an existing SPMD program cooperatively.  Alignments are
    byte-identical in every mode.

    ``clades`` (internal; see :class:`repro.tree.merge.CladeTable`) lets
    several calls over the *same* sequences, ``config`` and ``merge_fn``
    share merged alignments: a subtree whose branching order an earlier
    call already merged is not merged again.  Row weights change every
    profile's frequencies, so a weighted call takes no table.

    Returns the final alignment with rows in the *input* sequence order.
    Raises a clean ``ValueError`` for fewer than two sequences or a tree
    whose leaf count does not match the input.
    """
    config = config or ProfileAlignConfig()
    seqs = list(seqs)
    if len(seqs) < 2:
        raise ValueError(
            "progressive alignment needs at least 2 sequences "
            f"(got {len(seqs)}); wrap a lone sequence with "
            "Alignment.from_single instead"
        )
    by_id = {s.id: s for s in seqs}
    if tree.n_leaves != len(seqs):
        raise ValueError(
            f"tree has {tree.n_leaves} leaves but {len(seqs)} sequences "
            "were given; build the tree over exactly these sequences"
        )
    if set(tree.labels) != set(by_id):
        raise ValueError("tree labels must match sequence ids exactly")
    leaf_index: Optional[Dict[str, int]] = None
    if sequence_weights is not None:
        if clades is not None:
            raise ValueError(
                "a clade table cannot be shared by weighted merges"
            )
        sequence_weights = np.asarray(sequence_weights, dtype=np.float64)
        if sequence_weights.shape != (len(seqs),):
            raise ValueError("need one weight per leaf")
        if (sequence_weights <= 0).any():
            raise ValueError("weights must be positive")
        # Normalise to mean 1 so gap penalties keep their scale.
        sequence_weights = sequence_weights / sequence_weights.mean()
        leaf_index = {label: leaf for leaf, label in enumerate(tree.labels)}

    profiles = []
    for leaf, label in enumerate(tree.labels):
        prof = Profile.from_sequence(by_id[label])
        if sequence_weights is not None:
            prof.frequencies = prof.frequencies * sequence_weights[leaf]
        profiles.append(prof)

    from repro.tree.merge import progressive_merge

    root = progressive_merge(
        profiles,
        tree,
        _MergeNode(config, merge_fn, sequence_weights, leaf_index),
        backend=backend,
        workers=workers,
        comm=comm,
        clades=clades,
    )
    return root.alignment.select_rows([s.id for s in seqs])


def _apply_row_weights(profile: Profile, weights: np.ndarray) -> None:
    """Replace a profile's frequencies with row-weighted ones in place."""
    aln = profile.alignment
    A = aln.alphabet.size
    freq = np.zeros((aln.n_columns, A))
    gap = aln.alphabet.gap_code
    for r in range(aln.n_rows):
        row = aln.matrix[r]
        mask = row != gap
        np.add.at(freq, (np.flatnonzero(mask), row[mask]), weights[r])
    profile.frequencies = freq / max(aln.n_rows, 1)
