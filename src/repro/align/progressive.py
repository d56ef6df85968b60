"""Tree-driven progressive alignment.

Replays a :class:`~repro.tree.GuideTree`'s merge order,
aligning profiles pairwise at every internal node -- the architecture
shared by CLUSTALW, MUSCLE and MAFFT, and the sequential engine
Sample-Align-D runs inside every processor.

Every node of the walk is a :class:`~repro.align.profile.Clade` -- a
uint8 code matrix, int64 column counts and a row order -- and a merge is
three steps: the PSP score matrix of the two children
(:func:`~repro.align.profile_align.profile_score_matrix`), one compiled
alignment call for the path
(:func:`~repro.align.profile_align.profile_path`), and one compiled call
that lays the two code matrices out along it and sums their counts
(:func:`repro.align.dp.apply_path`).  Ids and an
:class:`~repro.seq.alignment.Alignment` appear once, at the root.  The
per-node object walk this replaced -- ``merge_profiles`` then
``Profile(alignment)`` at every node -- gives the same bytes and is the
tests' oracle.

The merges run serially where the caller runs (the default), or
cooperatively inside an existing SPMD program (``comm=``), where ranks
split each level of the task DAG (:func:`repro.tree.merge_schedule`)
-- with **byte-identical** alignments in both modes.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence as TSequence

import numpy as np

from repro.align.profile import Clade
from repro.align.profile_align import ProfileAlignConfig, profile_path
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence
from repro.tree.guide_tree import GuideTree

__all__ = ["progressive_align"]


class _MergeNode:
    """The per-node merge of one progressive run.

    A small callable closing over the scoring config, the optional
    sequence weights (one per leaf), and the optional ``merge_fn``
    override.
    Deterministic in its clade inputs -- the property that makes the
    serial and cooperative walks byte-identical.
    """

    def __init__(
        self,
        config: ProfileAlignConfig,
        merge_fn,
        weights: Optional[np.ndarray],
    ) -> None:
        self.config = config
        self.merge_fn = merge_fn
        self.weights = weights

    def __call__(self, step: int, ca: Clade, cb: Clade) -> Clade:
        if self.merge_fn is not None:
            x_map, y_map = self.merge_fn(ca, cb)
        else:
            res = profile_path(ca, cb, self.config)
            x_map, y_map = res.x_map, res.y_map
        merged = ca.merge(cb, x_map, y_map)
        if self.weights is not None:
            merged.reweight(_row_weighted_frequencies(
                merged.codes, self.weights[merged.rows], merged.alphabet.size
            ))
        return merged


def progressive_align(
    seqs: TSequence[Sequence],
    tree: GuideTree,
    config: ProfileAlignConfig | None = None,
    sequence_weights: np.ndarray | None = None,
    merge_fn=None,
    *,
    comm: Optional[Any] = None,
    clades: Optional[Any] = None,
) -> Alignment:
    """Align ``seqs`` progressively along ``tree``.

    ``tree.labels`` must be exactly the sequence ids (leaf ``i`` is the
    sequence labelled ``tree.labels[i]``).  Optional ``sequence_weights``
    (one per leaf, CLUSTALW-style) rescale each single-sequence profile's
    frequency mass before any merge, biasing column scores toward
    under-represented sequences.  ``merge_fn(ca, cb) -> (x_map, y_map)``
    overrides how the path between two child clades (profiles, see
    :class:`~repro.align.profile.Clade`) is found -- used e.g. by the
    MAFFT-like FFT-anchored aligner; the walk applies that path as it
    applies its own.

    Execution (see :func:`repro.tree.progressive_merge`): the merges
    replay serially; ``comm=`` joins an existing SPMD program
    cooperatively.  Alignments are byte-identical in both modes.

    ``clades`` (internal; see :class:`repro.tree.merge.CladeTable`) lets
    several calls over the *same* sequences, ``config`` and ``merge_fn``
    share merged clades: a subtree whose branching order an earlier
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

    leaves = []
    for leaf, label in enumerate(tree.labels):
        clade = Clade.leaf(by_id[label], leaf)
        if sequence_weights is not None:
            clade.reweight(clade.frequencies * sequence_weights[leaf])
        leaves.append(clade)

    from repro.tree.merge import progressive_merge

    root = progressive_merge(
        leaves,
        tree,
        _MergeNode(config, merge_fn, sequence_weights),
        comm=comm,
        clades=clades,
    )
    return root.to_alignment(tree.labels).select_rows([s.id for s in seqs])


def _row_weighted_frequencies(
    codes: np.ndarray, weights: np.ndarray, n_symbols: int
) -> np.ndarray:
    """``(cols, n_symbols)`` residue frequencies of ``codes`` with row
    ``r`` weighing ``weights[r]``, normalised by the row count.

    One ``bincount`` over ``(column, code)`` keys in row-major order, so
    each cell sums its rows' weights in row order, from zero -- what a
    per-row ``np.add.at`` did, bit for bit.  Gaps (codes past the
    residues) weigh nothing.
    """
    n_rows, n_cols = codes.shape
    keys = np.arange(n_cols) * n_symbols + codes
    residue = codes < n_symbols
    freq = np.bincount(
        keys[residue],
        weights=np.broadcast_to(weights[:, None], codes.shape)[residue],
        minlength=n_cols * n_symbols,
    )
    return freq.reshape(n_cols, n_symbols) / max(n_rows, 1)
