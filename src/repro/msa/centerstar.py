"""Center-star alignment (Gusfield's classic 2-approximation).

The cheapest multiple aligner in the suite: pick the sequence with the
smallest summed distance to all others, then fold every other sequence
into the growing profile in order of increasing distance to the center.
Used as a fast local aligner option and as a quality floor in ablations.

The fold-in order *is* a guide tree -- a caterpillar whose spine starts
at the center -- so since the tree-subsystem refactor the merge walk is
expressed as a :class:`~repro.tree.GuideTree` and replayed
by :func:`~repro.align.progressive.progressive_align` (byte-identical
to the historical loop).  ``tree=`` swaps the caterpillar for any
registered builder, turning the center-star distance stage into a
cheap tree-guided progressive aligner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence as TSequence

import numpy as np

from repro.align.profile_align import ProfileAlignConfig
from repro.align.progressive import progressive_align
from repro.distance import CondensedMatrix
from repro.msa.base import GuideTreeStages, SequentialMsaAligner
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence
from repro.tree import GuideTree

__all__ = ["CenterStar", "center_star_tree"]


def center_star_tree(d: np.ndarray, labels: TSequence[str]) -> GuideTree:
    """The center-star merge order as a caterpillar guide tree.

    The center (smallest summed distance) is the first spine node; the
    remaining leaves attach in order of increasing distance to the
    center (stable on ties, matching the historical fold-in loop).
    Replaying this tree progressively is exactly the classic
    center-star algorithm.  Accepts a dense matrix or a
    :class:`~repro.distance.tilestore.CondensedMatrix`; condensed input
    is read one gathered row at a time (per-row sums reduce the same
    length-``n`` vector dense ``sum(axis=1)`` reduces, so the center
    pick -- ties included -- is identical).
    """
    n = d.shape[0]
    labels = list(labels)
    if n == 1:
        return GuideTree(1, np.zeros((0, 2)), np.zeros(0), labels)
    if isinstance(d, CondensedMatrix):
        sums = np.empty(n, dtype=np.float64)
        for r in range(n):
            sums[r] = d.row(r).sum()
        center = int(sums.argmin())
        center_row = d.row(center)
    else:
        center = int(d.sum(axis=1).argmin())
        center_row = d[center]
    order = [int(i) for i in np.argsort(center_row, kind="stable")
             if int(i) != center]
    merges = np.empty((n - 1, 2), dtype=np.int64)
    spine = center
    for step, leaf in enumerate(order):
        merges[step] = (spine, leaf)
        spine = n + step
    heights = np.arange(1, n, dtype=np.float64)
    return GuideTree(n, merges, heights, labels)


@dataclass
class CenterStar(GuideTreeStages, SequentialMsaAligner):
    """Center-star progressive aligner.

    Parameters
    ----------
    scoring:
        Profile scoring configuration.
    kmer_k:
        k of the distance estimate used to pick the center.
    distance:
        Distance stage (see :class:`~repro.msa.base.GuideTreeStages`;
        default: ``ktuple`` with ``kmer_k``).
    tree:
        Guide-tree stage.  While it names no builder, the classic
        center-star caterpillar merge order is kept; naming one
        replaces it with a real guide tree over the same cheap distance
        matrix.
    """

    scoring: ProfileAlignConfig = field(default_factory=ProfileAlignConfig)
    kmer_k: int = 4
    distance: object = None
    tree: object = None

    name = "center-star"
    default_builder = None  # the caterpillar star order

    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        sset = self._validate_input(seqs)
        if len(sset) == 1:
            return Alignment.from_single(sset[0])
        ids = sset.ids
        d = self._distances(list(sset))
        builder = self._tree_builder()
        tree = (
            center_star_tree(d, ids)
            if builder is None
            else builder.build(d, ids)
        )
        # progressive_align already returns rows in input order.
        return progressive_align(list(sset), tree, self.scoring)
