"""CLUSTALW-like weighted progressive aligner (Thompson et al. 1994).

The three CLUSTALW stages: (1) pairwise distances -- full dynamic
programming in ``accurate`` mode, k-tuple in ``fast`` mode; (2) a
neighbour-joining guide tree with branch-length-derived *sequence weights*
(closely related sequences share, and thus split, their weight); (3)
weighted progressive alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence as TSequence

import numpy as np

from repro.align.profile_align import ProfileAlignConfig
from repro.align.progressive import progressive_align
from repro.distance import FullDpDistance
from repro.msa.base import GuideTreeStages, SequentialMsaAligner
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence
from repro.tree import GuideTree

__all__ = ["ClustalWLike", "clustal_sequence_weights"]


def clustal_sequence_weights(tree: GuideTree) -> np.ndarray:
    """Branch-length sequence weights (Thompson et al. 1994).

    Each leaf's weight is the sum, over the edges on its root path, of the
    edge length divided by the number of leaves sharing that edge.  Edge
    length is the height difference between parent and child (heights come
    from the tree builder).  Weights are normalised to mean 1.
    """
    n = tree.n_leaves
    if n == 1:
        return np.ones(1)
    node_height = np.zeros(tree.n_nodes)
    for i in range(n - 1):
        node_height[n + i] = tree.heights[i]

    weights = np.zeros(n)
    # Accumulate top-down: each internal node distributes the edge above
    # each child to all leaves underneath that child.
    share = np.zeros(tree.n_nodes)  # weight accumulated above this node
    for i in range(n - 2, -1, -1):
        node = n + i
        for child in tree.children(node):
            edge = max(node_height[node] - node_height[child], 0.0)
            n_under = len(tree.leaves_under(child))
            share[child] = share[node] + edge / max(n_under, 1)
    for leaf in range(n):
        weights[leaf] = share[leaf]
    if weights.sum() <= 0:
        return np.ones(n)
    return weights / weights.mean()


@dataclass
class ClustalWLike(GuideTreeStages, SequentialMsaAligner):
    """CLUSTALW-architecture aligner.

    Parameters
    ----------
    scoring:
        Profile-profile scoring configuration; by default CLUSTALW's
        residue-specific / hydrophilic-run gap modifiers are switched on
        (:mod:`repro.align.gapmod`).
    distance_mode:
        The historical estimator: ``"full"`` (pairwise DP identities,
        O(N^2 L^2)) or ``"ktuple"`` (alignment-free, the fast mode for
        larger N).  An estimator named by ``distance=`` wins.
    kmer_k:
        k used in ``ktuple`` mode.
    distance:
        Distance stage (see :class:`~repro.msa.base.GuideTreeStages`).
        Named estimators pick up this aligner's scoring matrix/gaps and
        ``kmer_k`` as defaults.
    tree:
        Guide-tree stage (default: CLUSTALW's neighbour joining).
    """

    scoring: ProfileAlignConfig = field(
        default_factory=lambda: ProfileAlignConfig(clustalw_gap_modifiers=True)
    )
    distance_mode: str = "ktuple"
    kmer_k: int = 4
    distance: object = None
    tree: object = None

    name = "clustalw"
    default_builder = "nj"

    def __post_init__(self) -> None:
        if self.distance_mode not in ("full", "ktuple"):
            raise ValueError("distance_mode must be 'full' or 'ktuple'")
        super().__post_init__()

    def _default_estimator(self):
        if self.distance_mode == "full":
            return FullDpDistance(
                matrix=self.scoring.matrix, gaps=self.scoring.gaps
            )
        return super()._default_estimator()

    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        sset = self._validate_input(seqs)
        if len(sset) == 1:
            return Alignment.from_single(sset[0])
        ids = sset.ids
        builder = self._tree_builder()
        tree = builder.build(self._distances(list(sset)), ids)
        weights = clustal_sequence_weights(tree)
        aln = progressive_align(list(sset), tree, self.scoring, weights)
        return aln.select_rows(ids)
