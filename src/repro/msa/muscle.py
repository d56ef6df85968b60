"""MUSCLE-like three-stage aligner (Edgar 2004).

Stage 1 (draft): k-mer distances over a compressed alphabet, UPGMA guide
tree, progressive alignment.
Stage 2 (improved): pairwise identities re-estimated *from the draft
alignment*, Kimura-corrected, new UPGMA tree, and -- as in MUSCLE --
re-alignment of only the subtrees whose branching order changed: the two
progressive walks of one ``align`` call share a per-call
:class:`~repro.tree.merge.CladeTable`, so a stage-2 node whose ordered
clade stage 1 already merged is rebuilt from that alignment and nothing
beneath it runs.  A merged profile depends only on its ordered subtree
and the scoring, so the result is byte-identical to re-merging every
node.
Stage 3 (refinement): tree-dependent restricted partitioning accepted on
sum-of-pairs improvement.

``MuscleLike(refine=False)`` -- stages 1+2 only -- is the paper's
"MUSCLE-p" comparator; ``MuscleLike(two_stage=False, refine=False)`` is the
pure draft (the fastest configuration, used as the default local aligner
inside Sample-Align-D where each bucket is already phylogenetically
coherent)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence as TSequence

import numpy as np

from repro.align.profile_align import ProfileAlignConfig
from repro.align.progressive import progressive_align
from repro.align.refine import refine_alignment
from repro.distance import alignment_identity_matrix, kimura_distance
from repro.msa.base import GuideTreeStages, SequentialMsaAligner
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence
from repro.tree.merge import CladeTable

__all__ = ["MuscleLike"]


@dataclass
class MuscleLike(GuideTreeStages, SequentialMsaAligner):
    """MUSCLE-architecture progressive aligner.

    Parameters
    ----------
    scoring:
        Profile-profile scoring configuration (matrix, gap model).
    kmer_k:
        k-mer length of the stage-1 distance estimate.
    two_stage:
        Re-estimate distances from the draft alignment and realign
        (MUSCLE stage 2).
    refine:
        Run iterative refinement (MUSCLE stage 3).
    refine_rounds:
        Maximum refinement sweeps over all tree partitions.
    anchored:
        Use FFT-correlation anchoring for the progressive merges
        (MUSCLE's ``-diags`` diagonal optimisation; trades a little
        accuracy for DP area on long profiles).
    seed:
        Seed for the refinement visit order (None = deterministic order).
    distance:
        Stage-1 distance stage (see
        :class:`~repro.msa.base.GuideTreeStages`; default: the classic
        ``ktuple`` draft distance with ``kmer_k``).  Stage 2 always
        re-estimates from the draft alignment
        (:func:`repro.distance.alignment_identity_matrix` +
        Kimura transform).
    tree:
        Guide-tree stage (default: MUSCLE's UPGMA).  Applies to both
        the stage-1 draft tree and the stage-2 rebuild, merges included.
    """

    scoring: ProfileAlignConfig = field(default_factory=ProfileAlignConfig)
    kmer_k: int = 4
    two_stage: bool = True
    refine: bool = True
    refine_rounds: int = 2
    anchored: bool = False
    seed: int | None = 0
    distance: object = None
    tree: object = None

    name = "muscle"

    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        sset = self._validate_input(seqs)
        if len(sset) == 1:
            return Alignment.from_single(sset[0])
        ids = sset.ids

        merge_fn = None
        if self.anchored:
            import functools

            from repro.msa.mafft import anchored_path

            merge_fn = functools.partial(anchored_path, config=self.scoring)

        # Stage 1: draft tree from alignment-free k-mer distances (or any
        # estimator/builder from the repro.distance / repro.tree registries).
        builder = self._tree_builder()
        two_stage = self.two_stage and len(sset) > 2
        # Both walks use the same leaves, scoring and merge_fn, which is
        # what one table may span.
        clades = CladeTable() if two_stage else None
        tree = builder.build(self._distances(list(sset)), ids)
        aln = progressive_align(list(sset), tree, self.scoring,
                                merge_fn=merge_fn, clades=clades)

        # Stage 2: re-estimate distances from the draft, realign the
        # subtrees whose branching order changed.
        if two_stage:
            ident = alignment_identity_matrix(aln)
            d2 = kimura_distance(ident)
            tree = builder.build(d2, aln.ids)
            aln = progressive_align(list(sset), tree, self.scoring,
                                    merge_fn=merge_fn, clades=clades)

        # Stage 3: tree-dependent restricted partitioning.
        if self.refine and len(sset) > 2:
            rng = None if self.seed is None else np.random.default_rng(self.seed)
            aln = refine_alignment(
                aln, tree, self.scoring, max_rounds=self.refine_rounds, rng=rng
            ).alignment
        return aln.select_rows(ids)
