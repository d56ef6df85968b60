"""Post-glue refinement (the paper's section-5 future work).

The paper closes by noting that *"there might always be a need to refine
the 'global' multiple sequence alignment for some of the most divergent
families"* and sketches sequential refinement heuristics to be
parallelised later.  This module implements that extension:

- :func:`refine_buckets_spmd` -- each rank runs tree-dependent iterative
  refinement on its *own bucket alignment* before the tweak step
  (embarrassingly parallel, zero extra communication);
- :func:`bucket_level_refine` -- after the glue, the root realigns each
  bucket's row block as one frozen profile against the rest of the MSA,
  accepting sum-of-pairs improvements.  This is restricted partitioning
  at bucket granularity: cheap (p partitions, not N) yet able to fix
  exactly the cross-bucket seams that domain decomposition can misplace.

Both are wired into :class:`~repro.core.config.SampleAlignDConfig` via
``refine_local_rounds`` and ``post_refine_rounds``.
"""

from __future__ import annotations

from typing import List, Sequence as TSequence

import numpy as np

from repro.align.profile_align import ProfileAlignConfig
from repro.align.refine import refine_alignment, refine_splits
from repro.distance import all_pairs
from repro.seq.alignment import Alignment
from repro.tree.builders import UpgmaBuilder

__all__ = ["refine_bucket_alignment", "bucket_level_refine"]


def refine_bucket_alignment(
    aln: Alignment,
    scoring: ProfileAlignConfig,
    rounds: int,
    seed: int | None = 0,
) -> Alignment:
    """Tree-dependent refinement of one bucket's alignment (rank-local).

    Builds a fresh k-mer guide tree over the bucket members and sweeps
    its partitions ``rounds`` times; a no-op for trivial alignments.
    """
    if rounds <= 0 or aln.n_rows < 3:
        return aln
    seqs = list(aln.ungapped())
    tree = UpgmaBuilder().build(
        all_pairs(seqs, "ktuple"), [s.id for s in seqs]
    )
    rng = None if seed is None else np.random.default_rng(seed)
    return refine_alignment(
        aln, tree, scoring, max_rounds=rounds, rng=rng
    ).alignment


def bucket_level_refine(
    glued: Alignment,
    bucket_ids: TSequence[List[str]],
    scoring: ProfileAlignConfig,
    rounds: int = 1,
    gap_penalty: float = 1.0,
) -> Alignment:
    """Root-side restricted partitioning over bucket row-blocks.

    For every bucket (in order, ``rounds`` sweeps): realign its rows
    against the rest of the glued alignment -- the same partition step
    as :func:`repro.align.refine.refine_alignment`, with the bucket's row
    block as one side -- and keep the result when the linear
    sum-of-pairs score strictly improves.  Ids not in ``glued`` are
    ignored; a bucket with no rows, or with every row, is skipped.
    """
    if rounds <= 0:
        return glued
    row_of = {rid: i for i, rid in enumerate(glued.ids)}
    splits = [
        np.array([row_of[i] for i in ids if i in row_of], dtype=np.int64)
        for ids in bucket_ids
    ]
    return refine_splits(
        glued, splits, scoring, max_rounds=rounds, gap_penalty=gap_penalty
    ).alignment
