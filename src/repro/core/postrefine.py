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

from repro.align.guide_tree import upgma
from repro.align.profile import Profile
from repro.align.profile_align import ProfileAlignConfig, align_profiles
from repro.align.refine import refine_alignment
from repro.align.scoring import sp_score
from repro.distance import all_pairs
from repro.seq.alignment import Alignment

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
    tree = upgma(all_pairs(seqs, "ktuple"), [s.id for s in seqs])
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

    For every bucket (in order, ``rounds`` sweeps): pull its rows out of
    the glued alignment, strip both sides' all-gap columns, realign block
    vs rest as profiles, keep the result when the linear sum-of-pairs
    score strictly improves.
    """
    if rounds <= 0:
        return glued
    current = glued
    current_score = sp_score(current, scoring.matrix, gap_penalty)
    all_ids = set(current.ids)
    for _ in range(rounds):
        improved = False
        for ids in bucket_ids:
            ids = [i for i in ids if i in all_ids]
            if not ids or len(ids) == current.n_rows:
                continue
            rest = [i for i in current.ids if i not in set(ids)]
            block = current.select_rows(ids).drop_all_gap_columns()
            other = current.select_rows(rest).drop_all_gap_columns()
            merged, _res = align_profiles(
                Profile(block), Profile(other), scoring
            )
            candidate = merged.alignment.select_rows(current.ids)
            score = sp_score(candidate, scoring.matrix, gap_penalty)
            if score > current_score + 1e-9:
                current, current_score = candidate, score
                improved = True
        if not improved:
            break
    return current
