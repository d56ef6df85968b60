"""Alignment engine: DP kernels, profiles, trees, progressive MSA.

- :mod:`repro.align.dp` -- the shared affine-gap DP kernel (Gotoh),
  supporting position-specific gap penalties and scaled terminal gaps.
  One alignment path per kernel: one compiled call per alignment where
  the host can build it, the exactly row-vectorised numpy path where it
  cannot -- for single pairs, profile merges and the ``full-dp``
  distance stage alike.
- :mod:`repro.align.batchdp` -- a fused score-only pass over K dense
  pair problems (no alignments; not re-exported here).
- :mod:`repro.align.pairwise` -- global/local pairwise alignment wrappers.
- :mod:`repro.align.profile` -- :class:`Profile` (column statistics over an
  alignment) and profile merging along a DP path.
- :mod:`repro.align.profile_align` -- profile-profile alignment (the PSP
  scoring MUSCLE popularised; used both by progressive alignment and by the
  paper's ancestor "tweak" step).
- :mod:`repro.align.progressive` -- tree-driven progressive alignment
  (replays a :class:`repro.tree.GuideTree`, which :mod:`repro.tree`
  builds).
- :mod:`repro.align.refine` -- tree-dependent restricted-partitioning
  iterative refinement.
- :mod:`repro.align.consensus` -- consensus/"ancestor" extraction.
- :mod:`repro.align.scoring` -- SP scores (vectorised linear and exact
  affine forms).

This module is itself **callable**: ``repro.align(seqs, engine=name)``
is the unified one-call alignment facade (see
:func:`repro.engine.align`), which makes the natural spelling work even
though ``repro.align`` is also the kernel subpackage.
"""

import sys as _sys
import types as _types

from repro.align.dp import AffineDPResult, affine_align, affine_score
from repro.align.incremental import add_sequence, add_sequences
from repro.align.pairwise import (
    PairwiseResult,
    global_align,
    global_score,
    local_align,
    pairwise_identity,
)
from repro.align.profile import Profile, merge_profiles
from repro.align.profile_align import ProfileAlignConfig, align_profiles
from repro.align.progressive import progressive_align
from repro.align.refine import refine_alignment
from repro.align.consensus import consensus_sequence
from repro.align.scoring import affine_sp_score, sp_score

__all__ = [
    "AffineDPResult",
    "PairwiseResult",
    "Profile",
    "ProfileAlignConfig",
    "add_sequence",
    "add_sequences",
    "affine_align",
    "affine_score",
    "affine_sp_score",
    "align_profiles",
    "consensus_sequence",
    "global_align",
    "global_score",
    "local_align",
    "merge_profiles",
    "pairwise_identity",
    "progressive_align",
    "refine_alignment",
    "sp_score",
]


class _CallableAlignModule(_types.ModuleType):
    """Module type that forwards calls to the unified alignment facade.

    Attribute lookup on a package wins over ``__getattr__`` hooks once
    the subpackage is imported, so ``repro.align`` must *be* callable
    for ``repro.align(seqs, engine=...)`` to work in every import order.
    """

    def __call__(self, *args, **kwargs):
        from repro.engine import align as _align

        return _align(*args, **kwargs)


_sys.modules[__name__].__class__ = _CallableAlignModule
