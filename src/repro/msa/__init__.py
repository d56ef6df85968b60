"""Sequential multiple-sequence-alignment systems.

These are complete, from-scratch reimplementations of the characteristic
algorithmic cores of the systems the paper uses and compares against
(Table 2), all built on :mod:`repro.align`:

- :class:`MuscleLike` -- MUSCLE's three stages: k-mer draft tree +
  progressive, Kimura-distance re-estimated tree + re-progressive, and
  tree-dependent iterative refinement.  ``refine=False`` gives the paper's
  "MUSCLE-p" (progressive-only) comparator.
- :class:`ClustalWLike` -- full-DP (or k-tuple) distances, neighbour
  joining, branch-length sequence weights, weighted progressive alignment.
- :class:`TCoffeeLike` -- pairwise consistency library with triplet
  extension, library-scored progressive alignment.
- :class:`MafftLike` -- 6-mer distances + NJ + progressive + iterative
  refinement; ``mode="fftnsi"`` adds FFT correlation anchoring of the DP
  (MAFFT's signature trick), ``mode="nwnsi"`` runs the full DP.
- :class:`CenterStar` -- the classic center-star approximation (cheap
  baseline and default unit-test workhorse).

Every aligner implements :class:`SequentialMsaAligner` and can be plugged
into Sample-Align-D as the per-processor local aligner (paper: "align
sequences in each processor using any sequential multiple alignment
system").

The guide-tree baselines (all but T-Coffee) share one pipeline,
:class:`~repro.msa.base.GuideTreeStages`: ``distance=`` picks and places
the all-pairs stage (:mod:`repro.distance`), ``tree=`` the builder and
the merge schedule (:mod:`repro.tree`); each takes a registry name, a
config or its dict form.  Execution backends give byte-identical output.
"""

from repro.msa.base import SequentialMsaAligner
from repro.msa.muscle import MuscleLike
from repro.msa.clustalw import ClustalWLike
from repro.msa.tcoffee import TCoffeeLike
from repro.msa.mafft import MafftLike
from repro.msa.centerstar import CenterStar
from repro.msa.parallel_baseline import ParallelBaselineResult, ParallelClustalW
from repro.msa.registry import (
    available_aligners,
    get_aligner,
    register_aligner,
    unregister_aligner,
)

__all__ = [
    "CenterStar",
    "ClustalWLike",
    "MafftLike",
    "MuscleLike",
    "ParallelBaselineResult",
    "ParallelClustalW",
    "SequentialMsaAligner",
    "TCoffeeLike",
    "available_aligners",
    "get_aligner",
    "register_aligner",
    "unregister_aligner",
]
