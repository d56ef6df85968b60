"""One distance subsystem for every aligner.

The all-pairs distance stage is the scalability wall of guide-tree MSA
-- the very problem the source paper attacks -- yet it used to be
computed serially through three overlapping code paths.  This package
unifies them:

- :mod:`~repro.distance.estimators` -- the
  :class:`DistanceEstimator` protocol and registry (``ktuple``,
  ``kmer-fraction``, ``full-dp``), each a small picklable
  dataclass computing distances for arbitrary pair-index arrays.
- :mod:`~repro.distance.transforms` -- the shared identity
  post-transforms (``linear``, ``kimura``) plus the alignment-derived
  identity matrix (MUSCLE stage 2).
- :mod:`~repro.distance.allpairs` -- :func:`all_pairs`, the tiled
  scheduler that runs the condensed upper triangle serially, on the
  execution backends (``backend="threads"|"pool"``, ``workers=N``),
  or cooperatively inside an existing SPMD program (``comm=``); left
  unset, it picks serial or ``threads``
  (:func:`~repro.distance.allpairs.auto_workers`) --
  always producing byte-identical matrices, placed in RAM (dense or
  condensed) or on disk (``out="memmap"``).
- :mod:`~repro.distance.tilestore` -- the external-memory layer:
  :class:`TileStore` (atomic, resumable, corruption-tolerant per-tile
  files) and :class:`CondensedMatrix` (matrix reads over the condensed
  vector -- in RAM or memmap -- with O(gather) working memory).
- :mod:`~repro.distance.config` -- :class:`DistanceConfig`, the
  validated, dict-round-trippable form that travels through
  ``engine_kwargs`` and baseline configs.

Every guide-tree baseline (ClustalW-like, MUSCLE-like, MAFFT-like,
center-star, the stage-parallel CLUSTALW) routes its distance stage
through here via its ``distance=`` spec (a name, a
:class:`DistanceConfig` or its dict form), so one
``--distance-backend pool`` flag puts the distance stage of any of
them on real cores.
"""

from repro.distance.allpairs import (
    DEFAULT_TILE_PAIRS,
    OUT_MODES,
    all_pairs,
    condensed_pair_indices,
)
from repro.distance.config import (
    DistanceConfig,
    resolve_distance_stage,
    scoring_estimator_defaults,
    validate_backend_name,
)
from repro.distance.estimators import (
    DEFAULT_ESTIMATOR,
    DistanceEstimator,
    FullDpDistance,
    KmerFractionDistance,
    KtupleDistance,
    available_estimators,
    estimator_info,
    get_estimator,
)
from repro.distance.tilestore import (
    CondensedMatrix,
    TileStore,
    condensed_index,
    condensed_size,
    condensed_tile_indices,
)
from repro.distance.transforms import (
    TRANSFORMS,
    alignment_identity_matrix,
    fractional_identity_estimate,
    identity_to_distance,
    kimura_distance,
)

__all__ = [
    "DEFAULT_ESTIMATOR",
    "DEFAULT_TILE_PAIRS",
    "CondensedMatrix",
    "DistanceConfig",
    "DistanceEstimator",
    "FullDpDistance",
    "KmerFractionDistance",
    "KtupleDistance",
    "OUT_MODES",
    "TRANSFORMS",
    "TileStore",
    "alignment_identity_matrix",
    "all_pairs",
    "available_estimators",
    "condensed_index",
    "condensed_pair_indices",
    "condensed_size",
    "condensed_tile_indices",
    "estimator_info",
    "fractional_identity_estimate",
    "get_estimator",
    "identity_to_distance",
    "kimura_distance",
    "resolve_distance_stage",
    "scoring_estimator_defaults",
    "validate_backend_name",
]
