"""One guide-tree subsystem for every aligner.

This package unifies the guide-tree stage of every aligner -- tree
construction plus the progressive merge walk -- the same way
:mod:`repro.distance` unified the stage before it:

- :mod:`~repro.tree.guide_tree` -- :class:`GuideTree`, the rooted
  binary merge order every stage below consumes, and its Newick reader
  and writer.
- :mod:`~repro.tree.builders` -- the :class:`TreeBuilder` protocol and
  registry (``upgma``, ``wpgma``, ``nj``, ``single-linkage``), each a
  small picklable dataclass turning a distance matrix into a
  :class:`GuideTree`.
- :mod:`~repro.tree.schedule` -- :func:`merge_schedule`, the
  level/dependency scheduler that turns any ``GuideTree`` into a task
  DAG of independent profile-profile merges (every internal node
  scheduled exactly once, after both children).
- :mod:`~repro.tree.merge` -- :func:`progressive_merge`, which folds
  leaf profiles up the tree serially where its caller runs, or
  cooperatively inside an existing SPMD program (``comm=``) -- both
  producing byte-identical alignments.
- :mod:`~repro.tree.config` -- :class:`TreeConfig`, the validated,
  dict-round-trippable form that travels through ``engine_kwargs`` and
  baseline configs.

Every guide-tree baseline (ClustalW-like, MUSCLE-like, MAFFT-like,
center-star, the stage-parallel CLUSTALW) routes its tree stage through
here via its ``tree=`` spec (a name, a :class:`TreeConfig` or its dict
form), so one ``--tree`` flag picks the builder of any of them.
"""

# First: repro.align imports GuideTree while this package initialises.
from repro.tree.guide_tree import GuideTree
from repro.tree.anchors import (
    AnchorTreeBuilder,
    anchor_guide_tree,
    select_anchors,
)
from repro.tree.builders import (
    DEFAULT_BUILDER,
    NeighborJoiningBuilder,
    SingleLinkageBuilder,
    TreeBuilder,
    UpgmaBuilder,
    WpgmaBuilder,
    available_builders,
    builder_info,
    check_distance_matrix,
    get_builder,
)
from repro.tree.config import STAGE_CONFIGS, TreeConfig, resolve_tree_stage
from repro.tree.merge import progressive_merge
from repro.tree.schedule import MergeSchedule, merge_schedule

__all__ = [
    "AnchorTreeBuilder",
    "DEFAULT_BUILDER",
    "GuideTree",
    "MergeSchedule",
    "STAGE_CONFIGS",
    "anchor_guide_tree",
    "select_anchors",
    "NeighborJoiningBuilder",
    "SingleLinkageBuilder",
    "TreeBuilder",
    "TreeConfig",
    "UpgmaBuilder",
    "WpgmaBuilder",
    "available_builders",
    "builder_info",
    "check_distance_matrix",
    "get_builder",
    "merge_schedule",
    "progressive_merge",
    "resolve_tree_stage",
]
