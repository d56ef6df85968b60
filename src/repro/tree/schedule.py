"""The merge scheduler: a guide tree as a task DAG of independent merges.

Progressive alignment replays a :class:`~repro.tree.GuideTree`'s merge
list strictly in order, but sibling subtrees are
independent: merge ``i`` only needs the profiles of its two children.
:func:`merge_schedule` makes that explicit -- it levels the internal
nodes by dependency depth so that

- every merge appears in exactly one level,
- a merge's level is strictly greater than both children's levels, and
- merges within one level share no nodes (each node is created once and
  consumed once), so they can execute concurrently.

Executing the levels in order with a barrier between them is therefore
equivalent to the serial post-order walk -- the contract the cooperative
progressive merge in :mod:`repro.tree.merge` is built on.  The schedule
also carries the numbers that predict how well a tree parallelises:
``n_levels`` is the critical path (a caterpillar tree degenerates to
``n_merges`` levels, a balanced tree to ``ceil(log2 n)``), ``max_width``
the peak concurrency, and ``mean_parallelism`` the average work per
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.tree.guide_tree import GuideTree

__all__ = ["MergeSchedule", "merge_schedule"]


@dataclass(frozen=True)
class MergeSchedule:
    """Dependency levels over a guide tree's merge steps.

    Attributes
    ----------
    n_leaves:
        Leaf count of the scheduled tree.
    levels:
        Tuple of levels; level ``k`` holds the merge-step indices (row
        indices into ``tree.merges``; step ``i`` creates node
        ``n_leaves + i``) whose children are all available after levels
        ``< k``.  Steps are ascending within a level, so the
        concatenation of all levels is a valid (deterministic)
        topological order.
    """

    n_leaves: int
    levels: Tuple[Tuple[int, ...], ...]

    @property
    def n_merges(self) -> int:
        return self.n_leaves - 1

    @property
    def n_levels(self) -> int:
        """Critical-path length: the serial fraction of the merge walk."""
        return len(self.levels)

    @property
    def max_width(self) -> int:
        """Peak number of concurrently executable merges."""
        return max((len(lv) for lv in self.levels), default=0)

    @property
    def widths(self) -> List[int]:
        return [len(lv) for lv in self.levels]

    @property
    def mean_parallelism(self) -> float:
        """Average merges per level (1.0 = fully serial caterpillar)."""
        if not self.levels:
            return 0.0
        return self.n_merges / self.n_levels

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able schedule statistics (the ``repro trees`` payload)."""
        return {
            "n_leaves": self.n_leaves,
            "n_merges": self.n_merges,
            "n_levels": self.n_levels,
            "max_width": self.max_width,
            "mean_parallelism": self.mean_parallelism,
            "widths": self.widths,
        }


def merge_schedule(tree: GuideTree) -> MergeSchedule:
    """Level/dependency schedule of ``tree``'s progressive merges.

    Level assignment is by dependency depth: leaves sit at depth 0 and
    merge ``i`` at ``1 + max(depth(a), depth(b))`` over its children
    ``(a, b)``.  Grouping merges by depth yields the invariants above
    for *any* valid :class:`GuideTree` (its constructor already enforces
    that children exist before their parent and are consumed once).
    """
    n = tree.n_leaves
    if n == 1:
        return MergeSchedule(1, ())
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    buckets: Dict[int, List[int]] = {}
    for step, (a, b) in enumerate(tree.merges):
        d = 1 + int(max(depth[int(a)], depth[int(b)]))
        depth[n + step] = d
        buckets.setdefault(d, []).append(step)
    levels = tuple(
        tuple(buckets[d]) for d in sorted(buckets)
    )
    return MergeSchedule(n, levels)
