"""Anchored sampled guide trees: O(K*N) distances instead of O(N^2).

The paper's scaling argument rests on sampling: a guide tree does not
need every pairwise distance, only enough structure to order the
progressive merges.  This module implements that idea as a regular
:class:`~repro.tree.builders.TreeBuilder` --

1. choose ``K`` **anchor** leaves (seeded random sample, or evenly
   spaced when ``seed=None``),
2. build an exact tree over the ``K x K`` anchor submatrix with any
   registered base builder (``upgma`` by default),
3. attach every remaining leaf to its nearest anchor, chained in
   deterministic ``(distance, leaf-id)`` order below that anchor.

Registered as ``"anchor"``, the builder accepts a full dense or
:class:`~repro.distance.tilestore.CondensedMatrix` input and reads only
the ``K`` anchor rows from it -- memmap-backed matrices never page in
more than ``O(K*N)`` values.  :func:`anchor_guide_tree` goes one step
further for the genome-scale path: it computes *only* the ``K x N``
anchor rectangle straight from the sequences, so neither the distance
stage nor the tree stage ever touches ``O(N^2)`` work or memory.

``anchors >= n`` degenerates to the base builder exactly (same
topology, same heights), which is the invariant the equivalence tests
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence as TSequence, Union

import numpy as np

from repro.distance.estimators import DistanceEstimator, get_estimator
from repro.distance.tilestore import CondensedMatrix
from repro.obs.tracing import span
from repro.tree.guide_tree import GuideTree
from repro.tree.builders import (
    TreeBuilder,
    _matrix_size,
    check_distance_matrix,
    get_builder,
)

__all__ = ["AnchorTreeBuilder", "anchor_guide_tree", "select_anchors"]


def select_anchors(n: int, anchors: int, seed: Optional[int]) -> np.ndarray:
    """Sorted anchor leaf ids: ``min(anchors, n)`` of ``n`` leaves.

    ``seed=None`` picks evenly spaced leaves (deterministic without
    randomness); otherwise a seeded sample without replacement.  Either
    way the result is sorted, so the anchor-local numbering -- and with
    it the final tree -- is a pure function of ``(n, anchors, seed)``.
    """
    if anchors < 1:
        raise ValueError(f"anchors must be >= 1, got {anchors}")
    k = min(int(anchors), int(n))
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if seed is None:
        # floor(t * n / k) is strictly increasing for k <= n: distinct.
        return (np.arange(k, dtype=np.int64) * n) // k
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)


def _anchor_rows(
    dist: Union[np.ndarray, CondensedMatrix], anchor_idx: np.ndarray
) -> np.ndarray:
    """The ``(K, n)`` rectangle of anchor rows from a validated input."""
    if isinstance(dist, CondensedMatrix):
        return dist.rows(anchor_idx)
    return np.ascontiguousarray(dist[anchor_idx, :], dtype=np.float64)


def _assemble_tree(
    n: int,
    anchor_idx: np.ndarray,
    rect: np.ndarray,
    base: TreeBuilder,
    labels: Optional[TSequence[str]],
) -> GuideTree:
    """Tree over ``n`` leaves from the anchor rectangle ``rect``.

    Merge layout: first every non-anchor leaf chains below its nearest
    anchor (ties to the lowest anchor id; chain order by ``(distance,
    leaf id)``), then the base tree's merges replay over the chain
    roots.  Children always predate their parent node id, which is what
    :class:`GuideTree` validation demands.
    """
    k = len(anchor_idx)
    label_list = (
        list(labels) if labels is not None else [str(i) for i in range(n)]
    )
    if len(label_list) != n:
        raise ValueError("labels length must match matrix size")

    base_tree = base.build(rect[:, anchor_idx])

    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[anchor_idx] = True
    non = np.flatnonzero(~is_anchor)
    nearest = (
        rect[:, non].argmin(axis=0) if non.size else np.zeros(0, np.int64)
    )

    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)
    step = 0
    next_id = n
    chain_root = np.array(anchor_idx)  # anchor-local -> global node id
    for a_local in range(k):
        leaves = non[nearest == a_local]
        if not leaves.size:
            continue
        dists = rect[a_local, leaves]
        order = np.lexsort((leaves, dists))
        cur = int(anchor_idx[a_local])
        for leaf, dist in zip(leaves[order], dists[order]):
            merges[step] = (cur, int(leaf))
            heights[step] = dist / 2.0
            cur = next_id
            next_id += 1
            step += 1
        chain_root[a_local] = cur

    base_internal: List[int] = []
    for t in range(k - 1):
        x, y = base_tree.merges[t]
        gx = int(chain_root[x]) if x < k else base_internal[int(x) - k]
        gy = int(chain_root[y]) if y < k else base_internal[int(y) - k]
        merges[step] = (gx, gy)
        heights[step] = base_tree.heights[t]
        base_internal.append(next_id)
        next_id += 1
        step += 1

    return GuideTree(n, merges, heights, label_list)


@dataclass(frozen=True)
class AnchorTreeBuilder(TreeBuilder):
    """Sampled guide tree from ``K`` anchor rows.

    Parameters
    ----------
    anchors:
        Number of anchor leaves ``K``.  ``K >= n`` falls back to the
        exact base builder.
    base:
        Registry name of the builder used for the exact tree over the
        anchors (any registered builder except ``anchor`` itself).
    seed:
        Sampling seed; ``None`` selects evenly spaced anchors instead.
    """

    anchors: int = 64
    base: str = "upgma"
    seed: Optional[int] = 0

    name = "anchor"

    def __post_init__(self) -> None:
        if self.anchors < 1:
            raise ValueError(f"anchors must be >= 1, got {self.anchors}")
        if str(self.base).lower() == "anchor":
            raise ValueError("anchor builder cannot use itself as base")

    def build(
        self,
        dist: Union[np.ndarray, CondensedMatrix],
        labels: Optional[TSequence[str]] = None,
    ) -> GuideTree:
        d = check_distance_matrix(dist)
        n = _matrix_size(d)
        base = get_builder(self.base)
        with span(
            "tree.build",
            linkage="anchor",
            n=n,
            anchors=min(self.anchors, n),
            base=base.name,
            kernel="numpy",  # the assembly; the base build has its own span
        ):
            if self.anchors >= n:
                return base.build(d, labels)
            anchor_idx = select_anchors(n, self.anchors, self.seed)
            rect = _anchor_rows(d, anchor_idx)
            return _assemble_tree(n, anchor_idx, rect, base, labels)


def anchor_guide_tree(
    seqs: TSequence[Any],
    estimator: Union[str, DistanceEstimator, None] = None,
    *,
    anchors: int = 64,
    base: str = "upgma",
    seed: Optional[int] = 0,
    labels: Optional[TSequence[str]] = None,
    **estimator_kwargs: Any,
) -> GuideTree:
    """Guide tree straight from sequences via the ``K x N`` rectangle.

    Computes only the anchor rows with the estimator (``O(K*N)`` pair
    evaluations) -- the true genome-scale path, where even a condensed
    ``O(N^2)`` distance pass is too expensive.  Values come from the
    same ``pair_distances`` contract as :func:`~repro.distance.all_pairs`,
    so for ``anchors >= n`` the result matches the exact pipeline's
    tree.
    """
    est = get_estimator(estimator, **estimator_kwargs)
    n = len(seqs)
    if n == 0:
        raise ValueError("need at least one sequence")
    if n == 1:
        label_list = list(labels) if labels is not None else ["0"]
        return GuideTree(1, np.zeros((0, 2)), np.zeros(0), label_list)
    anchor_idx = select_anchors(n, anchors, seed)
    k = len(anchor_idx)
    base_builder = get_builder(base)
    with span(
        "tree.anchor_rect", n=n, anchors=k, estimator=est.name
    ):
        state = est.prepare(seqs)
        rect = np.zeros((k, n), dtype=np.float64)
        others = np.arange(n, dtype=np.int64)
        for a_local, a in enumerate(anchor_idx):
            jj = others[others != a]
            ii = np.full(jj.size, a, dtype=np.int64)
            rect[a_local, jj] = est.pair_distances(seqs, ii, jj, state)
    if k >= n:
        return base_builder.build(rect, labels)
    return _assemble_tree(n, anchor_idx, rect, base_builder, labels)
