"""Pluggable guide-tree builders behind one registry.

After the distance stage, every progressive aligner must turn an
``(n, n)`` distance matrix into a merge order.  Each builder is a small
frozen dataclass with one job -- a :class:`~repro.tree.GuideTree` from a
distance matrix -- behind the same registry idiom the distance
estimators and execution backends use, so one ``tree=`` string selects
the topology at every layer (baseline configs, ``engine_kwargs``, the
gateway's ``default_tree``, the CLI's ``--tree``).

Registered builders (topology trade-offs):

``upgma``
    Unweighted pair-group (average linkage) clustering -- the MUSCLE
    draft-tree method.  Assumes a molecular clock; O(n^2).
``wpgma``
    Weighted pair-group (McQuitty linkage) clustering: cluster sizes do
    not dilute the update, so sparsely sampled clades keep their pull.
``nj``
    Saitou-Nei neighbour joining, rooted at the final join -- the
    CLUSTALW guide-tree method.  No clock assumption; O(n^3).
``single-linkage``
    Minimum linkage (nearest neighbour chaining) -- the cheapest
    agglomeration and the most caterpillar-prone topology, useful as a
    scheduling stress case (its merge DAG has almost no parallelism).

``upgma``, ``wpgma`` and ``single-linkage`` share one loop, run as one
compiled call when the process has the compiled DP kernel
(:func:`repro.align.dp.kernel`, entry ``agglomerate``) and as the numpy
loop :func:`_agglomerate_numpy` otherwise -- the same bytes either way,
and ``kernel="c"|"numpy"`` on the ``tree.build`` span says which ran.
``nj`` is numpy on both.

The table of names is fixed; a caller with its own builder passes the
instance.  The UPGMA builder is validated against ``scipy.cluster.hierarchy.linkage`` in the test suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence as TSequence,
    Tuple,
    Union,
)

import numpy as np

from repro.align import dp
from repro.distance.tilestore import (
    CondensedMatrix,
    condensed_index,
    condensed_row_indices,
    condensed_size,
)
from repro.obs.tracing import span
from repro.tree.guide_tree import GuideTree

__all__ = [
    "TreeBuilder",
    "UpgmaBuilder",
    "WpgmaBuilder",
    "NeighborJoiningBuilder",
    "SingleLinkageBuilder",
    "available_builders",
    "builder_info",
    "get_builder",
    "DEFAULT_BUILDER",
]

#: The builder used when a caller does not choose one.
DEFAULT_BUILDER = "upgma"


class TreeBuilder(ABC):
    """A guide tree from a distance matrix.

    The contract that keeps every downstream schedule deterministic: the
    tree depends only on the matrix and the labels (plus the builder's
    own configuration), never on execution order.  Instances are small
    frozen dataclasses -- hashable, picklable (they may cross the
    process-backend boundary inside baseline configs), and stateless.
    """

    #: Registry name of the builder.
    name: str = "abstract"

    @abstractmethod
    def build(
        self, dist: np.ndarray, labels: Optional[TSequence[str]] = None
    ) -> GuideTree:
        """Guide tree over ``dist`` (validated square symmetric matrix)."""

    def __call__(
        self, dist: np.ndarray, labels: Optional[TSequence[str]] = None
    ) -> GuideTree:
        return self.build(dist, labels)


def check_distance_matrix(
    d: Union[np.ndarray, CondensedMatrix]
) -> Union[np.ndarray, CondensedMatrix]:
    """Validate a distance input without densifying it.

    Accepts a dense square matrix (returned as a validated float64
    array, as before), a :class:`~repro.distance.tilestore.CondensedMatrix`
    (returned as-is -- symmetry and zero diagonal hold by construction),
    or a 1-D condensed vector in ``np.triu_indices(n, k=1)`` order
    (wrapped into a ``CondensedMatrix``; non-triangular sizes are
    rejected by the wrapper).  Every form must be finite: NaN or
    ``±inf`` is a ``ValueError``, read tile by tile from a
    memmap-backed matrix.
    """
    if not isinstance(d, CondensedMatrix):
        d = np.asarray(d, dtype=np.float64)
        if d.ndim == 1:
            d = CondensedMatrix(d)
    if isinstance(d, CondensedMatrix):
        vec, tile = d.condensed, 1 << 20
        if not all(
            np.isfinite(vec[start:start + tile]).all()
            for start in range(0, vec.size, tile)
        ):
            raise ValueError("distance matrix must be finite")
        return d
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(d).all():
        raise ValueError("distance matrix must be finite")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if (np.diag(d) != 0).any():
        raise ValueError("distance matrix diagonal must be zero")
    return d


def _matrix_size(d: Union[np.ndarray, CondensedMatrix]) -> int:
    return d.n if isinstance(d, CondensedMatrix) else int(d.shape[0])


def _condensed_working(
    d: Union[np.ndarray, CondensedMatrix]
) -> np.ndarray:
    """A mutable float64 condensed working copy of a validated input
    (a dense one is gathered through its strict upper triangle, which
    reads in ``np.triu_indices(n, 1)`` order)."""
    if isinstance(d, CondensedMatrix):
        return np.array(d.condensed, dtype=np.float64)
    return d[~np.tri(d.shape[0], dtype=bool)]


def _resolve_labels(
    n: int, labels: Optional[TSequence[str]]
) -> List[str]:
    labels = list(labels) if labels is not None else [str(i) for i in range(n)]
    if len(labels) != n:
        raise ValueError("labels length must match matrix size")
    return labels


def _agglomerate(
    dist: Union[np.ndarray, CondensedMatrix],
    labels: Optional[TSequence[str]],
    linkage: str,
) -> GuideTree:
    """Agglomerative clustering under ``average``/``weighted``/``single``
    linkage: the compiled loop (:attr:`repro.align.dp.DPKernel.agglomerate`)
    under the ``c`` kernel, :func:`_agglomerate_numpy` under ``numpy``,
    the same bytes either way."""
    d = check_distance_matrix(dist)
    n = _matrix_size(d)
    kern = dp.kernel()
    with span("tree.build", linkage=linkage, n=n, kernel=kern.name):
        labels = _resolve_labels(n, labels)
        if n == 1:
            return GuideTree(1, np.zeros((0, 2)), np.zeros(0), labels)
        w = _condensed_working(d)
        if kern.agglomerate is not None:
            merges, heights = _agglomerate_compiled(
                kern.agglomerate, n, w, linkage
            )
        else:
            merges, heights = _agglomerate_numpy(n, w, linkage)
        return GuideTree(n, merges, heights, labels)


#: The C entry's code for each linkage.
_LINKAGE_CODES = {"average": 0, "weighted": 1, "single": 2}


def _agglomerate_compiled(
    entry: Callable[..., None], n: int, w: np.ndarray, linkage: str
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_agglomerate_numpy` in one compiled call (``n >= 2``): the
    same ``(merges, heights)`` and the same final ``w``, which the call
    rewrites in place."""
    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1)
    work = np.empty(4 * n)
    iwork = np.empty(3 * n, dtype=np.int64)
    entry(
        n, dp._ptr(w, condensed_size(n)), _LINKAGE_CODES[linkage],
        merges.ctypes.data, heights.ctypes.data, work.ctypes.data,
        iwork.ctypes.data,
    )
    return merges, heights


def _agglomerate_numpy(
    n: int, w: np.ndarray, linkage: str
) -> Tuple[np.ndarray, np.ndarray]:
    """``(merges, heights)`` of the clustering of condensed working
    vector ``w`` (``n >= 2``, rewritten in place): the ``numpy`` kernel's
    path, and the reference the compiled one is checked against.

    Condensed-native: the working state is the flat ``n*(n-1)/2`` upper
    triangle (half the dense footprint, and `CondensedMatrix` inputs --
    memmap-backed or not -- never densify).  Rows are gathered on demand
    with ``inf`` at the diagonal and at merged-away positions, which
    reproduces the dense update arithmetic operation-for-operation, so
    trees are byte-identical to the historical dense implementation.

    Close to O(n^2) time in practice via nearest-neighbour caching: each
    cluster remembers its current nearest partner and only clusters
    whose partner was invalidated rescan their row.  The cache is sound
    for all three linkages because the distance from any row to the
    merged cluster (size-weighted mean, plain mean, or minimum of the
    two old entries) can never drop below that row's cached minimum.
    """
    INF = np.inf

    def gather(r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ``r`` as (condensed offsets, columns, dense row with
        ``inf`` at the diagonal).  Merged-away entries read ``inf``
        straight from ``w`` -- no activity mask needed."""
        idx, cols = condensed_row_indices(n, r)
        row = np.empty(n, dtype=np.float64)
        row[cols] = w[idx]
        row[r] = INF
        return idx, cols, row

    active = np.ones(n, dtype=bool)
    node_id = np.arange(n)  # tree node id of each active row
    sizes = np.ones(n)
    nn = np.empty(n, dtype=np.int64)
    nn_dist = np.empty(n, dtype=np.float64)
    for r in range(n):
        _, _, row = gather(r)
        c = int(row.argmin())
        nn[r], nn_dist[r] = c, row[c]

    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1)
    next_id = n
    for step in range(n - 1):
        # Caches are refreshed eagerly after every merge, so the cached
        # global minimum is always a valid closest pair.
        masked = np.where(active, nn_dist, INF)
        i = int(masked.argmin())
        j = int(nn[i])
        h = float(w[condensed_index(n, i, j)])
        merges[step] = (node_id[i], node_id[j])
        heights[step] = h / 2.0

        # Merge j into i under the selected linkage update.
        idx_i, cols_i, row_i = gather(i)
        idx_j, _, row_j = gather(j)
        if linkage == "weighted":
            new_row = 0.5 * (row_i + row_j)
        elif linkage == "single":
            new_row = np.minimum(row_i, row_j)
        else:  # average
            new_row = (
                sizes[i] * row_i + sizes[j] * row_j
            ) / (sizes[i] + sizes[j])
        new_row[i] = INF
        w[idx_i] = new_row[cols_i]
        w[idx_j] = INF
        active[j] = False
        sizes[i] += sizes[j]
        node_id[i] = next_id
        next_id += 1

        if step == n - 2:
            break
        # Refresh caches: row i always; any row whose partner was i or j.
        stale = np.flatnonzero(active & ((nn == i) | (nn == j)))
        for r in np.concatenate(([i], stale)):
            if not active[r]:
                continue
            _, _, row = gather(r)
            c = int(row.argmin())
            nn[r], nn_dist[r] = c, row[c]
    return merges, heights


def _agglomeration_reproduces_numpy(entry: Callable[..., None]) -> bool:
    """Does ``entry`` (:attr:`repro.align.dp.DPKernel.agglomerate`) give
    :func:`_agglomerate_numpy`'s merges and heights, byte for byte, on
    the probe matrix under every linkage?

    The matrix is made of what a compiled agglomeration could get wrong:
    two clusters of zero distances, {0, 1, 2} and {3, 4, 5}, each with
    one pair of the other sign, so a single-linkage height keeps the
    zero ``np.minimum`` chose on a ``±0.0`` tie (either way round); ties
    everywhere, which only ``np.argmin``'s first minimum settles (the
    closest pair's two rows always tie); and tenths between the
    clusters, whose size-weighted means round by the order of the
    operations.  The probe's rows are short, so numpy's choice on a
    ``±0.0`` tie is also checked on rows as long as a real tree's, where
    its vector loop runs.
    """
    zeros = np.zeros(67)
    for a, b in ((zeros, -zeros), (-zeros, zeros)):
        if np.minimum(a, b).tobytes() != b.tobytes():
            return False
    d = np.zeros((6, 6))
    d[:3, 3:] = [[0.1, 0.2, 0.3], [0.7, 0.1, 0.3], [0.2, 0.2, 0.7]]
    d[1, 2] = d[3, 4] = d[3, 5] = -0.0
    w = d[~np.tri(6, dtype=bool)]  # the upper triangle, condensed
    for linkage in _LINKAGE_CODES:
        expected = _agglomerate_numpy(6, w.copy(), linkage)
        got = _agglomerate_compiled(entry, 6, w.copy(), linkage)
        if any(a.tobytes() != b.tobytes() for a, b in zip(got, expected)):
            return False
    return True


@dataclass(frozen=True)
class UpgmaBuilder(TreeBuilder):
    """Unweighted pair-group clustering (average linkage) -- the MUSCLE
    draft-tree method."""

    name = "upgma"

    def build(
        self, dist: np.ndarray, labels: Optional[TSequence[str]] = None
    ) -> GuideTree:
        return _agglomerate(dist, labels, linkage="average")


@dataclass(frozen=True)
class WpgmaBuilder(TreeBuilder):
    """Weighted pair-group clustering (McQuitty linkage)."""

    name = "wpgma"

    def build(
        self, dist: np.ndarray, labels: Optional[TSequence[str]] = None
    ) -> GuideTree:
        return _agglomerate(dist, labels, linkage="weighted")


@dataclass(frozen=True)
class SingleLinkageBuilder(TreeBuilder):
    """Minimum-linkage (nearest neighbour) clustering.

    The merged cluster's distance to any other is the minimum of its two
    children's -- chaining-prone, which makes it the adversarial input
    for the merge scheduler (deep caterpillar DAGs with level width 1).
    """

    name = "single-linkage"

    def build(
        self, dist: np.ndarray, labels: Optional[TSequence[str]] = None
    ) -> GuideTree:
        return _agglomerate(dist, labels, linkage="single")


@dataclass(frozen=True)
class NeighborJoiningBuilder(TreeBuilder):
    """Saitou-Nei neighbour joining, rooted at the final join.

    The CLUSTALW-style guide-tree method.  O(n^3) with vectorised
    Q-matrix updates; branch lengths are folded into node heights (max
    child height plus branch), which is all downstream consumers need.
    """

    name = "nj"

    def build(
        self, dist: np.ndarray, labels: Optional[TSequence[str]] = None
    ) -> GuideTree:
        d = check_distance_matrix(dist)
        # NJ has no compiled path: numpy under either kernel.
        with span(
            "tree.build", linkage="nj", n=_matrix_size(d), kernel="numpy"
        ):
            return self._build(d, labels)

    def _build(
        self,
        d: Union[np.ndarray, CondensedMatrix],
        labels: Optional[TSequence[str]] = None,
    ) -> GuideTree:
        # NJ is O(n^3) with dense submatrix gathers at every join; any
        # input large enough for densifying to hurt is already out of
        # reach for this builder, so condensed input just densifies.
        d = d.to_dense() if isinstance(d, CondensedMatrix) else d.copy()
        n = d.shape[0]
        labels = _resolve_labels(n, labels)
        if n == 1:
            return GuideTree(1, np.zeros((0, 2)), np.zeros(0), labels)

        active = list(range(n))
        node_id = np.arange(n)
        node_height = np.zeros(2 * n - 1)
        merges: List[Tuple[int, int]] = []
        heights: List[float] = []
        next_id = n

        while len(active) > 2:
            idx = np.array(active)
            sub = d[np.ix_(idx, idx)]
            r = sub.sum(axis=1)
            m = len(active)
            q = (m - 2) * sub - r[:, None] - r[None, :]
            np.fill_diagonal(q, np.inf)
            a, b = np.unravel_index(int(q.argmin()), q.shape)
            ia, ib = idx[a], idx[b]
            dab = d[ia, ib]
            # Branch lengths to the new internal node.
            la = 0.5 * dab + (r[a] - r[b]) / (2 * (m - 2))
            lb = dab - la
            la, lb = max(la, 0.0), max(lb, 0.0)

            merges.append((int(node_id[ia]), int(node_id[ib])))
            h = max(
                node_height[node_id[ia]] + la, node_height[node_id[ib]] + lb
            )
            heights.append(h)
            node_height[next_id] = h

            # Distances from the new node to the remaining ones.
            rest = [x for x in active if x not in (ia, ib)]
            for x in rest:
                d[ia, x] = d[x, ia] = 0.5 * (d[ia, x] + d[ib, x] - dab)
            node_id[ia] = next_id
            next_id += 1
            active.remove(ib)

        ia, ib = active
        merges.append((int(node_id[ia]), int(node_id[ib])))
        heights.append(
            max(node_height[node_id[ia]], node_height[node_id[ib]])
            + d[ia, ib] / 2.0
        )
        return GuideTree(n, np.array(merges), np.array(heights), labels)


# ---------------------------------------------------------------------------
# Selection by name.


@dataclass(frozen=True)
class _BuilderEntry:
    name: str
    factory: Callable[..., TreeBuilder]
    description: str


def _anchor_builder(**kwargs: Any) -> TreeBuilder:
    """Import :mod:`repro.tree.anchors` on first use, not at module
    import: it builds on this module, so the dependency stays one-way."""
    from repro.tree.anchors import AnchorTreeBuilder

    return AnchorTreeBuilder(**kwargs)


#: The builders by name, a fixed table.
_BUILDERS: Dict[str, _BuilderEntry] = {
    entry.name: entry
    for entry in (
        _BuilderEntry(
            "upgma",
            UpgmaBuilder,
            "average-linkage clustering (MUSCLE draft tree); "
            "clock-assuming, O(n^2), balanced merge DAGs",
        ),
        _BuilderEntry(
            "wpgma",
            WpgmaBuilder,
            "weighted (McQuitty) linkage; like upgma but cluster sizes "
            "do not dilute the update",
        ),
        _BuilderEntry(
            "nj",
            NeighborJoiningBuilder,
            "Saitou-Nei neighbour joining rooted at the final join "
            "(CLUSTALW method); no clock assumption, O(n^3)",
        ),
        _BuilderEntry(
            "single-linkage",
            SingleLinkageBuilder,
            "minimum linkage (nearest-neighbour chaining); cheapest, "
            "caterpillar-prone -- the merge scheduler's worst case",
        ),
        _BuilderEntry(
            "anchor",
            _anchor_builder,
            "sampled guide tree from K anchor rows (exact base tree over "
            "the anchors, remaining leaves chained to their nearest "
            "anchor); O(K*N) distances, the genome-scale path",
        ),
    )
}


def available_builders() -> List[str]:
    """Sorted names of the tree builders."""
    return sorted(_BUILDERS)


def builder_info() -> Dict[str, str]:
    """``{name: one-line topology description}``, name-sorted."""
    return {
        name: _BUILDERS[name].description for name in sorted(_BUILDERS)
    }


def get_builder(
    builder: Union[str, TreeBuilder, None] = None, **kwargs: Any
) -> TreeBuilder:
    """Resolve a builder selection to an instance.

    ``None`` means :data:`DEFAULT_BUILDER`; a name resolves through
    the fixed table (``kwargs`` feed the constructor); a :class:`TreeBuilder`
    instance passes through (``kwargs`` must then be empty).
    """
    if isinstance(builder, TreeBuilder):
        if kwargs:
            raise ValueError(
                "cannot combine a builder instance with constructor "
                f"kwargs {sorted(kwargs)}"
            )
        return builder
    if builder is None:
        builder = DEFAULT_BUILDER
    try:
        entry = _BUILDERS[str(builder).lower()]
    except KeyError:
        raise KeyError(
            f"unknown tree builder {builder!r}; "
            f"available: {available_builders()}"
        ) from None
    try:
        return entry.factory(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"bad options for tree builder {entry.name!r}: {exc}"
        ) from None
