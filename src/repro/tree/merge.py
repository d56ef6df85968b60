"""The progressive merge walk: serial, or cooperative inside SPMD ranks.

``progressive_merge(profiles, tree, merge_node)`` folds the leaf
profiles up the guide tree -- for
:func:`~repro.align.progressive.progressive_align`, one leaf
:class:`~repro.align.profile.Clade` each (a code matrix, integer column
counts and a row order) -- in one of two modes:

- **serially** (the default -- the classic post-order walk, no
  scheduler overhead), in whatever process or rank calls it;
- **cooperatively inside an existing SPMD program** (``comm=...`` --
  ranks split each level of the :func:`~repro.tree.schedule.merge_schedule`
  cyclically and allgather the merged profiles, which is how a
  rank-parallel baseline can lift its sequential stage-3 Amdahl cap
  through this same subsystem).

The walk has no placement of its own: Sample-Align-D parallelises
across buckets and aligns each bucket sequentially, and a merge is
about 100 µs of compiled DP -- too little to pay for handing nodes
between ranks of a backend of its own.

Both modes merge node by node, one ``tree.merge_node`` span per merge;
the ``tree.merge`` span names the DP kernel (``kernel=c|numpy``), which
decides how each merge's path is applied
(:func:`repro.align.dp.apply_path`).  Cooperative ranks exchange nodes
as they pickle: a clade travels as its codes and counts (plus
reweighted frequencies), never as an alignment.

Clade reuse: a caller that walks several trees over the *same* leaf
profiles with the *same* ``merge_node`` (MUSCLE's stage 1 and stage 2)
may hand every walk one :class:`CladeTable` (``clades=``).  A walk
records each merged clade's code matrix under its ordered clade -- a
leaf is its label, an internal node the pair (left clade, right clade)
-- and, before it schedules anything, prunes the tree top-down from the
root: a node whose clade is in the table is rebuilt from the stored
codes and nothing beneath it runs.  Both modes reuse (in the
cooperative one every rank holds every profile, so every rank's table
agrees).

Determinism contract: a merge's output depends only on its two child
profiles and the ``merge_node`` callable (which must itself be
deterministic) -- hence only on the node's ordered subtree -- and every
internal node is computed at most once per table (exactly once with no
table) -- so the serial and cooperative walks produce
**byte-identical** alignments for any rank count, with or without a
table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence as TSequence

from repro.align.dp import kernel
from repro.align.profile import Clade, Profile
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span
from repro.tree.guide_tree import GuideTree
from repro.tree.schedule import merge_schedule

__all__ = ["CladeTable", "progressive_merge"]

#: ``merge_node(step, pa, pb) -> Profile`` -- the per-node merge.
MergeNode = Callable[[int, Profile, Profile], Profile]

# Internal nodes a walk took from its clade table instead of merging
# (the reused node and everything beneath it).
_REUSED_NODES = _obs_registry().counter("tree.merge_reused_nodes")


def _clade_bytes(clade: Clade) -> int:
    return (
        clade.codes.nbytes
        + clade.counts.nbytes
        + clade.frequencies.nbytes
        + clade.occupancy.nbytes
    )


class CladeTable:
    """Merged clades of one aligner call, keyed by ordered clade.

    Valid only across walks that start from the same leaf clades
    (leaves are keyed by label alone) and use the same ``merge_node``;
    in a cooperative walk every rank brings its own table.  Clades are
    interned to ints as they are first seen, so a node's key is a pair
    of ints whatever its depth and a caterpillar tree costs O(N).

    Only a merged clade's code matrix (and its row order) is kept -- a
    few uint8 rows, where the clade's count and frequency arrays cost
    some 340 bytes a column -- and a hit recounts its rows.  That is
    exact for every merge whose frequencies come from its counts;
    row-weighted merges (CLUSTALW) replace them and must not use a
    table.

    Retention is bounded by what a walk already holds: a walk records
    bottom-up and recording stops for good once the retained bytes
    exceed the bytes of that walk's leaf profiles, so the small clades
    -- the ones that recur -- are the ones kept.
    """

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}
        self._kept: Dict[int, tuple] = {}
        self.retained_bytes = 0

    def __len__(self) -> int:
        return len(self._kept)

    def node_keys(self, tree: GuideTree) -> List[int]:
        """The interned clade of every node of ``tree``, by node id."""
        ids = self._ids
        keys = [ids.setdefault(label, len(ids)) for label in tree.labels]
        for a, b in tree.merges:
            clade = (keys[int(a)], keys[int(b)])
            keys.append(ids.setdefault(clade, len(ids)))
        return keys

    def get(self, key: int) -> Optional[Clade]:
        kept = self._kept.get(key)
        return None if kept is None else Clade.from_codes(*kept)

    def record(self, key: int, clade: Clade, budget: int) -> None:
        """Keep ``clade``'s rows unless ``budget`` bytes are already
        exceeded (its code matrix is what counts)."""
        if self.retained_bytes > budget:
            return
        self._kept[key] = (clade.codes, clade.rows, clade.alphabet)
        self.retained_bytes += clade.codes.nbytes


class _Walk:
    """One walk's working state: the node -> profile table, seeded with
    the leaves and every profile taken from ``clades``, and the merge
    steps that are left to run."""

    def __init__(
        self,
        profiles: List[Profile],
        tree: GuideTree,
        clades: Optional[CladeTable],
    ) -> None:
        n = tree.n_leaves
        self.tree = tree
        self.table: Dict[int, Profile] = dict(enumerate(profiles))
        self._clades = clades
        if clades is None:
            self.steps: Any = range(n - 1)
            return
        self._keys = clades.node_keys(tree)
        self._budget = sum(_clade_bytes(c) for c in profiles)
        self.steps = set()
        pending = [tree.root]
        while pending:
            node = pending.pop()
            if node < n:
                continue
            kept = clades.get(self._keys[node])
            if kept is not None:
                self.table[node] = kept
            else:
                self.steps.add(node - n)
                pending.extend(int(c) for c in tree.merges[node - n])

    @property
    def reused(self) -> int:
        return self.tree.n_leaves - 1 - len(self.steps)

    def children(self, step: int) -> tuple:
        a, b = self.tree.merges[step]
        return self.table[int(a)], self.table[int(b)]

    def finish(self, step: int, profile: Profile) -> None:
        """Store a merged node and forget its inputs (which bounds the
        working table); the clade table decides whether to keep it."""
        a, b = self.tree.merges[step]
        self.table.pop(int(a), None)
        self.table.pop(int(b), None)
        node = self.tree.n_leaves + step
        self.table[node] = profile
        if self._clades is not None:
            self._clades.record(self._keys[node], profile, self._budget)


def _validate(profiles: TSequence[Profile], tree: GuideTree) -> List[Profile]:
    profiles = list(profiles)
    if len(profiles) < 2:
        raise ValueError(
            "progressive merge: need at least 2 profiles "
            f"(got {len(profiles)}); single sequences have nothing to merge"
        )
    if tree.n_leaves != len(profiles):
        raise ValueError(
            f"progressive merge: tree has {tree.n_leaves} leaves but "
            f"{len(profiles)} profiles were given; they must correspond "
            "one-to-one (leaf i = profiles[i])"
        )
    return profiles


def _merge_steps(
    walk: _Walk, steps: List[int], merge_node: MergeNode
) -> Dict[int, Profile]:
    """Run one set of independent merges, one ``tree.merge_node`` span
    per step."""
    out: Dict[int, Profile] = {}
    for step in steps:
        with span("tree.merge_node", step=step):
            out[step] = merge_node(step, *walk.children(step))
    return out


def _run_levels(
    comm: Optional[Any],
    walk: _Walk,
    levels: TSequence[TSequence[int]],
    merge_node: MergeNode,
) -> Profile:
    """Execute the level schedule; ``comm=None`` runs every merge here.

    All ranks keep the full node->profile table in sync (the per-level
    allgather), so any rank can serve any merge of the next level;
    consumed children are dropped level by level to bound memory.
    Steps the walk took from its clade table are not in ``walk.steps``
    and do not run; every rank pruned the same steps, so the levels stay
    collective.
    """
    for level in levels:
        level = [step for step in level if step in walk.steps]
        if not level:
            continue
        if comm is None or comm.size == 1:
            done = _merge_steps(walk, level, merge_node)
        else:
            share = [
                step
                for pos, step in enumerate(level)
                if pos % comm.size == comm.rank
            ]
            done = _merge_steps(walk, share, merge_node)
            # The per-level allgather is the merge DAG's entire
            # communication cost: a clade ships its codes and counts
            # only (see Clade.__reduce__).
            gathered = comm.allgather(list(done.items()))
            for rank_parts in gathered:
                for step, node in rank_parts:
                    # Keep the locally computed object (values are
                    # identical either way).
                    done.setdefault(step, node)
        for step in level:
            walk.finish(step, done[step])
    return walk.table[walk.tree.root]


def progressive_merge(
    profiles: TSequence[Profile],
    tree: GuideTree,
    merge_node: MergeNode,
    *,
    comm: Optional[Any] = None,
    clades: Optional[CladeTable] = None,
) -> Profile:
    """Fold ``profiles`` up ``tree``; returns the root profile.

    Parameters
    ----------
    profiles:
        One :class:`~repro.align.profile.Profile` per leaf, in leaf-id
        order (at least two; clean ``ValueError`` otherwise) -- a
        :class:`~repro.align.profile.Clade` each when ``clades`` is
        given.
    tree:
        The merge order; ``tree.n_leaves`` must equal ``len(profiles)``.
    merge_node:
        ``merge_node(step, pa, pb) -> Profile`` -- merges the children
        of merge step ``step``.  Must be deterministic in its inputs;
        that is what makes both modes byte-identical.
    comm:
        Cooperative mode: an existing
        :class:`~repro.parcomp.comm.VirtualComm`.  All ranks must call
        with identical arguments; each level's merges split cyclically
        by rank and the merged profiles are allgathered, so the root
        profile returns on *every* rank.  ``None`` walks serially.
    clades:
        A :class:`CladeTable` shared with the other walks of the same
        leaf profiles and ``merge_node``: nodes whose ordered clade it
        holds are taken from it, the rest are merged and recorded.
    """
    profiles = _validate(profiles, tree)
    mode = "serial" if comm is None else "cooperative"
    with span(
        "tree.merge", n_leaves=tree.n_leaves, mode=mode,
        kernel=kernel().name,
    ) as sp:
        walk = _Walk(profiles, tree, clades)
        sp.set(merged=len(walk.steps), reused=walk.reused)
        _REUSED_NODES.inc(walk.reused)
        if comm is not None:
            # The schedule's levels are sets of independent merges:
            # each rank takes a cyclic share of every level.
            levels = merge_schedule(tree).levels
        else:
            # The classic serial post-order walk: the merge list itself
            # is a valid topological order, one node a time.
            levels = [(step,) for step in range(tree.n_leaves - 1)]
        return _run_levels(comm, walk, levels, merge_node)
