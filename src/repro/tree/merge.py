"""The DAG-scheduled progressive merge: one merge walk, any backend.

``progressive_merge(profiles, tree, merge_node)`` folds the leaf
profiles up the guide tree by executing the
:func:`~repro.tree.schedule.merge_schedule` level by level

- **serially** (``backend=None``, the default -- the classic post-order
  walk, no scheduler overhead),
- **on an execution backend** (``backend="threads"|"pool"``,
  ``workers=N`` -- the PR 3 registry; ``pool`` puts the
  profile-profile DPs of independent subtrees on real cores), or
- **cooperatively inside an existing SPMD program** (``comm=...`` --
  ranks split each level's merges cyclically and allgather the merged
  profiles, which is how a rank-parallel baseline can lift its
  sequential stage-3 Amdahl cap through this same subsystem).

Level batching: a ``merge_node`` may advertise ``supports_level_batch``
plus a ``merge_level(steps, pairs)`` method (the default
:class:`~repro.align.progressive._MergeNode` does, routing through
:func:`~repro.align.profile_align.align_profiles_batch`).  The executor
then hands each level's independent merges -- or, under a backend/comm,
each rank's share of a level -- to one batched call, so the
profile-profile DPs of a whole level run through the fused batched
kernel instead of one numpy-dispatch-bound DP per merge.  The batched
kernel is byte-identical to the per-pair one, so this is purely a
performance path.

Determinism contract: a merge's output depends only on its two child
profiles and the ``merge_node`` callable (which must itself be
deterministic), and every internal node is computed exactly once -- so
serial, threads, pool and cooperative schedules produce
**byte-identical** alignments for any level assignment, batched or not.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence as TSequence

from repro.align.guide_tree import GuideTree
from repro.align.profile import Profile
from repro.obs.tracing import span
from repro.tree.schedule import merge_schedule

__all__ = ["progressive_merge"]

#: ``merge_node(step, pa, pb) -> Profile`` -- the per-node merge.
MergeNode = Callable[[int, Profile, Profile], Profile]


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


def _pack(profile: Profile) -> tuple:
    """Wire form of a profile: alignment + (possibly reweighted)
    frequencies.  Counts and occupancy are derived deterministically
    from the alignment, so shipping them would double the payload for
    nothing -- the per-level allgather is the merge DAG's entire
    communication cost."""
    return (profile.alignment, profile.frequencies)


def _unpack(packed: tuple) -> Profile:
    alignment, frequencies = packed
    prof = Profile(alignment)
    prof.frequencies = frequencies
    return prof


def _level_batch_wanted(merge_node: MergeNode) -> bool:
    """True when the node advertises (and currently enables) batching."""
    return bool(getattr(merge_node, "supports_level_batch", False)) and (
        callable(getattr(merge_node, "merge_level", None))
    )


def _merge_steps(
    table: Dict[int, Profile],
    tree: GuideTree,
    steps: List[int],
    merge_node: MergeNode,
    batch: bool,
) -> Dict[int, Profile]:
    """Run one set of independent merges, batched when supported.

    The batched path hands every (step, children) pair to the node's
    ``merge_level`` in one call (one ``tree.merge_level`` span covering
    the fused DPs); the per-node path keeps the classic
    ``tree.merge_node`` span per step.  Results are byte-identical
    either way -- the batched kernel is exact.
    """
    if batch and len(steps) > 0:
        pairs = [_children(table, tree, step) for step in steps]
        with span("tree.merge_level", merges=len(steps)):
            merged = merge_node.merge_level(steps, pairs)
        return dict(zip(steps, merged))
    out: Dict[int, Profile] = {}
    for step in steps:
        with span("tree.merge_node", step=step):
            out[step] = merge_node(step, *_children(table, tree, step))
    return out


def _run_levels(
    comm: Optional[Any],
    profiles: List[Profile],
    tree: GuideTree,
    levels: TSequence[TSequence[int]],
    merge_node: MergeNode,
) -> Profile:
    """Execute the level schedule; ``comm=None`` runs every merge here.

    All ranks keep the full node->profile table in sync (the per-level
    allgather), so any rank can serve any merge of the next level;
    consumed children are dropped level by level to bound memory.
    Within a level (or a rank's cyclic share of one) the merges are
    independent by construction, so they batch through the node's
    ``merge_level`` when it advertises support.
    """
    n = tree.n_leaves
    batch = _level_batch_wanted(merge_node)
    table: Dict[int, Profile] = dict(enumerate(profiles))
    for level in levels:
        if comm is None or comm.size == 1:
            done = _merge_steps(
                table, tree, list(level), merge_node, batch
            )
            for step, prof in done.items():
                table[n + step] = prof
        else:
            share = [
                step
                for pos, step in enumerate(level)
                if pos % comm.size == comm.rank
            ]
            mine = _merge_steps(table, tree, share, merge_node, batch)
            gathered = comm.allgather(
                [(step, _pack(prof)) for step, prof in mine.items()]
            )
            for rank_parts in gathered:
                for step, packed in rank_parts:
                    # Keep the locally computed object; unpack foreign
                    # ones (values are identical either way).
                    table[n + step] = (
                        mine[step] if step in mine else _unpack(packed)
                    )
        for step in level:
            a, b = tree.merges[step]
            table.pop(int(a), None)
            table.pop(int(b), None)
    return table[tree.root]


def _children(
    table: Dict[int, Profile], tree: GuideTree, step: int
) -> tuple:
    a, b = tree.merges[step]
    return table[int(a)], table[int(b)]


def _merge_dag_rank(comm, profiles, tree, levels, merge_node):
    """Rank program of the backend-scheduled mode (module-level so the
    ``pool`` backend can pickle it; ``merge_node`` must be picklable
    too).

    Every rank holds the root at the end; only rank 0 reports it so the
    result queue carries one copy, not ``workers``."""
    root = _run_levels(comm, profiles, tree, levels, merge_node)
    return root if comm.rank == 0 else None


def progressive_merge(
    profiles: TSequence[Profile],
    tree: GuideTree,
    merge_node: MergeNode,
    *,
    backend: Optional[Any] = None,
    workers: Optional[int] = None,
    comm: Optional[Any] = None,
    cost_model: Optional[Any] = None,
) -> Profile:
    """Fold ``profiles`` up ``tree``; returns the root profile.

    Parameters
    ----------
    profiles:
        One :class:`~repro.align.profile.Profile` per leaf, in leaf-id
        order (at least two; clean ``ValueError`` otherwise).
    tree:
        The merge order; ``tree.n_leaves`` must equal ``len(profiles)``.
    merge_node:
        ``merge_node(step, pa, pb) -> Profile`` -- merges the children
        of merge step ``step``.  Must be deterministic in its inputs;
        that is what makes every schedule byte-identical.
    backend:
        ``None`` executes serially in-process; a registered execution
        backend name (or instance) runs the level schedule SPMD over
        ``workers`` ranks (``"pool"`` for real cores).
    workers:
        Rank count for the backend mode (default: host core count,
        capped at the schedule's peak width -- extra ranks could never
        have work).  ``workers>1`` with ``backend=None`` uses the
        default backend.
    comm:
        Cooperative mode: an existing
        :class:`~repro.parcomp.comm.VirtualComm`.  All ranks must call
        with identical arguments; each level's merges split cyclically
        by rank and the merged profiles are allgathered, so the root
        profile returns on *every* rank.  Mutually exclusive with
        ``backend``/``workers``.
    cost_model:
        Alpha-beta model forwarded to the backend's timing ledger.
    """
    profiles = _validate(profiles, tree)

    if comm is not None:
        if backend is not None or workers not in (None, 1):
            raise ValueError(
                "cooperative mode (comm=...) excludes backend=/workers="
            )
        with span(
            "tree.merge", n_leaves=tree.n_leaves, mode="cooperative"
        ):
            schedule = merge_schedule(tree)
            return _run_levels(
                comm, profiles, tree, schedule.levels, merge_node
            )

    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if backend is None and workers in (None, 1):
        if _level_batch_wanted(merge_node):
            # Level-batched serial walk: the schedule's levels are sets
            # of independent merges, exactly the batch the fused DP
            # kernel consumes.  Byte-identical to the post-order walk
            # (each node still computed once, from the same children).
            with span("tree.merge", n_leaves=tree.n_leaves, mode="serial"):
                schedule = merge_schedule(tree)
                return _run_levels(
                    None, profiles, tree, schedule.levels, merge_node
                )
        # The classic serial post-order walk: the merge list itself is a
        # valid topological order, so no schedule is needed.
        with span("tree.merge", n_leaves=tree.n_leaves, mode="serial"):
            n = tree.n_leaves
            table: Dict[int, Profile] = dict(enumerate(profiles))
            for step in range(n - 1):
                a, b = tree.merges[step]
                with span("tree.merge_node", step=step):
                    table[n + step] = merge_node(
                        step, table.pop(int(a)), table.pop(int(b))
                    )
            return table[tree.root]

    from repro.obs.propagate import run_traced

    schedule = merge_schedule(tree)
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, schedule.max_width))
    with span("tree.merge", n_leaves=tree.n_leaves, mode="backend"):
        spmd = run_traced(
            backend,
            n_workers,
            _merge_dag_rank,
            stage="tree",
            args=(profiles, tree, schedule.levels, merge_node),
            cost_model=cost_model,
        )
        return spmd.results[0]
