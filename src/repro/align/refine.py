"""Tree-dependent restricted-partitioning iterative refinement.

MUSCLE's third stage: for each tree edge, split the alignment's rows into
the two leaf sets the edge separates, strip each side's all-gap columns,
realign the two sub-profiles, and keep the result when the sum-of-pairs
objective improves.  Used by :class:`repro.msa.MuscleLike`, the
MAFFT-like ``*NSI`` iterative modes and, with bucket row-blocks as the
splits, :func:`repro.core.postrefine.bucket_level_refine`.

The loop works on the alignment's ``uint8`` code matrix and its integer
column counts, and most attempts build nothing but two count-derived
profiles (:meth:`~repro.align.profile.Profile.from_counts`) and one DP
path (:func:`~repro.align.profile_align.profile_path`); the candidate
matrix is built only when it is accepted, and the returned alignment
goes through the validating :class:`~repro.seq.alignment.Alignment`
constructor once.

**Exact SP deltas.**  The linear SP objective charges nothing for a
gap-gap pair, so realigning side A against side B leaves every pair
within a side unchanged: ``candidate - current = cross_new(A, B) -
cross_old(A, B)``.  ``cross_old`` comes from the two sides' column
counts, ``cross_new`` from the same counts read along the DP's
``x_map`` / ``y_map`` (:func:`~repro.align.scoring.cross_sp_counts`).
The delta is used only when every term is an exact integer in float64
(:func:`~repro.align.scoring.sp_is_exact`: symmetric integer residue
scores, an integer gap penalty, and ``n_rows**2 * n_cols *
max(|M|, gap_penalty)`` below ``2**52``, with ``n_cols`` bounded by the
residue count so the bound covers every candidate); ``current + delta``
is then bit for bit the :func:`~repro.align.scoring.sp_score` of the
candidate.  Otherwise each candidate is rescored in full from its
column counts (:func:`~repro.align.scoring.sp_score_counts`), which is
also bit for bit ``sp_score`` of the candidate.  The choice is made
from the matrix, the penalty and the alignment's size, never from a
parameter.

One ``align.refine`` span per call carries ``attempted``, ``accepted``
and ``sp="delta"|"full"``; each attempt's DP sits under its own
``dp.profile_align`` span; the ``refine.attempts`` /
``refine.accepted`` counters (``/metrics?format=prom``) give the
layer's useful-work ratio.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence as TSequence

import numpy as np

from repro.align.profile import Profile
from repro.align.profile_align import ProfileAlignConfig, profile_path
from repro.align.scoring import (
    cell_pair_scores,
    cross_sp_counts,
    sp_is_exact,
    sp_score,
    sp_score_counts,
)
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span
from repro.seq.alignment import Alignment, code_counts
from repro.tree.guide_tree import GuideTree

__all__ = ["RefineResult", "refine_alignment", "refine_splits"]

# accepted / attempts is the layer's useful-work ratio.
_ATTEMPTS = _obs_registry().counter("refine.attempts")
_ACCEPTED = _obs_registry().counter("refine.accepted")


@dataclass
class RefineResult:
    """Outcome of iterative refinement."""

    alignment: Alignment
    initial_score: float
    final_score: float
    n_accepted: int
    n_attempted: int


class _Refinement:
    """The alignment under refinement: code matrix, column counts, score."""

    def __init__(
        self, aln: Alignment, config: ProfileAlignConfig, gap_penalty: float
    ) -> None:
        self.config = config
        self.gap_penalty = gap_penalty
        self.alphabet = aln.alphabet
        self.matrix = aln.matrix
        self.counts = aln.column_counts(include_gap=True)
        self.score = sp_score(aln, config.matrix, gap_penalty)
        n_rows = aln.n_rows
        # Every candidate column holds a residue, so no candidate is
        # wider than the residue count (nor is the input, all-gap columns
        # included, wider than itself).
        residues = n_rows * aln.n_columns - int(self.counts[:, -1].sum())
        self.exact = sp_is_exact(
            config.matrix, gap_penalty, n_rows, max(aln.n_columns, residues)
        )
        self.pair_scores = cell_pair_scores(config.matrix, gap_penalty)

    def propose(self, rows_a: np.ndarray, rows_b: np.ndarray) -> "_Proposal":
        """Realign rows ``rows_a`` against rows ``rows_b`` (together every
        row, both non-empty) and score the result; build nothing else."""
        if rows_a.size <= rows_b.size:
            counts_a = code_counts(self.matrix[rows_a], self.counts.shape[1])
            counts_b = self.counts - counts_a
        else:
            counts_b = code_counts(self.matrix[rows_b], self.counts.shape[1])
            counts_a = self.counts - counts_b
        side_a = _Side(rows_a, counts_a, self.alphabet)
        side_b = _Side(rows_b, counts_b, self.alphabet)
        res = profile_path(side_a.profile, side_b.profile, self.config)
        path_a = side_a.along(res.x_map)
        path_b = side_b.along(res.y_map)
        if self.exact:
            # cross_new - cross_old as one product: old B counts negated.
            score = self.score + cross_sp_counts(
                np.concatenate((path_a, counts_a)),
                np.concatenate((path_b, -counts_b)),
                self.pair_scores,
            )
        else:
            score = sp_score_counts(
                path_a + path_b,
                self.matrix.shape[0],
                self.config.matrix,
                self.gap_penalty,
            )
        return _Proposal(score, side_a, side_b, res.x_map, res.y_map)

    def accept(self, proposal: "_Proposal") -> None:
        """Make the proposal's alignment the current one."""
        p = proposal
        out = np.full(
            (self.matrix.shape[0], p.x_map.size),
            self.alphabet.gap_code,
            dtype=np.uint8,
        )
        for side, path in ((p.side_a, p.x_map), (p.side_b, p.y_map)):
            taken = np.flatnonzero(path >= 0)
            out[np.ix_(side.rows, taken)] = self.matrix[
                np.ix_(side.rows, side.cols[path[taken]])
            ]
        self.matrix = out
        self.counts = p.side_a.along(p.x_map) + p.side_b.along(p.y_map)
        self.score = p.score

    def try_split(self, rows_a: np.ndarray, rows_b: np.ndarray) -> bool:
        """:meth:`propose`, then :meth:`accept` if SP strictly improves."""
        proposal = self.propose(rows_a, rows_b)
        if not proposal.score > self.score + 1e-9:
            return False
        self.accept(proposal)
        return True


class _Side:
    """One side of a split: its rows, its non-gap columns, their profile."""

    def __init__(self, rows: np.ndarray, counts: np.ndarray, alphabet) -> None:
        self.rows = rows
        self.cols = np.flatnonzero(counts[:, -1] < rows.size)
        self.profile = Profile.from_counts(counts[self.cols], rows.size, alphabet)

    def along(self, path: np.ndarray) -> np.ndarray:
        """The side's counts per column of a DP path; a ``-1`` (a column
        the DP opened against this side) picks an appended all-gap row."""
        counts = self.profile.counts
        gap_row = np.zeros((1, counts.shape[1]), dtype=counts.dtype)
        gap_row[0, -1] = self.rows.size
        return np.concatenate((counts, gap_row))[path]


@dataclass
class _Proposal:
    """A scored realignment of a split, not yet built."""

    score: float
    side_a: _Side
    side_b: _Side
    x_map: np.ndarray
    y_map: np.ndarray


def refine_splits(
    aln: Alignment,
    splits: TSequence[np.ndarray],
    config: ProfileAlignConfig,
    max_rounds: int = 1,
    gap_penalty: float = 1.0,
    rng: np.random.Generator | None = None,
) -> RefineResult:
    """Refine ``aln`` by realigning each split's rows against the rest.

    ``splits`` are arrays of row indices; a split that is empty or
    covers every row is skipped without counting as an attempt.  Each
    round visits the splits in order (shuffled by ``rng`` when given);
    an attempt is kept only when it strictly improves the linear SP
    objective, and refinement stops after ``max_rounds`` rounds or the
    first round with no acceptance.
    """
    state = _Refinement(aln, config, gap_penalty)
    initial = state.score
    n_rows = aln.n_rows
    n_accepted = n_attempted = 0
    with span("align.refine", rows=n_rows, splits=len(splits)) as call:
        for _round in range(max_rounds):
            order = np.arange(len(splits))
            if rng is not None:
                rng.shuffle(order)
            accepted_this_round = 0
            for si in order:
                in_a = np.zeros(n_rows, dtype=bool)
                in_a[splits[int(si)]] = True
                if in_a.all() or not in_a.any():
                    continue
                n_attempted += 1
                if state.try_split(np.flatnonzero(in_a), np.flatnonzero(~in_a)):
                    n_accepted += 1
                    accepted_this_round += 1
            if accepted_this_round == 0:
                break
        call.set(
            attempted=n_attempted,
            accepted=n_accepted,
            sp="delta" if state.exact else "full",
        )
    _ATTEMPTS.inc(n_attempted)
    _ACCEPTED.inc(n_accepted)
    final = (
        Alignment(aln.ids, state.matrix, aln.alphabet) if n_accepted else aln
    )
    return RefineResult(final, initial, state.score, n_accepted, n_attempted)


def refine_alignment(
    aln: Alignment,
    tree: GuideTree,
    config: ProfileAlignConfig | None = None,
    max_rounds: int = 1,
    gap_penalty: float = 1.0,
    rng: np.random.Generator | None = None,
) -> RefineResult:
    """Refine ``aln`` by restricted partitioning along ``tree``.

    ``tree.labels`` must be the alignment's row ids, each exactly once.
    Partitions are visited in a deterministic order unless an ``rng`` is
    supplied (then each round shuffles the visit order, MUSCLE-style).
    A partition's realignment is accepted only when it strictly improves
    the linear SP objective; ``max_rounds`` full sweeps are performed or
    refinement stops early after a sweep with no acceptance.
    """
    config = config or ProfileAlignConfig()
    labels = list(tree.labels)
    repeated = sorted(x for x, k in Counter(labels).items() if k > 1)
    if repeated:
        raise ValueError(f"tree labels must be unique; repeated: {repeated}")
    if len(labels) != aln.n_rows:
        raise ValueError(
            f"tree has {len(labels)} labels for {aln.n_rows} alignment rows"
        )
    if set(labels) != set(aln.ids):
        raise ValueError("tree labels must match alignment row ids")
    row_of = {rid: i for i, rid in enumerate(aln.ids)}
    row_of_leaf = np.array([row_of[x] for x in labels], dtype=np.int64)
    splits: List[np.ndarray] = [
        row_of_leaf[part] for part in tree.bipartitions(include_leaves=True)
    ]
    return refine_splits(aln, splits, config, max_rounds, gap_penalty, rng)
