"""The Sample-Align-D SPMD program (one function, run on every rank).

A direct transcription of the paper's section-2 algorithm onto the
virtual cluster's mpi4py-style API; see :mod:`repro.core` for the step
list.  All collective phases are deterministic, so a run is reproducible
regardless of thread scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence as TSequence

import numpy as np

from repro.core.ancestor import global_ancestor, local_ancestor, merge_ancestors
from repro.core.config import SampleAlignDConfig
from repro.core.glue import glue_blocks, glue_blocks_diagonal
from repro.core.tweak import TweakedBlock, tweak_against_ancestor
from repro.kmer.rank import centralized_rank, globalized_rank
from repro.parcomp.comm import VirtualComm
from repro.samplesort.regular_sampling import (
    bucket_assignments,
    choose_pivots,
    regular_sample,
)
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence

__all__ = ["RankDiagnostics", "sample_align_d_spmd"]


@dataclass
class RankDiagnostics:
    """Per-rank facts the driver aggregates after a run."""

    rank: int
    n_initial: int
    n_bucket: int
    local_columns: int
    tweak_score: float
    globalized_ranks: Dict[str, float] = field(default_factory=dict)
    pivots: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _pick_samples(
    seqs: List[Sequence], k: int
) -> List[Sequence]:
    """k evenly spaced sequences from a rank-locally *sorted* list."""
    if not seqs or k <= 0:
        return []
    idx = regular_sample(np.arange(len(seqs)), k)
    return [seqs[int(i)] for i in idx]


def _sorted_by_rank(seqs: List[Sequence], ranks: np.ndarray) -> tuple:
    """Sort by rank, ties broken by sequence id so runs are
    order-independent."""
    if not seqs:
        return seqs, ranks
    order = sorted(range(len(seqs)), key=lambda i: (ranks[i], seqs[i].id))
    return [seqs[i] for i in order], ranks[np.asarray(order, dtype=np.int64)]


def sample_align_d_spmd(
    comm: VirtualComm,
    local_seqs: TSequence[Sequence],
    config: SampleAlignDConfig,
) -> Dict[str, Any]:
    """Run Sample-Align-D on this rank's share of the sequences.

    Returns a dict with ``"diagnostics"`` on every rank and, on rank 0,
    the glued ``"alignment"`` plus the ``"global_ancestor"``.
    """
    p, r = comm.size, comm.rank
    rank_cfg = config.rank_config
    seqs: List[Sequence] = list(local_seqs)
    n_initial = len(seqs)

    # -- step 1: local k-mer rank + local sort ------------------------------
    local_ranks = (
        centralized_rank(seqs, rank_cfg) if seqs else np.zeros(0)
    )
    seqs, local_ranks = _sorted_by_rank(seqs, local_ranks)

    # -- step 2: k samples per rank, shared with everyone -------------------
    k = config.samples_per_proc or max(p - 1, 1)
    sample_lists = comm.allgather(_pick_samples(seqs, k))
    global_sample: List[Sequence] = [s for part in sample_lists for s in part]

    # -- step 3: globalized rank against the k*p sample ---------------------
    if not config.globalize_rank:
        g_ranks = local_ranks  # ablation: keep the local-only estimate
    elif seqs and global_sample:
        g_ranks = globalized_rank(seqs, global_sample, rank_cfg)
    else:
        g_ranks = np.zeros(len(seqs))
    seqs, g_ranks = _sorted_by_rank(seqs, g_ranks)

    # -- step 4: regular sampling of rank values, pivots at the root --------
    if config.sampling == "regular":
        my_samples = regular_sample(g_ranks, p - 1)
    else:  # "random": Huang-&-Chow style, no occupancy guarantee
        rng = np.random.default_rng(config.sampling_seed * (p + 1) + r)
        take = min(p - 1, len(g_ranks))
        my_samples = (
            rng.choice(g_ranks, size=take, replace=False)
            if take
            else g_ranks[:0]
        )
    gathered = comm.gather(my_samples, root=0)
    pivots: Optional[np.ndarray] = None
    if r == 0:
        pivots = choose_pivots(
            np.concatenate(gathered) if gathered else np.zeros(0), p
        )
    pivots = comm.bcast(pivots, root=0)

    # -- step 5: redistribution (bucket i accumulates at rank i) ------------
    buckets = bucket_assignments(g_ranks, pivots)
    outgoing: List[List[tuple]] = [[] for _ in range(p)]
    for s, g, b in zip(seqs, g_ranks, buckets):
        outgoing[int(b)].append((s, float(g)))
    incoming = comm.alltoall(outgoing)
    bucket_items = [item for part in incoming for item in part]
    bucket_items.sort(key=lambda t: (t[1], t[0].id))
    bucket_seqs = [s for s, _g in bucket_items]
    rank_table = {s.id: g for s, g in bucket_items}

    # -- step 6: local sequential MSA ----------------------------------------
    aligner = config.make_local_aligner()
    if not bucket_seqs:
        aln: Optional[Alignment] = None
    elif len(bucket_seqs) == 1:
        aln = Alignment.from_single(bucket_seqs[0])
    else:
        aln = aligner.align(bucket_seqs)
        if config.refine_local_rounds > 0:
            from repro.core.postrefine import refine_bucket_alignment

            aln = refine_bucket_alignment(
                aln, config.scoring, config.refine_local_rounds
            )

    diagnostics = RankDiagnostics(
        rank=r,
        n_initial=n_initial,
        n_bucket=len(bucket_seqs),
        local_columns=aln.n_columns if aln is not None else 0,
        tweak_score=float("nan"),
        globalized_ranks=rank_table,
        pivots=np.asarray(pivots),
    )

    # Degenerate single-rank run: the bucket alignment IS the answer.
    if p == 1:
        return {
            "diagnostics": diagnostics,
            "alignment": aln,
            "global_ancestor": None,
        }

    # -- steps 7+8: local ancestors -> global ancestor ----------------------
    anc = local_ancestor(aln, r, config.ancestor_min_occupancy)
    ga: Optional[Sequence] = None
    if config.ancestor_reduction == "tree":
        # Scalability extension: fold pairwise up a binomial tree.
        folded = comm.reduce(
            anc,
            op=lambda a, b: merge_ancestors(
                a, b, config.ancestor_min_occupancy
            ),
            root=0,
        )
        if r == 0:
            if folded is None:
                raise ValueError(
                    "no non-empty buckets: cannot build a global ancestor"
                )
            ga = folded.with_id("global_ancestor")
    else:
        ancestors = comm.gather(anc, root=0)
        if r == 0:
            ga = global_ancestor(
                ancestors,
                config.make_root_aligner(),
                config.ancestor_min_occupancy,
            )
    ga = comm.bcast(ga, root=0)

    # -- step 9: constrained tweak against the global ancestor --------------
    block: Optional[TweakedBlock] = None
    if aln is not None:
        if config.tweak:
            block = tweak_against_ancestor(aln, ga, config.scoring)
            diagnostics.tweak_score = block.score
        else:
            # Ablation path: ship the untweaked block; the root will glue
            # diagonally (no cross-bucket column sharing).
            block = TweakedBlock(
                ids=list(aln.ids),
                matrix=aln.matrix,
                anchor_slot=np.zeros(aln.n_columns, dtype=np.int64),
                anchor_match=np.zeros(aln.n_columns, dtype=bool),
                anchor_ordinal=np.arange(aln.n_columns, dtype=np.int64),
                ancestor_length=len(ga),
                score=float("nan"),
            )

    # -- step 10: glue at the root -------------------------------------------
    blocks = comm.gather(block, root=0)
    result: Dict[str, Any] = {"diagnostics": diagnostics}
    if r == 0:
        present = [b for b in blocks if b is not None and b.n_rows > 0]
        glue = glue_blocks if config.tweak else glue_blocks_diagonal
        glued = glue(present, alphabet=ga.alphabet)
        if config.post_refine_rounds > 0 and config.tweak:
            from repro.core.postrefine import bucket_level_refine

            glued = bucket_level_refine(
                glued,
                [b.ids for b in present],
                config.scoring,
                rounds=config.post_refine_rounds,
            )
        result["alignment"] = glued
        result["global_ancestor"] = ga
    return result
