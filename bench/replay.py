"""Sequential replay of the program's pipelines, one span per phase.

The replay calls the same public functions, in the same order, as
``repro.core.algorithm.sample_align_d_spmd`` (rank by rank in one
thread, collectives replaced by plain lists) and as the guide-tree
aligners' ``align``.  It exists to time each layer from outside with no
thread or process contention; its output must equal the program's byte
for byte, which the caller checks, so a drift between the two fails the
run instead of skewing the numbers.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.align.progressive import progressive_align
from repro.align.refine import refine_alignment
from repro.align.scoring import sp_score
from repro.core.ancestor import global_ancestor, local_ancestor
from repro.core.config import SampleAlignDConfig
from repro.core.glue import glue_blocks
from repro.core.tweak import tweak_against_ancestor
from repro.distance import (
    FullDpDistance,
    KtupleDistance,
    alignment_identity_matrix,
    all_pairs,
    kimura_distance,
    resolve_distance_stage,
    scoring_estimator_defaults,
)
from repro.engine.api import AlignRequest
from repro.kmer.rank import centralized_rank, globalized_rank
from repro.msa.clustalw import ClustalWLike, clustal_sequence_weights
from repro.msa.muscle import MuscleLike
from repro.msa.registry import get_aligner
from repro.samplesort.regular_sampling import (
    bucket_assignments,
    choose_pivots,
    regular_sample,
)
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence, SequenceSet
from repro.tree import get_builder, resolve_tree_stage

from bench.trace import Recorder


def replay(request: AlignRequest, rec: Recorder) -> Alignment:
    """Replay one request; returns the alignment the program would."""
    if request.engine.lower() == "sample-align-d":
        aln = _replay_sample_align_d(request, rec)
    else:
        aligner = get_aligner(request.engine, **request.engine_kwargs)
        with rec.span("msa.align", engine=request.engine):
            aln = replay_guide_tree(aligner, list(request.sequences), rec)
    # Every engine scores its output (default matrix); part of a solve.
    with rec.span("engine.score"):
        sp_score(aln)
    return aln


def replay_guide_tree(
    aligner, seqs: List[Sequence], rec: Recorder
) -> Alignment:
    """``MuscleLike.align`` / ``ClustalWLike.align`` with spans."""
    clustal = isinstance(aligner, ClustalWLike)
    if not clustal and not isinstance(aligner, MuscleLike):
        raise ValueError(f"no replay for {type(aligner).__name__}")
    if getattr(aligner, "anchored", False):
        raise ValueError("no replay for anchored merges")
    if len(seqs) == 1:
        return Alignment.from_single(seqs[0])
    ids = [s.id for s in seqs]
    n = len(seqs)
    scoring = aligner.scoring
    if clustal and aligner.distance_mode == "full":
        default_est = lambda: FullDpDistance(  # noqa: E731
            matrix=scoring.matrix, gaps=scoring.gaps
        )
    else:
        default_est = lambda: KtupleDistance(k=aligner.kmer_k)  # noqa: E731
    est = resolve_distance_stage(
        aligner.distance,
        default=default_est,
        estimator_defaults=scoring_estimator_defaults(
            scoring.matrix, scoring.gaps, aligner.kmer_k
        ),
    )[0]
    builder = resolve_tree_stage(
        aligner.tree,
        default=lambda: get_builder("nj" if clustal else "upgma"),
    )[0]

    with rec.span("distance.all_pairs", pairs=n * (n - 1) // 2):
        d = all_pairs(seqs, est, out="condensed")
    with rec.span("tree.build"):
        tree = builder.build(d, ids)
    if clustal:
        weights = clustal_sequence_weights(tree)
        with rec.span("tree.merge", nodes=n - 1):
            aln = progressive_align(seqs, tree, scoring, weights)
        return aln.select_rows(ids)

    with rec.span("tree.merge", nodes=n - 1):
        aln = progressive_align(seqs, tree, scoring)
    if aligner.two_stage and n > 2:
        with rec.span("distance.identity"):
            d2 = kimura_distance(alignment_identity_matrix(aln))
        with rec.span("tree.build"):
            tree = builder.build(d2, aln.ids)
        with rec.span("tree.merge", nodes=n - 1):
            aln = progressive_align(seqs, tree, scoring)
    if aligner.refine and n > 2:
        rng = (
            None
            if aligner.seed is None
            else np.random.default_rng(aligner.seed)
        )
        with rec.span("align.refine"):
            aln = refine_alignment(
                aln, tree, scoring, max_rounds=aligner.refine_rounds, rng=rng
            ).alignment
    return aln.select_rows(ids)


def _sort_by_rank(seqs: List[Sequence], ranks: np.ndarray):
    if not seqs:
        return seqs, ranks
    order = sorted(range(len(seqs)), key=lambda i: (ranks[i], seqs[i].id))
    return [seqs[i] for i in order], ranks[np.asarray(order, dtype=np.int64)]


def _replay_sample_align_d(request: AlignRequest, rec: Recorder) -> Alignment:
    """The ten steps of the paper's pipeline, every rank in this thread.

    Spans carry ``phase`` (step order) and ``rank`` so the caller can sum
    the slowest rank of each phase into the paper's parallel-time model.
    """
    if request.config is not None:
        raise ValueError("the replay covers the default pipeline only")
    config = SampleAlignDConfig()
    sset = request.sequence_set()
    p = request.n_procs
    if p < 2:
        raise ValueError("the replay needs at least two ranks")
    placed = sset
    if request.seed is not None:
        order = np.random.default_rng(request.seed).permutation(len(sset))
        placed = SequenceSet([sset[int(i)] for i in order])
    seqs: List[List[Sequence]] = [list(part) for part in placed.split(p)]
    rank_cfg = config.rank_config
    ranks: List[np.ndarray] = [np.zeros(0)] * p

    for r in range(p):  # step 1: local k-mer rank and sort
        with rec.span("kmer.rank", phase=1, rank=r):
            local = (
                centralized_rank(seqs[r], rank_cfg)
                if seqs[r]
                else np.zeros(0)
            )
            seqs[r], ranks[r] = _sort_by_rank(seqs[r], local)

    k = config.samples_per_proc or max(p - 1, 1)
    global_sample: List[Sequence] = []
    for r in range(p):  # step 2: k samples per rank (allgather)
        with rec.span("samplesort.sample", phase=2, rank=r):
            if seqs[r]:
                idx = regular_sample(np.arange(len(seqs[r])), k)
                global_sample.extend(seqs[r][int(i)] for i in idx)

    for r in range(p):  # step 3: globalized rank against the sample
        with rec.span("kmer.rank", phase=3, rank=r):
            g = (
                globalized_rank(seqs[r], global_sample, rank_cfg)
                if seqs[r] and global_sample
                else np.zeros(len(seqs[r]))
            )
            seqs[r], ranks[r] = _sort_by_rank(seqs[r], g)

    gathered = []
    for r in range(p):  # step 4: regular samples (gather) ...
        with rec.span("samplesort.pivot", phase=4, rank=r):
            gathered.append(regular_sample(ranks[r], p - 1))
    with rec.span("samplesort.pivot", phase=5, rank=0):  # ... pivots (bcast)
        pivots = choose_pivots(np.concatenate(gathered), p)

    incoming: List[List[tuple]] = [[] for _ in range(p)]
    for r in range(p):  # step 5: redistribution (alltoall)
        with rec.span("samplesort.bucket", phase=6, rank=r):
            buckets = bucket_assignments(ranks[r], pivots)
            for s, g, b in zip(seqs[r], ranks[r], buckets):
                incoming[int(b)].append((s, float(g)))

    alns: List[Optional[Alignment]] = []
    for r in range(p):  # step 6: local sequential MSA
        with rec.span(
            "msa.local_align", phase=7, rank=r, n_bucket=len(incoming[r])
        ):
            incoming[r].sort(key=lambda t: (t[1], t[0].id))
            bucket = [s for s, _g in incoming[r]]
            if not bucket:
                alns.append(None)
            elif len(bucket) == 1:
                alns.append(Alignment.from_single(bucket[0]))
            else:
                alns.append(
                    replay_guide_tree(config.make_local_aligner(), bucket, rec)
                )

    ancestors = []
    for r in range(p):  # step 7: local ancestors (gather)
        with rec.span("core.ancestor", phase=8, rank=r):
            ancestors.append(
                local_ancestor(alns[r], r, config.ancestor_min_occupancy)
            )
    with rec.span("core.ancestor", phase=9, rank=0):  # step 8 (root, bcast)
        ga = global_ancestor(
            ancestors,
            config.make_root_aligner(),
            config.ancestor_min_occupancy,
        )

    blocks = []
    for r in range(p):  # step 9: constrained tweak (gather)
        if alns[r] is not None:
            with rec.span("core.tweak", phase=10, rank=r):
                blocks.append(
                    tweak_against_ancestor(alns[r], ga, config.scoring)
                )

    with rec.span("core.glue", phase=11, rank=0):  # step 10: glue at the root
        present = [b for b in blocks if b.n_rows > 0]
        glued = glue_blocks(present, alphabet=ga.alphabet)
        return glued.select_rows(sset.ids)
