"""High-level driver: the public ``sample_align_d`` entry point.

Splits the input over ``n_procs`` virtual ranks (block distribution, like
the paper's pre-placed node files), launches the SPMD program on the
virtual cluster, and packages the glued alignment together with the run's
measured and modeled timing, bucket occupancy and rank diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence as TSequence

import numpy as np

from repro.align.scoring import sp_score
from repro.core.algorithm import RankDiagnostics, sample_align_d_spmd
from repro.core.config import SampleAlignDConfig
from repro.parcomp.backends import Placement, place
from repro.parcomp.cost import CostModel, TimingLedger
from repro.parcomp.launcher import run_spmd
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence, SequenceSet

__all__ = [
    "AUTO_POOL_MIN_CELLS",
    "MsaResult",
    "placement",
    "sad_cells",
    "sample_align_d",
]

#: :func:`sad_cells` of a job from which an unset backend runs its ranks
#: on a ``pool`` of every usable core (M:N) instead of one at a time on
#: ``threads``.  On a 2-vCPU host (``benchmarks/bench_placement_grid.py``:
#: N x L x p over {8..128} x {60, 120, 200} x {2, 4, 16}, warm workers,
#: four runs) two workers beat ``threads`` at p = 16 from about 0.06 M
#: cells and at p = 4 from about 0.45 M (but up to 1.13x slower at
#: L = 200 below 3.8 M); at p = 2, one rank per worker, they stayed
#: within 0.8-1.13x of it at every shape.  At 128 x 200 (5.1 M) every
#: p was at par or better (p = 16: 0.71-0.77x, p = 4: 0.86-0.93x,
#: p = 2: 0.80-1.03x), so one constant for every p sits just below it;
#: the benchmark's set-up probe, 6 x 60, is 0.02 M.
AUTO_POOL_MIN_CELLS = 4_000_000


def sad_cells(seqs: TSequence[Sequence]) -> int:
    """The work of a Sample-Align-D job, known before any compute:
    ``N * mean_L ** 2`` -- the profile DP cells of its local alignments
    summed over the buckets, up to a constant."""
    n = len(seqs)
    total = sum(len(s) for s in seqs)
    return total * total // n if n else 0


def placement(seqs: TSequence[Sequence], n_procs: int) -> Placement:
    """Where ``sample_align_d(seqs, n_procs)`` runs with the backend
    unset: :func:`~repro.parcomp.backends.place` on :func:`sad_cells`
    against :data:`AUTO_POOL_MIN_CELLS` -- ``threads`` for one rank."""
    if n_procs < 2:
        return Placement("threads")
    return place(sad_cells(seqs), AUTO_POOL_MIN_CELLS, gil_free=False)


@dataclass
class MsaResult:
    """Everything a Sample-Align-D run produced.

    Attributes
    ----------
    alignment:
        The final MSA, rows in the original input order.
    sp:
        Linear sum-of-pairs score of the alignment (the paper's reported
        objective after gluing).
    n_procs:
        Virtual cluster size used.
    wall_time:
        Real elapsed seconds of the run on this host.
    ledger:
        Byte/clock ledger of the virtual cluster (modeled cluster time =
        ``ledger.modeled_time()``).
    diagnostics:
        Per-rank facts (bucket sizes, tweak scores, rank tables).
    global_ancestor:
        The ancestor template used for fine tuning (None for 1 rank).
    config:
        The configuration the run used.
    backend:
        Name of the execution backend that ran the SPMD ranks
        (``"threads"`` or ``"pool"``).
    placement:
        Where the ranks ran: backend, worker processes ``k`` and ranks
        per worker (:attr:`~repro.parcomp.backends.SpmdResult.placement`).
    """

    alignment: Alignment
    sp: float
    n_procs: int
    wall_time: float
    ledger: TimingLedger
    diagnostics: List[RankDiagnostics]
    global_ancestor: Optional[Sequence]
    config: SampleAlignDConfig
    backend: str = "threads"
    placement: str = ""

    @property
    def modeled_time(self) -> float:
        return self.ledger.modeled_time()

    @property
    def bucket_sizes(self) -> np.ndarray:
        return np.array([d.n_bucket for d in self.diagnostics], dtype=np.int64)

    @property
    def pivots(self) -> np.ndarray:
        return self.diagnostics[0].pivots

    def ranks_by_id(self) -> Dict[str, float]:
        """Globalized k-mer rank of every sequence (merged over ranks)."""
        out: Dict[str, float] = {}
        for d in self.diagnostics:
            out.update(d.globalized_ranks)
        return out

    def summary(self) -> str:
        bs = self.bucket_sizes
        return (
            f"Sample-Align-D: N={self.alignment.n_rows} p={self.n_procs} "
            f"cols={self.alignment.n_columns} SP={self.sp:.1f} "
            f"backend={self.backend}\n"
            f"wall={self.wall_time:.2f}s modeled={self.modeled_time:.3f}s "
            f"comm={self.ledger.total_bytes()}B/{self.ledger.n_messages()}msg\n"
            f"buckets min/mean/max = {bs.min()}/{bs.mean():.1f}/{bs.max()} "
            f"(2N/p bound = {2 * int(np.ceil(self.alignment.n_rows / self.n_procs))})"
        )


def sample_align_d(
    seqs: TSequence[Sequence],
    n_procs: int = 4,
    config: SampleAlignDConfig | None = None,
    cost_model: CostModel | None = None,
    seed: int | None = None,
    backend: str | None = None,
) -> MsaResult:
    """Align ``seqs`` with Sample-Align-D on a virtual ``n_procs`` cluster.

    Parameters
    ----------
    seqs:
        The sequences (a :class:`SequenceSet` or any sequence of
        :class:`Sequence`); ids must be unique.
    n_procs:
        Virtual processor count ``p``.
    config:
        Pipeline configuration (default: :class:`SampleAlignDConfig`).
    cost_model:
        Alpha-beta communication model for the modeled cluster time.
    seed:
        When given, the initial block distribution is a seeded shuffle
        instead of input order (models "randomly selected sequences
        placed on the nodes"); the *output* row order always follows the
        input regardless.
    backend:
        Execution backend name (``"threads"``/``"pool"``; see
        :mod:`repro.parcomp.backends`); ``None`` lets :func:`placement`
        choose from the job's work and the usable cores.  The alignment
        is byte-identical either way.
    """
    sset = seqs if isinstance(seqs, SequenceSet) else SequenceSet(seqs)
    if len(sset) == 0:
        raise ValueError("no sequences to align")
    if n_procs < 1:
        raise ValueError("n_procs must be >= 1")
    config = config or SampleAlignDConfig()

    placed = sset
    if seed is not None:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(sset))
        placed = SequenceSet([sset[int(i)] for i in order])
    parts = placed.split(n_procs)
    if backend is None:
        backend = placement(sset, n_procs).backend

    t0 = time.perf_counter()
    spmd = run_spmd(
        n_procs,
        sample_align_d_spmd,
        rank_args=[(list(part),) for part in parts],
        args=(config,),
        cost_model=cost_model,
        backend=backend,
    )
    wall = time.perf_counter() - t0

    root = spmd.results[0]
    aln: Alignment = root["alignment"]
    if aln is None:
        raise RuntimeError("root produced no alignment")
    aln = aln.select_rows(sset.ids)
    return MsaResult(
        alignment=aln,
        sp=sp_score(aln, config.scoring.matrix),
        n_procs=n_procs,
        wall_time=wall,
        ledger=spmd.ledger,
        diagnostics=[res["diagnostics"] for res in spmd.results],
        global_ancestor=root.get("global_ancestor"),
        config=config,
        backend=spmd.backend,
        placement=spmd.placement,
    )
