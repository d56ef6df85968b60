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
from repro.parcomp.cost import CostModel, TimingLedger
from repro.parcomp.launcher import run_spmd
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence, SequenceSet

__all__ = ["MsaResult", "sample_align_d"]


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
        :mod:`repro.parcomp.backends`); ``None`` means the launcher
        default (``"threads"``).  The alignment is byte-identical either
        way.
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
    )
