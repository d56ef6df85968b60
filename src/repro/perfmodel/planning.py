"""Capacity-planning helpers on top of the calibrated model.

Answers the questions a user of the system actually asks before running:
how many processors pay off for my (N, L), where does communication
overtake computation, at what N does Sample-Align-D start beating the
sequential aligner outright -- and, since the calibrated model assumes
ranks run on real cores, what a chosen *execution backend* actually
delivers on this host (:func:`measure_backend_throughput`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence as TSequence, Tuple

import numpy as np

from repro.parcomp.backends import usable_cores
from repro.parcomp.cost import CostModel
from repro.perfmodel.model import (
    KernelCoefficients,
    predict_sequential_time,
    predict_stage_times,
    predict_total_time,
)

__all__ = [
    "optimal_processors",
    "efficiency_curve",
    "comm_compute_crossover",
    "breakeven_n",
    "measure_backend_throughput",
]


def optimal_processors(
    n_sequences: int,
    mean_length: float,
    coeffs: KernelCoefficients,
    max_procs: int = 64,
    cost_model: CostModel | None = None,
) -> int:
    """The processor count minimising modeled total time for (N, L)."""
    if max_procs < 1:
        raise ValueError("max_procs must be >= 1")
    times = [
        predict_total_time(n_sequences, p, mean_length, coeffs, cost_model)
        for p in range(1, max_procs + 1)
    ]
    return int(np.argmin(times)) + 1


def efficiency_curve(
    n_sequences: int,
    mean_length: float,
    procs: TSequence[int],
    coeffs: KernelCoefficients,
    cost_model: CostModel | None = None,
) -> np.ndarray:
    """Parallel efficiency ``T(1) / (p * T(p))`` over a processor sweep.

    Values above 1 mean superlinear scaling (the paper's regime).
    """
    t1 = predict_total_time(n_sequences, 1, mean_length, coeffs, cost_model)
    return np.array(
        [
            t1
            / (
                p
                * predict_total_time(
                    n_sequences, p, mean_length, coeffs, cost_model
                )
            )
            for p in procs
        ]
    )


def comm_compute_crossover(
    n_sequences: int,
    mean_length: float,
    coeffs: KernelCoefficients,
    max_procs: int = 4096,
    cost_model: CostModel | None = None,
) -> int:
    """Smallest p whose modeled communication exceeds its computation.

    Past this point adding processors is communication-bound (the regime
    the paper's assumption "communication much less than alignment time"
    excludes).  Returns ``max_procs`` when no crossover occurs.
    """
    p = 2
    while p <= max_procs:
        st = predict_stage_times(
            n_sequences, p, mean_length, coeffs, cost_model
        )
        if st.comm > st.compute:
            return p
        p *= 2
    return max_procs


def breakeven_n(
    n_procs: int,
    mean_length: float,
    coeffs: KernelCoefficients,
    cost_model: CostModel | None = None,
    n_max: int = 1 << 20,
) -> int:
    """Smallest N where the p-rank pipeline beats the sequential aligner.

    Binary search over N; returns ``n_max`` if the pipeline never wins
    (e.g. absurd cost models).
    """
    def wins(n: int) -> bool:
        par = predict_total_time(n, n_procs, mean_length, coeffs, cost_model)
        seq = predict_sequential_time(n, mean_length, coeffs)
        return par < seq

    lo, hi = 2, 4
    while hi < n_max and not wins(hi):
        hi *= 2
    if hi >= n_max:
        return n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if wins(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def measure_backend_throughput(
    seqs: TSequence,
    backend: str,
    procs: Optional[TSequence[int]] = None,
    probe_size: int = 24,
    config=None,
) -> Dict[str, Any]:
    """Measure a backend's real Sample-Align-D throughput on this host.

    The calibrated model predicts *cluster* time assuming every rank has
    its own processor; the ``threads`` backend does not (its ranks run
    one at a time, so its wall time is about the serial work) while
    ``pool`` honours it up to the host's core count (and its slot
    count: more ranks than slots run cold on a one-shot pool).  This
    probe aligns an evenly-spaced subsample of ``seqs`` (at most
    ``probe_size`` sequences) at each rank count in ``procs`` with the
    given backend and measures real wall time, so a plan can recommend
    from *measured* backend throughput rather than the model alone.

    Returns a JSON-able dict: per-p wall seconds, measured speedups over
    p=1, the best measured rank count, and the host core count that
    bounds what ``pool`` can deliver.
    """
    from repro.core.config import SampleAlignDConfig
    from repro.core.driver import sample_align_d

    seqs = list(seqs)
    if not seqs:
        raise ValueError("no sequences to probe")
    if probe_size < 2:
        raise ValueError("probe_size must be >= 2")
    step = max(len(seqs) // probe_size, 1)
    sample = seqs[::step][:probe_size]
    host_cores = usable_cores()
    if procs is None:
        procs = [1, 2, 4]
    procs = sorted({int(p) for p in procs if 1 <= int(p) <= len(sample)})
    if not procs:
        procs = [1]
    base = config or SampleAlignDConfig()
    walls: Dict[int, float] = {}
    for p in procs:
        t0 = time.perf_counter()
        sample_align_d(sample, n_procs=p, config=base, backend=backend)
        walls[p] = time.perf_counter() - t0
    t1 = walls.get(1)
    best = min(walls, key=lambda p: walls[p])
    return {
        "backend": backend,
        "n_probe": len(sample),
        "host_cores": host_cores,
        "wall_s": {str(p): w for p, w in walls.items()},
        "speedup": {
            str(p): (t1 / w if t1 else None) for p, w in walls.items()
        },
        "best_procs": int(best),
    }
