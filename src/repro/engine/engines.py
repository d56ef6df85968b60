"""Adapters that put every backend behind the :class:`Aligner` protocol.

Three engine families exist today:

- :class:`SequentialEngine` wraps any
  :class:`repro.msa.base.SequentialMsaAligner` (the Table-2 systems and
  user plug-ins);
- :class:`SampleAlignDEngine` wraps the paper's distributed pipeline;
- :class:`ParallelBaselineEngine` wraps the stage-parallel CLUSTALW
  baseline the paper argues against.

All of them turn an :class:`AlignRequest` into an :class:`AlignResult`
with uniform SP/timing fields plus engine-specific ``diagnostics``; the
rich native result object is preserved in ``result.details``.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.engine.api import AlignRequest, AlignResult
from repro.obs.tracing import span

__all__ = [
    "SequentialEngine",
    "SampleAlignDEngine",
    "ParallelBaselineEngine",
]


def _sp(alignment, request: AlignRequest) -> float:
    """SP score under the request's scoring matrix (BLOSUM62 default)."""
    from repro.align.scoring import sp_score

    matrix = None
    if request.config is not None:
        matrix = request.config.scoring.matrix
    return sp_score(alignment, matrix) if matrix is not None else sp_score(alignment)


class SequentialEngine:
    """A sequential MSA system seen through the unified protocol."""

    kind = "sequential"

    def __init__(self, name: str, aligner) -> None:
        self.name = name
        self.aligner = aligner

    def __repr__(self) -> str:
        return f"SequentialEngine({self.name!r})"

    def run(self, request: AlignRequest) -> AlignResult:
        t0 = time.perf_counter()
        with span("engine.align", engine=self.name):
            alignment = self.aligner.align(request.sequence_set())
        wall = time.perf_counter() - t0
        with span("engine.score", engine=self.name):
            sp = _sp(alignment, request)
        return AlignResult(
            alignment=alignment,
            engine=self.name,
            sp=sp,
            wall_time=wall,
            n_procs=1,
            request_hash=request.content_hash(),
            diagnostics={"aligner": type(self.aligner).__name__},
            details=None,
        )


class SampleAlignDEngine:
    """The paper's distributed pipeline behind the unified protocol.

    Parameters
    ----------
    cost_model:
        Alpha-beta communication model for the modeled cluster time.
    backend:
        Execution backend of every run through this engine instance
        (``"threads"``/``"pool"``; ``None``: the launcher default).  A
        request selects it with ``engine_kwargs={"backend": ...}``, which
        builds the engine with it.
    """

    name = "sample-align-d"
    kind = "distributed"

    def __init__(self, cost_model=None, backend=None) -> None:
        from repro.distance.config import validate_backend_name

        validate_backend_name(backend)
        self.cost_model = cost_model
        self.backend = backend

    def __repr__(self) -> str:
        if self.backend is not None:
            return f"SampleAlignDEngine(backend={self.backend!r})"
        return "SampleAlignDEngine()"

    def run(self, request: AlignRequest) -> AlignResult:
        from repro.core.driver import sample_align_d

        with span("engine.align", engine=self.name, backend=str(self.backend)):
            result = sample_align_d(
                request.sequence_set(),
                n_procs=request.n_procs,
                config=request.config,
                cost_model=self.cost_model,
                seed=request.seed,
                backend=self.backend,
            )
        diagnostics: Dict[str, Any] = {
            "modeled_time": result.modeled_time,
            "comm_bytes": int(result.ledger.total_bytes()),
            "n_messages": int(result.ledger.n_messages()),
            "bucket_sizes": [int(b) for b in result.bucket_sizes],
            "local_aligner": result.config.local_aligner,
            "backend": result.backend,
        }
        return AlignResult(
            alignment=result.alignment,
            engine=self.name,
            sp=result.sp,
            wall_time=result.wall_time,
            n_procs=result.n_procs,
            request_hash=request.content_hash(),
            diagnostics=diagnostics,
            details=result,
        )


class ParallelBaselineEngine:
    """Stage-parallel CLUSTALW (distances parallel, alignment sequential)."""

    name = "parallel-baseline"
    kind = "distributed"

    def __init__(self, cost_model=None, **kwargs) -> None:
        from repro.msa.parallel_baseline import ParallelClustalW

        self.cost_model = cost_model
        self.baseline = ParallelClustalW(**kwargs)

    def __repr__(self) -> str:
        return "ParallelBaselineEngine()"

    def run(self, request: AlignRequest) -> AlignResult:
        t0 = time.perf_counter()
        with span("engine.align", engine=self.name):
            result = self.baseline.align(
                request.sequence_set(),
                n_procs=request.n_procs,
                cost_model=self.cost_model,
            )
        wall = time.perf_counter() - t0
        with span("engine.score", engine=self.name):
            sp = _sp(result.alignment, request)
        return AlignResult(
            alignment=result.alignment,
            engine=self.name,
            sp=sp,
            wall_time=wall,
            n_procs=result.n_procs,
            request_hash=request.content_hash(),
            diagnostics={
                "modeled_time": result.modeled_time,
                "comm_bytes": int(result.ledger.total_bytes()),
                "n_messages": int(result.ledger.n_messages()),
            },
            details=result,
        )
