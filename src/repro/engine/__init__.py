"""Unified engine API: one protocol, one registry, one service.

Every alignment backend -- the sequential Table-2 systems, the
stage-parallel baseline, Sample-Align-D -- sits behind the
:class:`Aligner` protocol and resolves through one registry, so callers
write::

    from repro.engine import align

    result = align(seqs, engine="sample-align-d", n_procs=4, seed=0)
    result = align(seqs, engine="muscle")
    result = align(seqs, engine="parallel-baseline", n_procs=8)

and always get back an :class:`AlignResult`.  For cached execution on
the calling thread (batches, deduplication) use
:class:`AlignmentService`; to add a backend use :func:`register_engine`
or :func:`~repro.engine.registry.register_sequential_aligner`.  The
service's result cache is a pluggable :class:`CacheBackend`
(:class:`MemoryResultCache` by default; see
:class:`repro.serve.store.ResultStore` for the disk-backed one).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.api import Aligner, AlignRequest, AlignResult
from repro.engine.registry import (
    available_engines,
    get_engine,
    register_engine,
    register_sequential_aligner,
    unregister_engine,
)
from repro.engine.service import (
    AlignJob,
    AlignmentService,
    CacheBackend,
    MemoryResultCache,
    TieredResultCache,
)

__all__ = [
    "Aligner",
    "AlignJob",
    "AlignRequest",
    "AlignResult",
    "AlignmentService",
    "CacheBackend",
    "MemoryResultCache",
    "TieredResultCache",
    "align",
    "available_engines",
    "get_engine",
    "register_engine",
    "register_sequential_aligner",
    "run_request",
    "unregister_engine",
]


def run_request(request: AlignRequest) -> AlignResult:
    """Resolve the request's engine through the registry and execute it."""
    engine = get_engine(request.engine, **request.engine_kwargs)
    return engine.run(request)


def align(
    seqs,
    engine: str = "sample-align-d",
    *,
    n_procs: int = 4,
    seed: Optional[int] = None,
    config=None,
    **engine_kwargs: Any,
) -> AlignResult:
    """Align ``seqs`` with any registered engine (the one-call facade).

    Parameters
    ----------
    seqs:
        The ungapped sequences (a :class:`~repro.seq.sequence.SequenceSet`
        or any iterable of :class:`~repro.seq.sequence.Sequence`).
    engine:
        Unified registry name: ``"sample-align-d"`` (default),
        ``"parallel-baseline"``, or any sequential aligner name
        (``"muscle"``, ``"clustalw"``, ``"center-star"``, ...).
    n_procs:
        Virtual cluster size for distributed engines.
    seed:
        Seeded initial block distribution (Sample-Align-D only).
    config:
        Optional :class:`~repro.core.config.SampleAlignDConfig`.
    engine_kwargs:
        Extra keyword arguments for the engine factory.
    """
    request = AlignRequest(
        sequences=tuple(seqs),
        engine=engine,
        n_procs=n_procs,
        seed=seed,
        config=config,
        engine_kwargs=engine_kwargs,
    )
    return run_request(request)
