"""Trace + metrics propagation across the execution-backend seam.

:func:`run_traced` is a drop-in replacement for
``get_backend(b).run(...)`` used by every backend dispatch site
(``run_spmd``, ``all_pairs``).  With tracing
disabled it *is* that call -- one flag check of overhead.  With tracing
enabled it:

1. opens a ``<stage>.dispatch`` span at the call site,
2. ships a :class:`~repro.obs.tracing.TraceContext` to every rank by
   wrapping the rank function in the picklable :class:`_TracedRankFn`
   (so propagation rides whatever wire the backend already has --
   a thread closure, or the pool's pickled run blob),
3. wraps each rank's work in a ``<stage>.rank`` span recorded into a
   rank-local buffer; on the ``threads`` backend, where ranks run one at
   a time, the span also carries ``compute_s`` (the rank's
   ``thread_time`` total, as the ledger has it), ``parked_s`` (wall
   seconds it spent without the run token in a blocking call) and
   ``overlap_s`` (wall seconds in compiled calls it ran with the token
   parked, overlapping other ranks), so overlapping rank spans read as
   running versus parked,
4. ships spans *and* a metrics delta back inside :class:`_TracedReturn`
   and unwraps them at the parent: spans are stitched under the
   dispatch span, and the delta is merged into the parent's registry --
   but only for foreign pids (the ``threads`` backend's ranks share the
   parent's registry; absorbing their delta would double-count).

The rank-side buffer never tees into the worker's global buffer for the
same reason: under ``threads`` the "worker" global buffer *is* the
parent's, and the spans will arrive again via the explicit ship-back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Sequence as TSequence,
    Union,
)

from repro.obs.metrics import MetricsSnapshot, registry
from repro.obs.tracing import (
    SpanRecord,
    TraceContext,
    install_context,
    propagation_context,
    record_spans,
    restore_context,
    span,
    tracing_enabled,
)

if TYPE_CHECKING:  # runtime import is deferred: parcomp's launcher
    # imports this module, so a top-level import back would be circular.
    from repro.parcomp.backends import ExecutionBackend, SpmdResult
    from repro.parcomp.cost import CostModel

__all__ = ["run_traced"]


@dataclass
class _TracedReturn:
    """A rank's result plus its observability freight (picklable)."""

    result: Any
    spans: List[SpanRecord] = field(default_factory=list)
    pid: int = 0
    metrics: Optional[MetricsSnapshot] = None


class _TracedRankFn:
    """Picklable wrapper installing the trace context around a rank fn."""

    def __init__(self, ctx: TraceContext, fn: Callable[..., Any], stage: str):
        self.ctx = ctx
        self.fn = fn
        self.stage = stage

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> "_TracedReturn":
        from repro.parcomp.comm import Fabric

        buf, token = install_context(self.ctx)
        try:
            before = registry().snapshot()
            with span(f"{self.stage}.rank", rank=comm.rank) as rank_span:
                result = self.fn(comm, *args, **kwargs)
                fabric = comm.fabric
                if isinstance(fabric, Fabric) and fabric.parked_s is not None:
                    comm.finalize()  # publish the compute total now
                    rank_span.set(
                        compute_s=float(fabric.ledger.compute[comm.rank]),
                        parked_s=fabric.parked_s[comm.rank],
                        overlap_s=fabric.overlap_s[comm.rank],
                    )
            delta = registry().snapshot().diff(before)
            return _TracedReturn(
                result=result,
                spans=buf.drain(),
                pid=os.getpid(),
                metrics=delta,
            )
        finally:
            restore_context(token)


def run_traced(
    backend: "Union[str, ExecutionBackend, None]",
    n_ranks: int,
    fn: Callable[..., Any],
    *,
    stage: str,
    args: TSequence[Any] = (),
    rank_args: Optional[TSequence[TSequence[Any]]] = None,
    cost_model: "CostModel | None" = None,
    **kwargs: Any,
) -> "SpmdResult":
    """``get_backend(backend).run(...)`` with span/metrics propagation.

    ``stage`` names the dispatch site (``"spmd"``, ``"distance"``): the
    parent records ``<stage>.dispatch`` and every rank records
    ``<stage>.rank`` parented under it, with the rank function's own
    spans nested below.
    """
    from repro.parcomp.backends import get_backend

    b = get_backend(backend)
    if not tracing_enabled():
        return b.run(
            n_ranks, fn, args=args, rank_args=rank_args,
            cost_model=cost_model, **kwargs,
        )
    with span(f"{stage}.dispatch", backend=b.name, ranks=n_ranks):
        ctx = propagation_context()
        spmd = b.run(
            n_ranks, _TracedRankFn(ctx, fn, stage), args=args,
            rank_args=rank_args, cost_model=cost_model, **kwargs,
        )
        my_pid = os.getpid()
        reg = registry()
        for i, ret in enumerate(spmd.results):
            if not isinstance(ret, _TracedReturn):
                continue  # e.g. a rank that never reported
            record_spans(ret.spans)
            if ret.metrics is not None and ret.pid != my_pid:
                reg.absorb(ret.metrics)
            spmd.results[i] = ret.result
        return spmd
