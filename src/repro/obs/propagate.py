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
   rank-local buffer; on either backend, where the ranks of one fabric
   run one at a time, the span also carries ``compute_s`` (the rank's
   ``thread_time`` total, exactly as the ledger has it), ``parked_s``
   (wall seconds it spent without the run token in a blocking call,
   a wait for another ``pool`` worker's message included) and
   ``overlap_s`` (wall seconds in compiled calls it ran with the token
   parked, overlapping other ranks), so overlapping rank spans read as
   running versus parked,
4. ships spans *and* a metrics delta back inside :class:`_TracedReturn`
   and unwraps them at the parent: spans are stitched under the
   dispatch span, and the delta is merged into the parent's registry --
   but only for foreign pids (the ``threads`` backend's ranks share the
   parent's registry; absorbing their delta would double-count).  The
   ranks one process hosts share its registry too (a ``pool`` worker
   hosts a block of them), so the delta is taken once per fabric: from
   when the first of its ranks starts to when the last one ends, and
   shipped by that last one,
5. names where the ranks ran on the dispatch span (``placement``:
   backend, worker processes ``k`` and ranks per worker).

The rank-side buffer never tees into the worker's global buffer for the
same reason: under ``threads`` the "worker" global buffer *is* the
parent's, and the spans will arrive again via the explicit ship-back.
"""

from __future__ import annotations

import os
import threading
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


_WINDOW_LOCK = threading.Lock()


class _MetricsWindow:
    """The registry delta of the ranks one fabric hosts in this process:
    opened by the first of them to start, closed by the last to end."""

    def __init__(self, n_ranks: int) -> None:
        self.before = registry().snapshot()
        self.open = n_ranks

    @staticmethod
    def enter(fabric: Any) -> "_MetricsWindow":
        with _WINDOW_LOCK:
            window = getattr(fabric, "_metrics_window", None)
            if window is None:
                window = _MetricsWindow(len(fabric.ranks))
                fabric._metrics_window = window
            return window

    def leave(self) -> Optional[MetricsSnapshot]:
        """The delta for the last rank to leave, ``None`` for the rest."""
        with _WINDOW_LOCK:
            self.open -= 1
            if self.open:
                return None
        return registry().snapshot().diff(self.before)


class _TracedRankFn:
    """Picklable wrapper installing the trace context around a rank fn."""

    def __init__(self, ctx: TraceContext, fn: Callable[..., Any], stage: str):
        self.ctx = ctx
        self.fn = fn
        self.stage = stage

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> "_TracedReturn":
        buf, token = install_context(self.ctx)
        try:
            fabric = comm.fabric
            window = _MetricsWindow.enter(fabric)
            with span(f"{self.stage}.rank", rank=comm.rank) as rank_span:
                result = self.fn(comm, *args, **kwargs)
                comm.finalize()  # publish the compute total now
                rank_span.set(
                    compute_s=float(fabric.ledger.compute[comm.rank]),
                    parked_s=fabric.parked_s[comm.rank],
                    overlap_s=fabric.overlap_s[comm.rank],
                )
            return _TracedReturn(
                result=result,
                spans=buf.drain(),
                pid=os.getpid(),
                metrics=window.leave(),
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
    with span(
        f"{stage}.dispatch", backend=b.name, ranks=n_ranks
    ) as dispatch_span:
        ctx = propagation_context()
        spmd = b.run(
            n_ranks, _TracedRankFn(ctx, fn, stage), args=args,
            rank_args=rank_args, cost_model=cost_model, **kwargs,
        )
        dispatch_span.set(placement=spmd.placement)
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
