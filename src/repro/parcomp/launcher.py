"""SPMD launcher over the pluggable execution backends.

``run_spmd(n_ranks, fn, ...)`` runs ``fn(comm, *args, **kwargs)`` once per
rank, each rank with its own :class:`~repro.parcomp.comm.VirtualComm`.
*Where* the ranks execute is a backend choice (see
:mod:`repro.parcomp.backends`): ``backend="threads"`` (default) is the
in-process virtual cluster, whose ranks run one at a time;
``backend="pool"`` gives every rank a warm worker process, so the
program runs on real cores (more ranks than pool slots: a one-shot pool,
cold).  Either way the first rank failure aborts the whole job
(surviving ranks raise :class:`~repro.parcomp.comm.SpmdAbort` out of
their next blocking wait) and the original exception is re-raised to the
caller with the failing rank attached.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence as TSequence, Union

from repro.obs.propagate import run_traced
from repro.parcomp.backends import ExecutionBackend, SpmdResult
from repro.parcomp.cost import CostModel

__all__ = ["SpmdResult", "run_spmd"]


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    args: TSequence[Any] = (),
    rank_args: Optional[TSequence[TSequence[Any]]] = None,
    cost_model: CostModel | None = None,
    backend: Union[str, ExecutionBackend, None] = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute ``fn`` as an SPMD program over ``n_ranks`` virtual ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks (the paper's ``p``).
    fn:
        ``fn(comm, *args, **kwargs)`` -- called once per rank.  With
        ``rank_args`` given, rank ``r`` receives ``fn(comm, *rank_args[r],
        *args, **kwargs)`` (per-rank inputs first, like data pre-placed on
        each cluster node's disk).
    cost_model:
        Alpha-beta model for the logical clocks (default: gigabit cluster).
    backend:
        Execution backend: a registered name (``"threads"``,
        ``"pool"``), an :class:`ExecutionBackend` instance, or None for
        the default (``"threads"``).

    Returns
    -------
    :class:`SpmdResult` with per-rank return values (rank order) and the
    byte/clock ledger; ``result.backend`` names the backend that ran it.
    """
    # run_traced is get_backend(backend).run(...) plus span/metrics
    # propagation when tracing is on (one flag check when it is off).
    return run_traced(
        backend,
        n_ranks,
        fn,
        stage="spmd",
        args=args,
        rank_args=rank_args,
        cost_model=cost_model,
        **kwargs,
    )
