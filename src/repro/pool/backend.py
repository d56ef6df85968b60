"""The ``"pool"`` execution backend and the process-default pool.

:class:`PoolBackend` is the ``"pool"`` face of :mod:`repro.pool`: it
satisfies the :class:`~repro.parcomp.backends.ExecutionBackend` contract
(same program semantics, same abort semantics, byte-identical results)
while executing ranks on a warm :class:`~repro.pool.workers.WorkerPool`
-- any number of them: with more ranks than workers, each worker hosts
a block of the ranks (M:N, :func:`~repro.pool.workers.rank_blocks`).
One behaviour is layered on top of the raw pool, **crash retry**: a
:class:`~repro.pool.workers.WorkerCrashError` means a worker *process*
died or stopped beating, not that the program failed.  The rank
programs this repo runs (distance tiles, Sample-Align-D) are
deterministic and side-effect-free, so the whole run -- every rank of
it, whichever worker hosted them -- is retried on the replaced workers:
the caller still gets the byte-identical result or, after
:data:`MAX_RETRIES` retries that crash too, a ``RuntimeError``.
Program exceptions are never retried.

Most callers never construct a pool: ``backend="pool"`` anywhere in the
stack -- or an unset backend that :func:`~repro.parcomp.backends.place`
puts on ``pool`` -- resolves to :func:`get_default_pool`, one
process-wide pool created on first use and closed at interpreter exit.
Long-lived owners (the serving gateway) install their own pool with
:func:`set_default_pool` so every layer underneath them dispatches onto
it.
"""

from __future__ import annotations

import atexit
import threading
from typing import Any, Callable, Optional, Sequence

from repro.obs.tracing import span
from repro.parcomp.backends import (
    ExecutionBackend,
    SpmdResult,
    in_spmd_rank,
)
from repro.parcomp.cost import CostModel
from repro.parcomp.token import COMPUTE_TOKEN
from repro.pool.workers import WorkerCrashError, WorkerPool

__all__ = [
    "PoolBackend",
    "adopt_default_pool",
    "close_default_pool",
    "get_default_pool",
    "set_default_pool",
]

#: Whole-run retries after worker *crashes* (program errors are never
#: retried).  Sound because the repo's rank programs are deterministic
#: and side-effect-free.
MAX_RETRIES = 2


class PoolBackend(ExecutionBackend):
    """Run SPMD programs on a persistent worker pool.

    Parameters
    ----------
    pool:
        The :class:`WorkerPool` to dispatch onto.  ``None`` (the common
        case -- every ``backend="pool"`` string resolves here) means the
        process-default pool from :func:`get_default_pool`, re-resolved
        per run so a gateway-installed pool takes effect immediately.

    Who holds which token while blocked: a service request that gets
    here holds the process's compute token
    (:data:`~repro.parcomp.token.COMPUTE_TOKEN`), and all it does from
    here on is wait for other processes.  :meth:`run` therefore parks
    the token around every ``run_spmd`` dispatch -- the first attempt
    and each crash retry alike -- and takes it back before returning
    (the wait to get it back is the ``pool.token_wait`` span), so the
    next in-process compute runs meanwhile, and so do dispatches onto
    *other* pools.  Two runs on one :class:`WorkerPool` still go one
    after the other: that is the pool's own dispatch lock, as before
    the token existed.  A caller that does not hold the token (a
    direct ``run_request``, a rank thread of a ``threads`` run) neither
    acquires nor releases it.
    """

    name = "pool"

    def __init__(self, pool: Optional[WorkerPool] = None) -> None:
        self._pool = pool

    @property
    def pool(self) -> WorkerPool:
        return self._pool if self._pool is not None else get_default_pool()

    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        cost_model: CostModel | None = None,
        **kwargs: Any,
    ) -> SpmdResult:
        self._validate(n_ranks, rank_args)
        pool = self.pool
        last_crash: Optional[WorkerCrashError] = None
        attempts = MAX_RETRIES + 1
        for attempt in range(attempts):
            try:
                with span(
                    "pool.dispatch", ranks=n_ranks, attempt=attempt
                ) as dispatch_span:
                    with COMPUTE_TOKEN.parked():
                        result = pool.run_spmd(
                            n_ranks, fn, args, rank_args, cost_model, **kwargs
                        )
                    dispatch_span.set(
                        placement=result.placement,
                        **pool.stats()["transport"],
                    )
                    return result
            except WorkerCrashError as exc:
                last_crash = exc
        raise RuntimeError(
            f"pool run failed after {attempts} attempts "
            f"(workers kept dying): {last_crash!r}"
        ) from last_crash


# ---------------------------------------------------------------------------
# The process-default pool.

_default_pool: Optional[WorkerPool] = None
_default_lock = threading.Lock()


def get_default_pool() -> WorkerPool:
    """The process-wide pool, created on first use.

    Sized by ``REPRO_POOL_WORKERS`` (default: usable cores, min 2) and
    closed automatically at interpreter exit.  Refuses to run inside an
    SPMD rank (:func:`~repro.parcomp.backends.in_spmd_rank`): a rank
    program that asked for ``backend="pool"`` again would fork a pool
    per worker, recursively, or wait on the pool it runs in.
    """
    if in_spmd_rank():
        raise RuntimeError(
            "backend='pool' is not available inside an SPMD rank "
            "(no pool inside a pool); nested runs should use "
            "backend='threads'"
        )
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool.closed:
            _default_pool = WorkerPool()
        return _default_pool


def adopt_default_pool() -> Optional[WorkerPool]:
    """Install a new :class:`WorkerPool` as the process default unless a
    live one is installed already; return it, or ``None`` when there
    was one.  The caller owns the pool it got: it closes it and puts
    the slot back with :func:`set_default_pool` (how a gateway creates
    its pool on the first request it places on ``pool``)."""
    global _default_pool
    if in_spmd_rank():
        return None  # get_default_pool() explains the refusal
    with _default_lock:
        if _default_pool is not None and not _default_pool.closed:
            return None
        _default_pool = WorkerPool()
        return _default_pool


def set_default_pool(pool: Optional[WorkerPool]) -> Optional[WorkerPool]:
    """Install ``pool`` as the process default; returns the previous one.

    The previous pool is *not* closed -- the caller decides (the gateway
    restores it on shutdown).  Passing ``None`` just clears the slot so
    the next :func:`get_default_pool` creates a fresh pool.
    """
    global _default_pool
    with _default_lock:
        previous, _default_pool = _default_pool, pool
        return previous


def close_default_pool() -> None:
    """Close and clear the process-default pool (idempotent; atexit)."""
    global _default_pool
    with _default_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.close()


atexit.register(close_default_pool)
