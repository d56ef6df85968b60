"""The ``"pool"`` execution backend and the process-default pool.

:class:`PoolBackend` is the ``"pool"`` face of :mod:`repro.pool`: it
satisfies the :class:`~repro.parcomp.backends.ExecutionBackend` contract
(same program semantics, same abort semantics, byte-identical results)
while executing ranks on a warm :class:`~repro.pool.workers.WorkerPool`.
Two behaviours are layered on top of the raw pool:

- **crash retry** -- a :class:`~repro.pool.workers.WorkerCrashError`
  means a worker *process* died or stopped beating, not that the
  program failed.  The rank
  programs this repo runs (distance tiles, Sample-Align-D) are
  deterministic and side-effect-free, so the whole run is retried on
  the replaced workers -- the caller still gets the byte-identical
  result or, after :data:`MAX_RETRIES` retries that crash too, a
  ``RuntimeError``.  Program exceptions are never retried.
- **capacity fallback** -- a pool has a fixed slot count; a run asking
  for more ranks than that runs cold, on a one-shot
  :class:`~repro.pool.workers.WorkerPool` with one slot per rank that is
  closed when the run ends (counted in ``pool.stats()["fallback_runs"]``).
  It is dispatched, traced and crash-retried exactly like a run that
  fits.

Most callers never construct a pool: ``backend="pool"`` anywhere in the
stack resolves to :func:`get_default_pool`, one process-wide pool created
on first use and closed at interpreter exit.  Long-lived owners (the
serving gateway) install their own pool with :func:`set_default_pool` so
every layer underneath them dispatches onto it.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import threading
from typing import Any, Callable, Optional, Sequence

from repro.obs.tracing import span
from repro.parcomp.backends import (
    POOL_WORKER_ENV,
    ExecutionBackend,
    SpmdResult,
)
from repro.parcomp.cost import CostModel
from repro.parcomp.token import COMPUTE_TOKEN
from repro.pool.workers import WorkerCrashError, WorkerPool

__all__ = [
    "PoolBackend",
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
    the token around every ``run_spmd`` dispatch -- the warm pool, a
    one-shot overflow pool and each crash retry alike -- and takes it
    back before returning (the wait to get it back is the
    ``pool.token_wait`` span), so the next in-process compute runs
    meanwhile, and so do dispatches onto *other* pools (two overflow
    runs, each on its one-shot pool).  Two runs on one
    :class:`WorkerPool` still go one after the other: that is the
    pool's own dispatch lock (rank ``r`` runs on slot ``r``), as before
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
        overflow = n_ranks > pool.max_workers
        if overflow:
            pool.note_fallback()
        last_crash: Optional[WorkerCrashError] = None
        attempts = MAX_RETRIES + 1
        for attempt in range(attempts):
            try:
                # Fixed slot count: a run that does not fit gets a
                # one-shot pool of its own size, per attempt, opened
                # inside the span and closed on the way out.
                with span(
                    "pool.dispatch", ranks=n_ranks, attempt=attempt
                ) as dispatch_span, (
                    WorkerPool(max_workers=n_ranks)
                    if overflow else contextlib.nullcontext(pool)
                ) as runner:
                    with COMPUTE_TOKEN.parked():
                        result = runner.run_spmd(
                            n_ranks, fn, args, rank_args, cost_model, **kwargs
                        )
                    dispatch_span.set(**runner.stats()["transport"])
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
    closed automatically at interpreter exit.  Refuses to run inside a
    pool worker: a rank program that asked for ``backend="pool"`` again
    would fork a pool per worker, recursively.
    """
    if os.environ.get(POOL_WORKER_ENV):
        raise RuntimeError(
            "backend='pool' is not available inside a pool worker; "
            "nested runs should use backend='threads'"
        )
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool.closed:
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
