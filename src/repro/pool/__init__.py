"""repro.pool: persistent worker pool with a queue transport.

The real-core execution backend.  Where ``threads`` runs its ranks one
at a time on one core, ``"pool"`` keeps a fixed set of long-lived
worker processes warm and reuses them for every SPMD run -- a
Sample-Align-D run, an all-pairs distance schedule -- so repeated short
jobs pay a queue round-trip instead of a process start.  Every payload
is pickled once by its sender and rides a :mod:`multiprocessing` queue
as bytes.  A run with more ranks than the pool has workers is placed
M:N: each worker hosts a block of the ranks as threads, and a message
crosses a process boundary only between two blocks.  An unset backend
lands here when :func:`~repro.parcomp.backends.place` says the job is
worth a pool.  The pool's settings are fixed constants
of :mod:`repro.pool.workers`; only the slot count is chosen
(``max_workers``, or ``REPRO_POOL_WORKERS`` for the default pool).

Layout:

- :mod:`repro.pool.workers` -- :class:`WorkerPool`: slots, queues,
  dispatch, the rank-side transport, close, and the one liveness check
  (on the dispatch path: a worker that died or stopped beating is
  replaced, and a run it was in raises :class:`WorkerCrashError`).
- :mod:`repro.pool.backend` -- :class:`PoolBackend` (the ``"pool"``
  backend) and the process-default pool.

Select it like the other backend -- ``backend="pool"`` in
``run_spmd``/``all_pairs``/``sample_align_d``, ``--backend pool`` on the
CLI -- or hand a sized :class:`WorkerPool` to :class:`PoolBackend` /
``set_default_pool``.
"""

from repro.pool.backend import (
    PoolBackend,
    adopt_default_pool,
    close_default_pool,
    get_default_pool,
    set_default_pool,
)
from repro.pool.workers import WorkerCrashError, WorkerPool

__all__ = [
    "PoolBackend",
    "WorkerCrashError",
    "WorkerPool",
    "adopt_default_pool",
    "close_default_pool",
    "get_default_pool",
    "set_default_pool",
]
