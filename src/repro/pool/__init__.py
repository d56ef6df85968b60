"""repro.pool: persistent worker pool with shared-memory transport.

The real-core execution backend.  Where ``threads`` runs its ranks one
at a time on one core, ``"pool"`` keeps a supervised set of long-lived
worker processes warm and reuses them for every SPMD run, all-pairs
distance schedule and progressive merge -- repeated short jobs pay a
queue round-trip instead of a process start, and large payloads ride
zero-copy shared-memory segments instead of pickled pipes.  A run with
more ranks than the pool has slots runs cold, on a one-shot pool sized
for it.

Layout:

- :mod:`repro.pool.shm` -- the payload wire: inline pickle below a size
  threshold, named shared-memory segments (single-consumer or fan-out)
  above it, with registry-tracked guaranteed unlink.
- :mod:`repro.pool.workers` -- :class:`WorkerPool`: slots, queues,
  dispatch, the rank-side transport, drain/close.
- :mod:`repro.pool.supervisor` -- heartbeat liveness, crash respawn,
  idle shrink, terminate→kill escalation.
- :mod:`repro.pool.backend` -- :class:`PoolBackend` (the registered
  ``"pool"`` backend) and the process-default pool.

Select it like any other backend -- ``backend="pool"`` in
``run_spmd``/``all_pairs``/``progressive_merge``/``sample_align_d``,
``--backend pool`` on the CLI -- or hand a configured
:class:`WorkerPool` to :class:`PoolBackend` / ``set_default_pool``.
"""

from repro.pool.backend import (
    PoolBackend,
    close_default_pool,
    get_default_pool,
    set_default_pool,
)
from repro.pool.shm import (
    DEFAULT_SHM_THRESHOLD,
    SegmentRegistry,
    ShmRef,
    TransportStats,
    decode_payload,
    encode_payload,
)
from repro.pool.supervisor import PoolSupervisor
from repro.pool.workers import WorkerCrashError, WorkerPool

__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "PoolBackend",
    "PoolSupervisor",
    "SegmentRegistry",
    "ShmRef",
    "TransportStats",
    "WorkerCrashError",
    "WorkerPool",
    "close_default_pool",
    "decode_payload",
    "encode_payload",
    "get_default_pool",
    "set_default_pool",
]
