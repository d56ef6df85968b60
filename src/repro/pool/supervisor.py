"""Lifecycle supervision for :class:`~repro.pool.workers.WorkerPool`.

A persistent pool needs what a per-call backend gets for free: someone
has to notice when a long-lived worker dies *between* runs, restart it,
shrink the pool when it has been idle, and make worker shutdown
terminate→kill-escalate the same way PR 3 hardened the per-call
backends.  That someone is :class:`PoolSupervisor`, a daemon thread with
three duties per tick:

- **crash respawn** -- a desired slot whose process is gone forces the
  pool-wide reset (queues drained of stale wires and rebuilt, fresh
  processes);
- **hang detection** -- a worker whose heartbeat has gone stale for ~10
  intervals while the pool is idle is force-recycled (its beat thread is
  a daemon that survives any amount of compute, so a stale beat means
  the process is truly wedged, not busy);
- **idle shrink** -- above :data:`~repro.pool.workers.MIN_WORKERS`,
  workers idle longer than :data:`~repro.pool.workers.IDLE_TIMEOUT_S`
  are stopped and joined; the next dispatch restarts them.

The supervisor only acts when it can take the dispatch lock without
blocking: mid-run crash handling belongs to the dispatcher (which sees
the death first through its report-collection loop), and a supervisor
that waited on the lock could stall behind a long run and pile up work.
"""

from __future__ import annotations

import time
from threading import Event, Thread

from repro.pool import workers

__all__ = ["PoolSupervisor", "escalate"]

#: Missed heartbeat intervals before an idle worker counts as hung.
_HUNG_BEATS = 10.0

#: Floor on the hang threshold: never call a worker hung in under 5 s.
_HUNG_FLOOR_S = 5.0


def escalate(proc, join_timeout: float = 1.0) -> None:
    """terminate → kill a worker process, bounded (PR 3 semantics)."""
    if proc is None or not proc.is_alive():
        return
    proc.terminate()
    proc.join(join_timeout)
    if proc.is_alive():  # pragma: no cover - SIGTERM almost always lands
        proc.kill()
        proc.join(join_timeout)


class PoolSupervisor:
    """Daemon thread running the pool's periodic health checks."""

    def __init__(self, pool: workers.WorkerPool) -> None:
        self._pool = pool
        self._stop = Event()
        self._thread = Thread(
            target=self._loop, name=f"{pool.name}-supervisor", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    # -- the tick ------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(workers.HEARTBEAT_S):
            try:
                self._tick()
            except Exception:  # pragma: no cover - supervision never raises
                pass

    def _tick(self) -> None:
        pool = self._pool
        if pool.closed:
            return
        # Never contend with a dispatch in flight: the dispatcher owns
        # mid-run failure handling.
        if not pool._dispatch_lock.acquire(blocking=False):
            return
        try:
            if pool.closed:
                return
            self._respawn_dead()
            self._recycle_hung()
            pool._shrink_idle()
        finally:
            pool._dispatch_lock.release()

    def _respawn_dead(self) -> None:
        pool = self._pool
        with pool._state_lock:
            crashed = any(
                s.desired and s.proc is not None and not s.alive
                for s in pool._slots
            )
        if crashed:
            # A signal death may have poisoned shared queue locks, so
            # recovery is always the pool-wide reset.
            pool._reset_workers()

    def _recycle_hung(self) -> None:
        pool = self._pool
        threshold = max(_HUNG_BEATS * workers.HEARTBEAT_S, _HUNG_FLOOR_S)
        now = time.time()
        with pool._state_lock:
            hung = any(
                s.desired and s.alive
                and pool._heartbeats[s.index] > 0.0
                and now - pool._heartbeats[s.index] > threshold
                for s in pool._slots
            )
        if hung:
            pool._reset_workers()
