"""The process's one compute token.

Two threads of small numpy calls trading the interpreter lock across
two cores finish later than one thread doing both jobs (measured: two
in-process engine computes side by side take about 1.45x their serial
sum on a 2-vCPU host).  The interpreter lock is per process, so the
remedy is too: whoever is about to run an alignment engine on behalf of
a request takes :data:`COMPUTE_TOKEN` first, and a holder that is about
to block on *worker processes* parks it (:meth:`ComputeToken.parked`)
so the next in-process compute can run meanwhile.

This is the request-level sibling of the per-run token of
:class:`~repro.parcomp.comm.Fabric`: that one decides which *rank* of
one ``threads`` run executes, this one decides which *request's* engine
does.  A ``threads`` run inside a service request needs nothing extra --
the request's thread (a gateway worker, or whoever called the service)
sits in ``join`` holding this token while the ranks
hand the fabric's token among themselves, so the process still runs one
thread of Python at a time (a rank inside a parked compiled call runs
on another core without the interpreter lock).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.tracing import span

__all__ = ["COMPUTE_TOKEN", "ComputeToken"]


class ComputeToken:
    """A lock that knows which thread holds it, so a holder can park it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``threading.get_ident()`` of the holder; ``None`` while free.
        self._holder: Optional[int] = None

    def acquire(self) -> float:
        """Block until the calling thread holds the token.

        Returns the seconds spent waiting: ``0.0`` when the token was
        free, so callers can count the acquisitions that had to wait.
        """
        waited = 0.0
        if not self._lock.acquire(blocking=False):
            t0 = time.perf_counter()
            self._lock.acquire()
            waited = time.perf_counter() - t0
        self._holder = threading.get_ident()
        return waited

    def release(self) -> None:
        self._holder = None
        self._lock.release()

    def held(self) -> bool:
        """Whether the *calling thread* holds the token."""
        return self._holder == threading.get_ident()

    @contextmanager
    def parked(self) -> Iterator[None]:
        """Give the token up for the body and take it back afterwards.

        For a holder about to block on something that is not in-process
        compute (a dispatch onto worker processes).  A no-op on a thread
        that does not hold the token -- a direct ``run_request``, a rank
        thread of a ``threads`` run -- which neither acquires nor
        releases it.
        """
        if not self.held():
            yield
            return
        self.release()
        try:
            yield
        finally:
            with span("pool.token_wait"):
                self.acquire()


#: The one token of this process (the interpreter lock is per process,
#: so a per-service or per-gateway token would not stop two stacks in
#: one process from contending).
COMPUTE_TOKEN = ComputeToken()
