"""The message transports and the mpi4py-style :class:`VirtualComm`.

Point-to-point semantics: ``send`` is buffered (never blocks); ``recv``
blocks until the matching ``(source, tag)`` message arrives.  Collectives
are built *on top of* point-to-point with deterministic schedules
(binomial trees for bcast/reduce, linear fan-in/out at the root for
scatter/gather, pairwise exchange for alltoall), so the byte meter and the
logical clocks see the true message pattern a real MPI implementation
would produce, message by message.

Logical clocks: each rank's clock advances by its measured thread CPU
time between communication calls (``time.thread_time``; on the in-process
fabric ranks run Python one at a time, so it is free of interpreter-lock
contention, and a compiled call that overlaps another rank is the rank's
own CPU time), by ``alpha + beta*nbytes`` per sent message, and
synchronises with the sender's clock on receive.  The final clocks give
the modeled cluster time of the run.

:class:`Transport` is the seam between :class:`VirtualComm` (the rank-side
API and clock bookkeeping, shared by every execution backend) and how
bytes actually move.  :class:`Fabric` is the in-process implementation
(one shared mailbox, rank threads that hand one run token to each other
at blocking calls, and give it up across a GIL-free compiled call --
:func:`run_token_parked`); the ``pool`` backend in
:mod:`repro.pool.workers` extends it across processes: each worker
process hosts a block of the ranks on such a fabric, and a message to a
rank in another worker rides that worker's queue.
"""

from __future__ import annotations

import abc
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.parcomp.cost import CommEvent, CostModel, TimingLedger, estimate_nbytes

__all__ = [
    "Fabric",
    "SpmdAbort",
    "Transport",
    "VirtualComm",
    "current_rank",
    "run_token_parked",
]


class SpmdAbort(RuntimeError):
    """Raised in surviving ranks when another rank failed."""


class Transport(abc.ABC):
    """What :class:`VirtualComm` needs from a message-moving substrate.

    One instance is visible to each rank (the threads backend shares a
    single :class:`Fabric` across rank threads; the pool backend shares
    one per worker process across the ranks that process hosts).
    Implementations
    own a :class:`~repro.parcomp.cost.TimingLedger` that the rank's
    :meth:`VirtualComm.finalize` writes its totals into, and per-rank
    ``parked_s`` / ``overlap_s`` seconds (see :class:`Fabric`).
    """

    n_ranks: int
    cost_model: CostModel
    ledger: TimingLedger
    parked_s: List[float]
    overlap_s: List[float]

    @abc.abstractmethod
    def post(self, src: int, dst: int, tag: int, payload: Any,
             ready_time: float, nbytes: int, kind: str) -> None:
        """Deliver one metered message into ``dst``'s mailbox."""

    @abc.abstractmethod
    def collect(self, dst: int, src: int, tag: int) -> Tuple[Any, float]:
        """Block until the matching message arrives; ``(payload, ready)``."""

    @abc.abstractmethod
    def barrier(self, rank: int, clock: float) -> float:
        """Synchronise all ranks (``rank`` is the caller); returns the
        max clock across them."""

    @abc.abstractmethod
    def fail(self, exc: BaseException) -> None:
        """Mark the run failed and wake every blocked rank."""

    @abc.abstractmethod
    def check_failed(self) -> None:
        """Raise :class:`SpmdAbort` if any rank has failed."""


class Fabric(Transport):
    """Shared state of one virtual-cluster run (the in-process transport).

    The fabric owns the run's one *token*: a rank thread holds it whenever
    it executes program code, so ranks run one at a time instead of
    contending for the interpreter lock.  The launcher brackets each
    rank's program with :meth:`acquire` / :meth:`release`; in between the
    token changes hands only where the holder would block anyway --
    inside :meth:`collect` and :meth:`barrier`, and only when the message
    or the barrier generation is not already there.  Rank 0 holds the
    token from the start, so which rank runs first does not depend on
    thread start order.

    A rank without the token parks on the condition variable.  Nobody can
    proceed while the token is held, so only giving it up (and
    :meth:`fail`) notifies: :meth:`post` wakes no one.  A rank that blocks
    outside these calls keeps the token while it does.

    The one other hand-over is :meth:`parked`: a rank about to run
    compiled code that drops the interpreter lock gives the token up for
    that call, so a second rank runs Python (or its own compiled call)
    on another core meanwhile, and takes it back before it runs Python
    again.
    """

    def __init__(self, n_ranks: int, cost_model: CostModel | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        #: The ranks whose threads share this fabric (all of them here;
        #: a ``pool`` worker's fabric hosts a block).
        self.ranks = range(n_ranks)
        self.cost_model = cost_model or CostModel()
        self.ledger = TimingLedger(n_ranks, self.cost_model)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # mailbox[(dst, src, tag)] -> deque of (payload, ready_time)
        self._mail: Dict[Tuple[int, int, int], deque] = {}
        self._failed: Optional[BaseException] = None
        #: Rank holding the run token; ``None`` while it is free.
        self._holder: Optional[int] = 0
        #: Per-rank wall seconds parked in collect/barrier (no token).
        self.parked_s = [0.0] * n_ranks
        #: Per-rank wall seconds inside :meth:`parked` bodies (compiled
        #: calls that overlap other ranks).
        self.overlap_s = [0.0] * n_ranks
        # Barrier bookkeeping (generation counting).
        self._barrier_count = 0
        self._barrier_gen = 0
        self._barrier_acc = 0.0
        self._barrier_results: Dict[int, float] = {}

    # -- the run token ----------------------------------------------------------

    def acquire(self, rank: int) -> None:
        """Block until ``rank`` holds the token (before its program
        starts, and after the body of :meth:`parked`).

        Not an abort point itself: the rank runner checks the run once
        a rank holds the token first (one that gets it after a failure
        does not start its program), and :meth:`parked` after its body.
        """
        with self._cond:
            while self._holder not in (None, rank):
                self._cond.wait()
            self._holder = rank

    def release(self, rank: int) -> None:
        """Give the token up (after the rank's program ended, or for the
        body of :meth:`parked`).

        A no-op for a rank that left :meth:`collect` or :meth:`barrier`
        with :class:`SpmdAbort`: it gave the token up when it parked.
        """
        with self._cond:
            if self._holder == rank:
                self._holder = None
                self._cond.notify_all()

    @contextmanager
    def parked(self, rank: int) -> Iterator[None]:
        """Give the token up for the body and take it back afterwards.

        For a rank about to run compiled code that releases the
        interpreter lock: other ranks run while it does, and it runs
        Python again only once it holds the token.  A no-op when
        ``rank`` does not hold the token.  Unlike :meth:`acquire`, taking
        it back is an abort point: after a body that returned normally,
        a run that failed meanwhile raises :class:`SpmdAbort` (with the
        token held; the launcher releases it as the rank ends).
        """
        if self._holder != rank:  # only this rank's thread sets it to rank
            yield
            return
        self.release(rank)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.overlap_s[rank] += time.perf_counter() - t0
            self.acquire(rank)
        self.check_failed()

    def _park(
        self,
        ready: Callable[[], Any],
        wait: Optional[Callable[[], None]] = None,
    ) -> None:
        """Hand the token over until ``ready()`` holds, then take it back;
        the wall seconds count as the rank's ``parked_s``.

        Called with the lock held by the token holder.  ``wait`` is one
        step of waiting (default: the condition's, woken by whoever
        gives the token up next, or by :meth:`fail`).  Raises
        :class:`SpmdAbort`, without the token, once the run has failed.
        """
        t0 = time.perf_counter()
        rank = self._holder
        self._holder = None
        self._cond.notify_all()
        wait = wait or self._cond.wait
        while self._failed is None and not (self._holder is None and ready()):
            wait()
        self.parked_s[rank] += time.perf_counter() - t0
        self.check_failed()
        self._holder = rank

    # -- failure propagation ----------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            if self._failed is None:
                self._failed = exc
            self._cond.notify_all()

    @property
    def failed(self) -> bool:
        """Whether the run has failed (:meth:`check_failed` raises)."""
        return self._failed is not None

    def check_failed(self) -> None:
        if self._failed is not None:
            raise SpmdAbort(f"another rank failed: {self._failed!r}")

    # -- point-to-point ------------------------------------------------------------

    def post(self, src: int, dst: int, tag: int, payload: Any,
             ready_time: float, nbytes: int, kind: str) -> None:
        with self._lock:
            self._mail.setdefault((dst, src, tag), deque()).append(
                (payload, ready_time)
            )
            self.ledger.events.append(
                CommEvent(kind, src, dst, nbytes, tag, send_clock=ready_time)
            )

    def collect(self, dst: int, src: int, tag: int) -> Tuple[Any, float]:
        key = (dst, src, tag)
        with self._cond:
            self.check_failed()
            if not self._mail.get(key):
                self._park(lambda: self._mail.get(key))
            return self._mail[key].popleft()

    # -- barrier ----------------------------------------------------------------------

    def barrier(self, rank: int, clock: float) -> float:
        """Synchronise all ranks; returns the max clock across them."""
        with self._cond:
            self.check_failed()
            gen = self._barrier_gen
            self._barrier_count += 1
            self._barrier_acc = max(self._barrier_acc, clock)
            if self._barrier_count == self.n_ranks:
                # The last arrival keeps the token and carries on.
                self._barrier_results[gen] = self._barrier_acc
                self._barrier_count = 0
                self._barrier_acc = 0.0
                self._barrier_gen += 1
            else:
                self._park(lambda: self._barrier_gen != gen)
            return self._barrier_results[gen]


#: The ``(fabric, rank)`` of the SPMD rank running on this thread (set by
#: :func:`~repro.parcomp.backends.run_rank_threads` for the life of the
#: rank's program, on ``threads`` and in a ``pool`` worker alike).
_THREAD_RANK = threading.local()


def current_rank() -> Optional[Tuple[Fabric, int]]:
    """``(fabric, rank)`` when the calling thread is an SPMD rank, else
    ``None``."""
    return getattr(_THREAD_RANK, "slot", None)


@contextmanager
def run_token_parked() -> Iterator[None]:
    """:meth:`Fabric.parked` for the calling thread's rank, if it is one.

    Wrap a compiled call that releases the interpreter lock and touches
    no Python object.  A rank of a ``pool`` worker's block parks its
    worker's token like a ``threads`` rank parks the run's; off a rank
    -- the main thread, a service thread -- it does nothing.
    """
    slot = current_rank()
    if slot is None:
        yield
        return
    fabric, rank = slot
    with fabric.parked(rank):
        yield


class VirtualComm:
    """Per-rank communicator (mpi4py-flavoured API subset).

    Lower-case methods move arbitrary Python payloads, like mpi4py's
    pickle path; there is no upper-case buffer API because payload sizes,
    not bytes, are what the cost model meters.  The communicator is
    backend-agnostic: it talks to any :class:`Transport` (the in-process
    :class:`Fabric`, or the pool backend's per-worker extension of it) and
    keeps all clock bookkeeping on this side of the seam so every backend
    meters communication identically.
    """

    def __init__(self, fabric: Transport, rank: int) -> None:
        self.fabric = fabric
        self.rank = rank
        self._clock = 0.0
        self._compute = 0.0
        self._last_cpu = time.thread_time()
        self._final = False

    # -- mpi4py-style introspection ------------------------------------------------

    @property
    def size(self) -> int:
        return self.fabric.n_ranks

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.fabric.n_ranks

    # -- clock bookkeeping -----------------------------------------------------------

    def _absorb_compute(self) -> None:
        """Fold thread CPU time since the last comm call into the clock."""
        now = time.thread_time()
        dt = max(now - self._last_cpu, 0.0)
        self._last_cpu = now
        self._compute += dt
        self._clock += dt

    def finalize(self) -> None:
        """Flush outstanding compute and publish this rank's totals, once
        (a traced rank's span reads them as its program returns)."""
        if self._final:
            return
        self._final = True
        self._absorb_compute()
        self.fabric.ledger.compute[self.rank] = self._compute
        self.fabric.ledger.clock[self.rank] = self._clock

    # -- point-to-point --------------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, _kind: str = "send") -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"bad destination rank {dest}")
        if not isinstance(tag, int) or isinstance(tag, bool):
            # Non-int tags are reserved for transport-internal control
            # traffic (e.g. the pool backend's barrier exchange).
            raise TypeError(f"tag must be an int, got {tag!r}")
        self._absorb_compute()
        nbytes = estimate_nbytes(obj)
        self._clock += self.fabric.cost_model.message_cost(nbytes)
        self.fabric.post(
            self.rank, dest, tag, obj, self._clock, nbytes, _kind
        )

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self.size:
            raise ValueError(f"bad source rank {source}")
        if not isinstance(tag, int) or isinstance(tag, bool):
            raise TypeError(f"tag must be an int, got {tag!r}")
        self._absorb_compute()
        payload, ready = self.fabric.collect(self.rank, source, tag)
        self._clock = max(self._clock, ready)
        return payload

    # -- collectives -------------------------------------------------------------------

    _TAG_COLL = 1 << 20  # tag space reserved for collectives

    def barrier(self) -> None:
        self._absorb_compute()
        self._clock = self.fabric.barrier(self.rank, self._clock)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast (log2(p) rounds, like real MPI)."""
        size, rank = self.size, self.rank
        if size == 1:
            return obj
        rel = (rank - root) % size
        mask = 1
        # Receive phase: find my parent.
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                obj = self.recv(parent, self._TAG_COLL + 1)
                break
            mask <<= 1
        # Send phase: forward to children.
        mask >>= 1
        while mask > 0:
            if rel + mask < size:
                child = (rel + mask + root) % size
                self.send(obj, child, self._TAG_COLL + 1, _kind="bcast")
            mask >>= 1
        return obj

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        """Linear scatter from the root (root keeps its own slice)."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must pass one object per rank")
            for r in range(self.size):
                if r != root:
                    self.send(objs[r], r, self._TAG_COLL + 2, _kind="scatter")
            return objs[root]
        return self.recv(root, self._TAG_COLL + 2)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Linear gather at the root; returns the list at root else None."""
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = obj
            for r in range(self.size):
                if r != root:
                    out[r] = self.recv(r, self._TAG_COLL + 3)
            return out
        self.send(obj, root, self._TAG_COLL + 3, _kind="gather")
        return None

    def allgather(self, obj: Any) -> List[Any]:
        """Gather to rank 0 then broadcast (the metered message pattern)."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, objs: List[Any]) -> List[Any]:
        """Pairwise-exchange personalised all-to-all."""
        if len(objs) != self.size:
            raise ValueError("need one payload per rank")
        size, rank = self.size, self.rank
        out: List[Any] = [None] * size
        out[rank] = objs[rank]
        for step in range(1, size):
            dst = (rank + step) % size
            src = (rank - step) % size
            self.send(objs[dst], dst, self._TAG_COLL + 4 + step, _kind="alltoall")
            out[src] = self.recv(src, self._TAG_COLL + 4 + step)
        return out

    def reduce(
        self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0
    ) -> Any:
        """Binomial-tree reduction with a user-supplied binary op.

        ``op`` must be associative; evaluation order is deterministic.
        Returns the reduced value at root, None elsewhere.
        """
        size, rank = self.size, self.rank
        rel = (rank - root) % size
        value = obj
        mask = 1
        tag = self._TAG_COLL + 5
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                self.send(value, parent, tag, _kind="reduce")
                return None
            partner = rel + mask
            if partner < size:
                other = self.recv((partner + root) % size, tag)
                value = op(value, other)
            mask <<= 1
        return value

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self.bcast(self.reduce(obj, op, root=0), root=0)
