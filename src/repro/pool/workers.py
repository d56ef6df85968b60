"""The persistent worker pool: long-lived rank processes, reused forever.

One ``fork``/``spawn`` per rank per call is fine for one long SPMD run
and ruinous for the short repeated jobs the serving stack issues, where
the startup cost swamps the work.  :class:`WorkerPool` moves that cost to
construction time: ``max_workers`` slot processes are created once
(lazily, or eagerly via :meth:`warm_up`) and every subsequent
:meth:`run_spmd` -- a Sample-Align-D run, a ``distance.all_pairs``
schedule -- reuses them, paying only a queue round-trip.

Topology (fixed at construction, because :mod:`multiprocessing` queues
can only be shared with a child at creation time):

- one *task queue* per slot (a run's block of ranks + stop control),
- one *message queue* per slot (SPMD point-to-point between workers,
  each message tagged with its destination rank),
- one shared *result queue* (worker reports, ready/bye),
- a shared failure :class:`~multiprocessing.Event` and a heartbeat array.

Placement is M:N (:func:`rank_blocks`): ``p`` ranks on ``k`` slots use
the first ``min(p, k)`` slots, each hosting a contiguous block of at
most ``ceil(p/k)`` ranks with the rank host of the ``threads`` backend
(:func:`~repro.parcomp.backends.run_rank_threads`) over
:class:`_WorkerFabric` and the worker's own run token; the block's
first rank runs on the worker's own thread.  A message between ranks
of one worker stays in that worker's mailbox; one to a rank of another
worker rides that worker's message queue.  With ``p <= k`` every
worker hosts one rank.  The parent ends a run from the workers'
:class:`~repro.parcomp.backends.BlockReport` with
:func:`~repro.parcomp.backends.assemble`, as ``threads`` does.

Runs are serialised under a dispatch lock -- the pool is a reusable
*substrate*, not a concurrent scheduler -- and every in-flight message is
tagged with a ``run_id`` so leftovers from an aborted or crashed run are
recognised and dropped instead of being misread by the next run.

Every payload is pickled once, in the sending thread, and rides its
queue as ``bytes``; the consumer rebuilds it with :func:`pickle.loads`,
so a received array owns its memory and is writable.  The per-run
program/arguments blob (sequence batches, estimator state) is pickled
**once** and the same bytes go on every rank's task queue.

The pool's settings are the module constants below, read when they are
used; nothing in the repo varies them.

Liveness is checked on the dispatch path only; the pool runs no thread
of its own in the parent.  A slot is *bad* when its process died with a
non-zero exit code or its heartbeat is older than the hang threshold
(each worker beats from a daemon thread that runs through any amount of
compute, so a stale beat means the process is wedged or stopped, not
busy).  Before queueing ranks, a bad slot anywhere forces the pool-wide
reset; while collecting reports, a worker that goes bad (or dies
without reporting) becomes a :class:`WorkerCrashError` for the run,
however many ranks it hosted.

Crash semantics: a worker that dies or stops mid-run surfaces as
:class:`WorkerCrashError` after the pool is reset -- infrastructure
failure, distinct from a *program* exception (which raises
``RuntimeError("rank r failed: ...")`` exactly like ``threads``).
The rank programs this repo runs are deterministic and side-effect-free,
so :class:`~repro.pool.backend.PoolBackend` retries the whole run on
crash and still returns byte-identical results.

Aborts are those of ``threads``, with its grace
(:data:`~repro.parcomp.backends.ABORT_JOIN_TIMEOUT_S`; the parent waits
twice that for the reports); ranks still unwinding in a report, or in
a worker that never reported, reset the pool and are named in the
run's error.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import uuid
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parcomp import backends
from repro.parcomp.backends import (
    BlockReport,
    ExecutionBackend,
    SpmdResult,
    assemble,
    run_rank_threads,
    usable_cores,
)
from repro.parcomp.comm import Fabric, SpmdAbort
from repro.parcomp.cost import CommEvent, CostModel

__all__ = ["WorkerCrashError", "WorkerPool", "rank_blocks"]

#: :mod:`multiprocessing` start method: ``fork`` where the platform has
#: it, else the platform default.  Programs and arguments are *always*
#: pickled (dispatch rides queues), so module-level functions are
#: required on every start method.
START_METHOD: Optional[str] = (
    "fork" if "fork" in mp.get_all_start_methods() else None
)

#: Worker heartbeat period; a worker counts as hung after
#: :data:`_HUNG_BEATS` missed beats (at least :data:`_HUNG_FLOOR_S`).
HEARTBEAT_S = 0.5

#: Missed heartbeat intervals before a worker counts as hung.
_HUNG_BEATS = 10.0

#: Floor on the hang threshold: never call a worker hung in under 5 s.
_HUNG_FLOOR_S = 5.0

#: Reserved non-int tag for barrier control traffic (VirtualComm rejects
#: string tags from programs, so it can never collide with theirs).
_CTRL_TAG = "__ctrl__"

#: How often blocked loops re-check queues / the failure flag.
_POLL_S = 0.05

#: How long a worker gets to come up before warm-up gives up on it.
_READY_TIMEOUT_S = 15.0


class WorkerCrashError(RuntimeError):
    """A pool worker process died or stopped beating mid-run
    (infrastructure, not program).

    The pool has already been reset when this reaches the caller;
    :class:`~repro.pool.backend.PoolBackend` retries the run.
    """


def escalate(proc, join_timeout: float = 1.0) -> None:
    """terminate -> kill a worker process, bounded.  A stopped process
    holds SIGTERM pending, so it takes the kill."""
    if proc is None or not proc.is_alive():
        return
    proc.terminate()
    proc.join(join_timeout)
    if proc.is_alive():
        proc.kill()
        proc.join(join_timeout)


def _hang_threshold() -> float:
    """Seconds without a heartbeat after which a worker counts as hung."""
    return max(_HUNG_BEATS * HEARTBEAT_S, _HUNG_FLOOR_S)


def _dumps(obj: Any) -> bytes:
    """Pickle one queue payload."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _count(meter: Counter, blob: bytes) -> bytes:
    """Count one queue payload in ``meter`` and pass it through."""
    meter["msgs"] += 1
    meter["bytes"] += len(blob)
    return blob


# ---------------------------------------------------------------------------
# Worker side (runs in the slot process).


def rank_blocks(n_ranks: int, n_workers: int) -> List[range]:
    """The M:N placement of ``n_ranks`` ranks on a pool of ``n_workers``:
    one contiguous block of ranks per worker used, ``min(n_ranks,
    n_workers)`` blocks whose sizes differ by at most one, so no worker
    hosts more than ``ceil(n_ranks / n_workers)`` ranks.  The larger
    blocks go last: rank 0, the root of every collective, shares its
    worker with the fewest peers.  Contiguous blocks keep the binomial
    trees of ``bcast``/``reduce`` inside a worker below their top
    level."""
    used = min(n_ranks, n_workers)
    base, extra = divmod(n_ranks, used)
    blocks, start = [], 0
    for w in range(used):
        size = base + (1 if w >= used - extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


class _WorkerFabric(Fabric):
    """The transport of the block of ranks one worker hosts in one run.

    A :class:`~repro.parcomp.comm.Fabric` over the local ranks -- they
    run as threads that take turns on the worker's own run token, and a
    message between two of them stays in the mailbox -- extended to the
    ranks of the other workers: a message to one of those rides the
    message queue (``inbox``) of the worker that hosts it, tagged with
    its destination rank, as pickled bytes.  Nobody else reads a
    worker's queue: a local rank parked for a message from another
    worker reads it itself, filing what it reads for its peers in the
    mailbox and dropping traffic of any other run, while at most one
    rank at a time does so (the others wait on the fabric's condition
    and are woken by what it files).  The pool's failure event counts
    as a failed fabric once the inbox has been quiet for a poll.  The
    barrier is a linear clock-max exchange on the control tag at rank 0,
    unmetered like the in-process one.  A rank's wait for a message from
    another worker counts as its ``parked_s``, like any park.  The send
    events of the local ranks go into the fabric's ledger and back to
    the pool with the worker's report.
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: Optional[CostModel],
        ranks: range,
        owner: List[int],
        msg_qs: List[Any],
        inbox: Any,
        fail_event: Any,
        run_id: int,
        meter: Counter,
    ) -> None:
        super().__init__(n_ranks, cost_model)
        self.ranks = ranks
        self._holder = ranks[0]
        self._owner = owner
        self._msg_qs = msg_qs
        self._inbox = inbox
        self._fail_event = fail_event
        self._run_id = run_id
        self._meter = meter
        #: Whether a parked rank is reading the inbox right now.
        self._draining = False

    # -- failure propagation ------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        self._fail_event.set()
        super().fail(exc)

    # -- point-to-point -----------------------------------------------------

    def post(self, src: int, dst: int, tag: int, payload: Any,
             ready_time: float, nbytes: int, kind: str) -> None:
        if dst in self.ranks:
            super().post(src, dst, tag, payload, ready_time, nbytes, kind)
            return
        with self._lock:
            self.ledger.events.append(
                CommEvent(kind, src, dst, nbytes, tag, send_clock=ready_time)
            )
        self._send(src, dst, tag, payload, ready_time)

    def _send(self, src: int, dst: int, tag: Any, payload: Any,
              ready: float) -> None:
        """Deliver one unmetered message: into the mailbox for a local
        rank (the token holder sends, so no one needs waking), onto the
        hosting worker's queue otherwise."""
        if dst in self.ranks:
            with self._lock:
                self._mail.setdefault((dst, src, tag), deque()).append(
                    (payload, ready)
                )
            return
        self._msg_qs[self._owner[dst]].put(
            ("p2p", self._run_id, src, dst, tag,
             _count(self._meter, _dumps(payload)), ready)
        )

    def collect(self, dst: int, src: int, tag: Any) -> Tuple[Any, float]:
        if src in self.ranks:
            return super().collect(dst, src, tag)
        key = (dst, src, tag)
        with self._cond:
            self.check_failed()
            if not self._mail.get(key):
                self._park(
                    lambda: self._mail.get(key),
                    lambda: self._wait_remote(key),
                )
            return self._mail[key].popleft()

    def _wait_remote(self, key: Tuple[int, int, Any]) -> None:
        """One step of :meth:`Fabric._park` for a message from another
        worker: read the inbox once while no other rank does, else wait
        to be woken by what the reader files (or, once the message is
        here, by the token coming free).  Called, and returns, with the
        lock held."""
        if self._draining or self._mail.get(key):
            self._cond.wait()
            return
        self._draining = True
        self._lock.release()
        try:
            item = self._inbox.get(timeout=_POLL_S)
        except queue_mod.Empty:
            item = None
        finally:
            self._lock.acquire()
            self._draining = False
        if item is None:
            # The event is shared by every process of the pool (a lock
            # they all take to read it), so it is read only when the
            # inbox has gone quiet.
            if self._failed is None and self._fail_event.is_set():
                self._failed = SpmdAbort("a rank of another worker failed")
        elif item[1] == self._run_id:
            _, _, src, dst, tag, blob, ready = item
            self._mail.setdefault((dst, src, tag), deque()).append(
                (pickle.loads(blob), ready)
            )
        # Whatever was filed may be another rank's; the reading is free
        # for whoever waits on the inbox next.
        self._cond.notify_all()

    # -- barrier ------------------------------------------------------------

    def barrier(self, rank: int, clock: float) -> float:
        if self.n_ranks == 1:
            return clock
        if rank == 0:
            mx = clock
            for src in range(1, self.n_ranks):
                other, _ = self.collect(0, src, _CTRL_TAG)
                mx = max(mx, other)
            for dst in range(1, self.n_ranks):
                self._send(0, dst, _CTRL_TAG, mx, 0.0)
            return mx
        self._send(rank, 0, _CTRL_TAG, clock, 0.0)
        result, _ = self.collect(rank, 0, _CTRL_TAG)
        return float(result)


def _report_blob(report: BlockReport) -> bytes:
    """Pickle a worker's report, downgrading each rank whose result or
    exception does not pickle to that rank's error.

    ``Queue.put`` pickles on a feeder thread, where an unpicklable
    report would fail *silently* and leave the pool waiting forever, so
    serialise here and surface the problem as the rank's error.  The
    pool counts the report when it arrives: a count shipped inside it
    could not include the report itself.
    """
    try:
        return _dumps(report)
    except Exception:
        pass
    results, errors = dict(report.results), dict(report.errors)
    for rank, result in report.results.items():
        what, bad = (
            ("exception", errors[rank]) if rank in errors
            else ("result", result)
        )
        try:
            _dumps(bad)
        except Exception:
            results[rank] = None
            errors[rank] = RuntimeError(
                f"rank {rank} produced an unpicklable {what}: {bad!r}"
            )
    return _dumps(replace(report, results=results, errors=errors))


def _run_block(
    slot: int,
    item: tuple,
    msg_qs: List[Any],
    result_q: Any,
    fail_event: Any,
    meter: Counter,
) -> None:
    """Host this worker's block of one run's ranks and report it, with
    the worker's transport counts."""
    _, run_id, start, stop, n_ranks, n_workers, extras_blob, run_blob = item
    ranks = range(start, stop)
    try:
        extras = pickle.loads(extras_blob)
        fn, args, kwargs, cost_model = pickle.loads(run_blob)
        owner = [
            w for w, block in enumerate(rank_blocks(n_ranks, n_workers))
            for _ in block
        ]
        fabric = _WorkerFabric(
            n_ranks, cost_model, ranks, owner, msg_qs, msg_qs[slot],
            fail_event, run_id, meter,
        )
        report = run_rank_threads(
            fabric, ranks, fn, args, dict(zip(ranks, extras)), kwargs,
            inline=True,
        )
    except BaseException as exc:  # noqa: BLE001 - the run did not load
        report = BlockReport(
            {r: None for r in ranks}, {r: exc for r in ranks}
        )
        fail_event.set()
    result_q.put(("report", slot, run_id, _report_blob(report), dict(meter)))


#: ``set_num_threads`` of the OpenBLAS builds numpy links, by symbol.
_BLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def one_blas_thread() -> bool:
    """Run this process's BLAS on one thread; whether that was possible.

    A worker is one of ``k`` processes on ``k`` cores, but OpenBLAS
    keeps a thread per core in every process: two workers multiplying
    profiles (``profile_align``'s ``Fx @ M @ Fy.T``) kept four busy
    threads on two cores, and a 128 x 200, p = 16 run on two workers
    took 0.55 s against 0.35 s on ``threads``.  The OpenBLAS loaded in
    this process is found in ``/proc/self/maps``; without one (no
    ``/proc``, another BLAS) nothing changes.
    """
    import ctypes
    import re

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read()))
    except OSError:
        return False
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(handle, name, None)
            if setter is not None:
                setter(1)
                return True
    return False


def _worker_main(
    slot: int,
    pool_name: str,
    task_q: Any,
    msg_qs: List[Any],
    result_q: Any,
    fail_event: Any,
    heartbeats: Any,
    hb_interval: float,
) -> None:
    """Slot process entry point (module-level: picklable for spawn)."""
    one_blas_thread()
    meter = Counter(msgs=0, bytes=0)

    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.is_set():
            heartbeats[slot] = time.monotonic()
            stop_beat.wait(hb_interval)

    beat_thread = threading.Thread(
        target=beat, name=f"{pool_name}-w{slot}-beat", daemon=True
    )
    beat_thread.start()

    result_q.put(("ready", slot, os.getpid()))
    try:
        while True:
            try:
                item = task_q.get(timeout=1.0)
            except queue_mod.Empty:
                continue
            if item[0] == "stop":
                break
            _run_block(slot, item, msg_qs, result_q, fail_event, meter)
    finally:
        stop_beat.set()
        result_q.put(("bye", slot))
        # Peers that aborted may never drain our sends; don't let queue
        # feeder threads block this process's exit.
        for q in msg_qs:
            q.cancel_join_thread()
        task_q.cancel_join_thread()


# ---------------------------------------------------------------------------
# Pool side.


@dataclass
class _Slot:
    """Parent-side bookkeeping for one worker slot."""

    index: int
    proc: Optional[Any] = None
    transport: Dict[str, int] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerPool:
    """A fixed set of long-lived worker processes, reused across runs.

    ``max_workers`` is the slot count (default: :func:`default_worker_count`),
    fixed for the pool's lifetime because queues must exist before workers
    are born.  A run of more ranks than slots is placed M:N
    (:func:`rank_blocks`): every slot hosts a block of the ranks as
    threads.  Everything else the pool does is set by
    the module constants (:data:`START_METHOD`, :data:`HEARTBEAT_S`) and
    the one abort grace,
    :data:`~repro.parcomp.backends.ABORT_JOIN_TIMEOUT_S`; a started
    worker runs until
    :meth:`close`, and a dead or hung one is replaced by the next
    dispatch.  The pool starts no thread in the parent.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = default_worker_count()
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")

        self.max_workers = max_workers
        self.name = f"rpool-{os.getpid()}-{uuid.uuid4().hex[:6]}"

        ctx = mp.get_context(START_METHOD)
        self._ctx = ctx
        self._task_qs = [ctx.Queue() for _ in range(max_workers)]
        self._msg_qs = [ctx.Queue() for _ in range(max_workers)]
        self._result_q = ctx.Queue()
        self._fail_event = ctx.Event()
        # Lock-free: a worker killed or stopped mid-beat must not leave
        # the parent's liveness check waiting on the array's lock.
        self._heartbeats = ctx.Array("d", max_workers, lock=False)
        self._slots = [_Slot(i) for i in range(max_workers)]
        #: Counts the run blobs, rank arguments and reports.
        self._meter = Counter(msgs=0, bytes=0)

        #: Serialises runs: the pool is a substrate, not a scheduler.
        self._dispatch_lock = threading.RLock()
        #: Guards slot/counter state (always acquired after the
        #: dispatch lock, never the other way around).
        self._state_lock = threading.RLock()

        self._run_seq = 0
        self._closed = False
        self.respawns = 0
        self.runs = 0
        self.tasks_served = 0
        self._retired_transport = Counter(msgs=0, bytes=0)

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def warm_up(self, n_workers: Optional[int] = None) -> None:
        """Start (and wait for) ``n_workers`` slots ahead of the first run."""
        n = self.max_workers if n_workers is None else n_workers
        if not 1 <= n <= self.max_workers:
            raise ValueError(f"n_workers must be in [1, {self.max_workers}]")
        with self._dispatch_lock:
            self._require_open()
            self._ensure_workers(n)

    def close(self) -> None:
        """Graceful drain: in-flight work finishes, then workers stop.

        Idempotent.  Acquiring the dispatch lock means any run in flight
        completes first; queued stop tokens then wind the workers down,
        with terminate→kill escalation for any that overstay
        :data:`~repro.parcomp.backends.ABORT_JOIN_TIMEOUT_S`.  Every
        queue is then closed.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        with self._dispatch_lock, self._state_lock:
            alive = [s for s in self._slots if s.alive]
            for slot in alive:
                self._task_qs[slot.index].put(("stop",))
            deadline = time.monotonic() + backends.ABORT_JOIN_TIMEOUT_S
            for slot in alive:
                slot.proc.join(max(deadline - time.monotonic(), 0.0))
            for slot in self._slots:
                if slot.alive:
                    escalate(slot.proc)
                self._absorb_transport(slot)
                slot.proc = None
            self._close_queues()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"worker pool {self.name!r} is closed")

    # -- worker management ---------------------------------------------------

    def _start_slot(self, index: int) -> None:
        slot = self._slots[index]
        self._heartbeats[index] = 0.0
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.name, self._task_qs[index], self._msg_qs,
                  self._result_q, self._fail_event, self._heartbeats,
                  HEARTBEAT_S),
            name=f"{self.name}-w{index}",
            daemon=True,
        )
        proc.start()
        slot.proc = proc

    def _slot_bad(self, slot: _Slot, now: float) -> bool:
        """The pool's one liveness predicate: ``slot``'s worker died with
        a non-zero exit code, or its heartbeat is older than the hang
        threshold (a stopped or wedged process)."""
        if slot.proc is None:
            return False
        if not slot.proc.is_alive():
            return slot.proc.exitcode != 0
        beat = self._heartbeats[slot.index]
        return beat > 0.0 and now - beat > _hang_threshold()

    def _ensure_workers(self, n: int) -> None:
        """Slots ``0..n-1`` running and heart-beating (rank r = slot r)."""
        now = time.monotonic()
        with self._state_lock:
            bad = any(self._slot_bad(s, now) for s in self._slots)
        if bad:
            # A dead or hung worker may hold queue locks (an idle
            # ``get`` holds the task queue's reader lock), so starting a
            # replacement on the old queues could block forever -- a bad
            # slot anywhere forces the pool-wide reset.
            self._reset_workers()
        started = []
        with self._state_lock:
            for i in range(n):
                slot = self._slots[i]
                if not slot.alive:
                    self._absorb_transport(slot)
                    self._start_slot(i)
                    started.append(i)
        deadline = time.monotonic() + _READY_TIMEOUT_S
        for i in started:
            while self._heartbeats[i] == 0.0:
                if not self._slots[i].alive or time.monotonic() > deadline:
                    raise WorkerCrashError(
                        f"worker {i} of pool {self.name!r} failed to start"
                    )
                time.sleep(0.005)

    def _reset_workers(self) -> None:
        """Crash recovery: rebuild the whole substrate, then re-warm.

        A worker that died by signal (or was force-terminated while
        hung) may have been holding a :mod:`multiprocessing` queue lock
        at the moment of death -- its slot queue's read lock, a peer
        inbox's write lock, the shared result queue's write lock.  Those
        locks never release, so surgically respawning one slot onto the
        old queues can deadlock the survivors.  Recovery is therefore
        pool-wide: escalate every worker, recreate every
        queue/event/heartbeat, and restart the slots that had a worker.
        Expensive, but crashes are the rare path and the result is a
        provably clean substrate.
        """
        with self._state_lock:
            replaced = []
            for slot in self._slots:
                if slot.alive:
                    escalate(slot.proc)
                if slot.proc is not None:
                    slot.proc.join(0)
                    self._absorb_transport(slot)
                    slot.proc = None
                    replaced.append(slot.index)
            self._close_queues()
            ctx = self._ctx
            self._task_qs = [ctx.Queue() for _ in range(self.max_workers)]
            self._msg_qs = [ctx.Queue() for _ in range(self.max_workers)]
            self._result_q = ctx.Queue()
            self._fail_event = ctx.Event()
            self._heartbeats = ctx.Array("d", self.max_workers, lock=False)
            if not self._closed:
                for index in replaced:
                    self._start_slot(index)
                self.respawns += len(replaced)

    def _close_queues(self) -> None:
        """Close every queue without waiting on its feeder thread; what is
        still in them is bytes nobody will read."""
        for q in [*self._task_qs, *self._msg_qs, self._result_q]:
            q.cancel_join_thread()
            q.close()

    def _absorb_transport(self, slot: _Slot) -> None:
        """Fold a dead/stopping worker's last-seen byte counts into history."""
        if slot.transport:
            self._retired_transport.update(slot.transport)
            slot.transport = {}

    # -- SPMD dispatch -------------------------------------------------------

    def run_spmd(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        cost_model: Optional[CostModel] = None,
        **kwargs: Any,
    ) -> SpmdResult:
        """Execute an SPMD program on warm workers, worker ``w`` hosting
        the ranks of ``rank_blocks(n_ranks, max_workers)[w]``.

        Semantics are identical to the other backends: program errors
        raise ``RuntimeError("rank r failed: ...")``, infrastructure
        deaths raise :class:`WorkerCrashError` (after the pool is reset)
        so the caller may retry on fresh workers.
        """
        ExecutionBackend._validate(n_ranks, rank_args)
        cost_model = cost_model or CostModel()
        blocks = rank_blocks(n_ranks, self.max_workers)
        with self._dispatch_lock:
            self._require_open()
            self._ensure_workers(len(blocks))
            self._fail_event.clear()
            with self._state_lock:
                self._run_seq += 1
                run_id = self._run_seq
            # The program and its arguments (the sequence batches,
            # estimator state, profiles) are pickled once; every
            # worker's task carries the same bytes.
            run = (fn, tuple(args), dict(kwargs), cost_model)
            run_blob = _count(self._meter, _dumps(run))
            for w, ranks in enumerate(blocks):
                extras = [
                    tuple(rank_args[r]) if rank_args is not None else ()
                    for r in ranks
                ]
                self._task_qs[w].put(
                    ("ranks", run_id, ranks.start, ranks.stop, n_ranks,
                     len(blocks), _count(self._meter, _dumps(extras)),
                     run_blob)
                )
            reports, crashed = self._collect_reports(run_id, len(blocks))
            unreported = [
                r for w, ranks in enumerate(blocks)
                if w not in reports and w not in crashed
                for r in ranks
            ]
            # A worker that did not come back clean -- crashed (already
            # dead), or with ranks still unwinding (deep in compute, in
            # the worker or in one that never reported) -- may have
            # poisoned shared queue locks, so recovery rebuilds the
            # whole substrate.
            if (crashed or unreported
                    or any(b.unwinding for b in reports.values())):
                self._reset_workers()
            with self._state_lock:
                self.runs += 1
                self.tasks_served += n_ranks
            return assemble(
                n_ranks, [reports[w] for w in sorted(reports)], cost_model,
                backend="pool", workers=len(blocks), unreported=unreported,
                crash=crashed[min(crashed)] if crashed else None,
            )

    def _collect_reports(
        self, run_id: int, n_used: int
    ) -> Tuple[Dict[int, BlockReport], Dict[int, BaseException]]:
        """Each used worker's report, or its crash, by worker index.
        Once the run failed, the reports get twice the abort grace: a
        worker's join of its ranks, then as long again to arrive."""
        reports: Dict[int, BlockReport] = {}
        crashed: Dict[int, BaseException] = {}
        abort_deadline: Optional[float] = None
        while len(reports.keys() | crashed.keys()) < n_used:
            if abort_deadline is None and (
                crashed or self._fail_event.is_set()
            ):
                abort_deadline = (
                    time.monotonic() + 2 * backends.ABORT_JOIN_TIMEOUT_S
                )
            if (abort_deadline is not None
                    and time.monotonic() >= abort_deadline):
                break
            try:
                entry = self._result_q.get(timeout=0.2)
            except queue_mod.Empty:
                # A worker killed or stopped outside Python never
                # reports: detect it, fail the survivors out of their
                # waits.
                now = time.monotonic()
                for w in range(n_used):
                    slot = self._slots[w]
                    if (w in reports or w in crashed
                            or slot.alive and not self._slot_bad(slot, now)):
                        continue
                    what = (
                        f"sent no heartbeat for {_hang_threshold():g} s"
                        if slot.alive
                        else f"died (exitcode {slot.proc.exitcode})"
                    )
                    crashed[w] = WorkerCrashError(
                        f"worker {w} of pool {self.name!r} {what} mid-run"
                    )
                    self._fail_event.set()
                continue
            if entry[0] != "report":
                continue  # "ready"/"bye" control entries need no action
            _, w, rid, blob, transport = entry
            if rid != run_id:  # straggler from an aborted run
                continue
            reports[w] = pickle.loads(_count(self._meter, blob))
            with self._state_lock:
                self._slots[w].transport = transport
        return reports, crashed

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Live pool counters (the gateway surfaces these at ``/metrics``).

        ``transport`` counts the payloads pickled for the queues and
        their bytes: the run blob (once, however many ranks get it), the
        rank arguments and reports, and every worker's messages to its
        peers (as of its latest report).
        """
        with self._state_lock:
            transport = Counter(self._retired_transport)
            transport.update(self._meter)
            for slot in self._slots:
                transport.update(slot.transport)
            return {
                "name": self.name,
                "start_method": START_METHOD,
                "max_workers": self.max_workers,
                "workers_alive": sum(1 for s in self._slots if s.alive),
                "worker_pids": [
                    s.proc.pid for s in self._slots if s.alive
                ],
                "respawns": self.respawns,
                "runs": self.runs,
                "tasks_served": self.tasks_served,
                "transport": {
                    "msgs": transport["msgs"], "bytes": transport["bytes"]
                },
                "closed": self._closed,
            }


def default_worker_count() -> int:
    """Pool size when the caller does not choose: ``REPRO_POOL_WORKERS``
    (a positive integer), else every usable core (min 2, so the pool
    parallelises even tiny hosts).  Unset or empty means the default;
    anything else that is not a positive integer is a ``ValueError``."""
    raw = os.environ.get("REPRO_POOL_WORKERS", "")
    if not raw:
        return max(usable_cores(), 2)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"REPRO_POOL_WORKERS must be a positive integer, got {raw!r}"
        )
    return count
