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

- one *task queue* per slot (rank dispatch + stop control),
- one *message queue* per slot (SPMD point-to-point; rank ``r`` runs on
  slot ``r``, so peers address ``msg_qs[dst]`` directly),
- one shared *result queue* (rank reports, ready/bye),
- a shared failure :class:`~multiprocessing.Event` and a heartbeat array.

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
reset; while collecting reports, a rank whose slot goes bad (or dies
without reporting) becomes a :class:`WorkerCrashError`.

Crash semantics: a worker that dies or stops mid-run surfaces as
:class:`WorkerCrashError` after the pool is reset -- infrastructure
failure, distinct from a *program* exception (which raises
``RuntimeError("rank r failed: ...")`` exactly like the other backends).
The rank programs this repo runs are deterministic and side-effect-free,
so :class:`~repro.pool.backend.PoolBackend` retries the whole run on
crash and still returns byte-identical results.
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parcomp.backends import (
    POOL_WORKER_ENV,
    SpmdResult,
    usable_cores,
)
from repro.parcomp.comm import SpmdAbort, Transport, VirtualComm
from repro.parcomp.cost import CommEvent, CostModel, TimingLedger

__all__ = ["WorkerCrashError", "WorkerPool"]

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

#: Grace period for surviving ranks to report after a failure before
#: they are terminated, and for workers told to stop at close to exit.
ABORT_JOIN_TIMEOUT_S = 10.0

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


class _PoolRankTransport(Transport):
    """Queue transport for one SPMD rank hosted on a pool slot.

    Each rank owns an inbox queue: ``post`` puts into the destination's
    inbox, ``collect`` drains the own inbox into a local ``(src, tag)``
    buffer until the wanted message arrives, and the barrier is a linear
    exchange on the control tag.  Payloads are pickled bytes, and every
    message carries the ``run_id`` so stale traffic from a previous
    aborted run is dropped instead of delivered.  Send events are
    recorded locally and shipped to the pool with the rank's report,
    where the per-rank ledgers merge into one.
    """

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        cost_model: Optional[CostModel],
        msg_qs: List[Any],
        fail_event: Any,
        run_id: int,
        meter: Counter,
    ) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CostModel()
        self.ledger = TimingLedger(n_ranks, self.cost_model)
        self._msg_qs = msg_qs
        self._fail_event = fail_event
        self._run_id = run_id
        self._meter = meter
        self._buffer: Dict[Tuple[int, Any], deque] = {}

    # -- failure propagation ------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        self._fail_event.set()

    def check_failed(self) -> None:
        if self._fail_event.is_set():
            raise SpmdAbort("another rank failed")

    # -- point-to-point -----------------------------------------------------

    def _put(self, dst: int, src: int, tag: Any, payload: Any,
             ready_time: float) -> None:
        self._msg_qs[dst].put(
            ("p2p", self._run_id, src, tag,
             _count(self._meter, _dumps(payload)), ready_time)
        )

    def post(self, src: int, dst: int, tag: int, payload: Any,
             ready_time: float, nbytes: int, kind: str) -> None:
        self.ledger.events.append(
            CommEvent(kind, src, dst, nbytes, tag, send_clock=ready_time)
        )
        self._put(dst, src, tag, payload, ready_time)

    def collect(self, dst: int, src: int, tag: int) -> Tuple[Any, float]:
        key = (src, tag)
        inbox = self._msg_qs[dst]
        while True:
            box = self._buffer.get(key)
            if box:
                blob, ready = box.popleft()
                return pickle.loads(blob), ready
            self.check_failed()
            try:
                item = inbox.get(timeout=_POLL_S)
            except queue_mod.Empty:
                continue
            _, m_run, m_src, m_tag, blob, ready = item
            if m_run == self._run_id:  # else a leftover from an aborted run
                self._buffer.setdefault((m_src, m_tag), deque()).append(
                    (blob, ready)
                )

    # -- barrier ------------------------------------------------------------

    def barrier(self, clock: float) -> float:
        """Linear clock-max fan-in/out on the control tag, unmetered --
        the same zero-event footprint the threads fabric's shared barrier
        has, so ledgers stay comparable across backends."""
        if self.n_ranks == 1:
            return clock
        if self.rank == 0:
            mx = clock
            for src in range(1, self.n_ranks):
                other, _ = self.collect(0, src, _CTRL_TAG)
                mx = max(mx, other)
            for dst in range(1, self.n_ranks):
                self._put(dst, 0, _CTRL_TAG, mx, 0.0)
            return mx
        self._put(0, self.rank, _CTRL_TAG, clock, 0.0)
        result, _ = self.collect(self.rank, 0, _CTRL_TAG)
        return float(result)


def _report_blob(report: Dict[str, Any]) -> bytes:
    """Pickle a report, downgrading unpicklable payloads to an error.

    ``Queue.put`` pickles on a feeder thread, where an unpicklable
    report would fail *silently* and leave the pool waiting forever, so
    serialise here and surface the problem as the rank's error.  The
    pool counts the report when it arrives: a count shipped inside it
    could not include the report itself.
    """
    try:
        return _dumps(report)
    except Exception:
        what = "result" if report["status"] == "ok" else "exception"
        bad = report["result"] if report["status"] == "ok" else report["error"]
        report = dict(
            report,
            result=None,
            status="error",
            error=RuntimeError(
                f"rank {report['rank']} produced an unpicklable "
                f"{what}: {bad!r}"
            ),
        )
        return _dumps(report)


def _run_one_rank(
    slot: int,
    item: tuple,
    msg_qs: List[Any],
    result_q: Any,
    fail_event: Any,
    meter: Counter,
) -> None:
    _, run_id, rank, n_ranks, extra_blob, run_blob = item
    transport = _PoolRankTransport(
        rank, n_ranks, None, msg_qs, fail_event, run_id, meter
    )
    comm: Optional[VirtualComm] = None
    status, result, error = "ok", None, None
    try:
        extra = pickle.loads(extra_blob)
        fn, args, kwargs, cost_model = pickle.loads(run_blob)
        transport.cost_model = cost_model or CostModel()
        transport.ledger = TimingLedger(n_ranks, transport.cost_model)
        comm = VirtualComm(transport, rank)
        result = fn(comm, *extra, *args, **kwargs)
    except SpmdAbort:
        status = "abort"
    except BaseException as exc:  # noqa: BLE001 - shipped to the pool
        status, error = "error", exc
        transport.fail(exc)
    finally:
        if comm is not None:
            comm.finalize()
        report = {
            "rank": rank,
            "status": status,
            "result": result,
            "error": error,
            "compute": float(transport.ledger.compute[rank]),
            "clock": float(transport.ledger.clock[rank]),
            "events": list(transport.ledger.events),
            "transport": dict(meter),
        }
        blob = _report_blob(report)
        if report["status"] == "error" and status == "ok":
            fail_event.set()  # unpicklable result fails the run
        result_q.put(("rank-report", slot, run_id, rank, blob))


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
    # A rank program must not open *another* pool inside a worker --
    # get_default_pool() refuses when this marker is set.
    os.environ[POOL_WORKER_ENV] = "1"
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
            _run_one_rank(slot, item, msg_qs, result_q, fail_event, meter)
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
    are born.  Runs needing more ranks than this do not fit --
    :class:`~repro.pool.backend.PoolBackend` runs those cold, on a one-shot
    pool with one slot per rank.  Everything else the pool does is set by
    the module constants (:data:`START_METHOD`, :data:`HEARTBEAT_S`,
    :data:`ABORT_JOIN_TIMEOUT_S`); a started worker runs until
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
        self.fallback_runs = 0
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
        :data:`ABORT_JOIN_TIMEOUT_S`.  Every queue is then closed.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        with self._dispatch_lock, self._state_lock:
            alive = [s for s in self._slots if s.alive]
            for slot in alive:
                self._task_qs[slot.index].put(("stop",))
            deadline = time.monotonic() + ABORT_JOIN_TIMEOUT_S
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
        """Execute an SPMD program on warm workers (rank ``r`` on slot ``r``).

        Semantics are identical to the other backends: program errors
        raise ``RuntimeError("rank r failed: ...")``, infrastructure
        deaths raise :class:`WorkerCrashError` (after the dead slots are
        respawned) so the caller may retry on fresh workers.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if rank_args is not None and len(rank_args) != n_ranks:
            raise ValueError("rank_args must provide one tuple per rank")
        if n_ranks > self.max_workers:
            raise ValueError(
                f"n_ranks={n_ranks} exceeds pool capacity "
                f"{self.max_workers} (PoolBackend runs such a job on a "
                "one-shot pool)"
            )
        cost_model = cost_model or CostModel()
        with self._dispatch_lock:
            self._require_open()
            self._ensure_workers(n_ranks)
            self._fail_event.clear()
            with self._state_lock:
                self._run_seq += 1
                run_id = self._run_seq
            # The program and its arguments (the sequence batches,
            # estimator state, profiles) are pickled once; every rank's
            # task carries the same bytes.
            run = (fn, tuple(args), dict(kwargs), cost_model)
            run_blob = _count(self._meter, _dumps(run))
            for r in range(n_ranks):
                extra = tuple(rank_args[r]) if rank_args is not None else ()
                self._task_qs[r].put(
                    ("rank", run_id, r, n_ranks,
                     _count(self._meter, _dumps(extra)), run_blob)
                )
            reports, crashed = self._collect_reports(run_id, n_ranks)
            return self._assemble(n_ranks, cost_model, reports, crashed)

    def _collect_reports(
        self, run_id: int, n_ranks: int
    ) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, BaseException]]:
        reports: Dict[int, Dict[str, Any]] = {}
        crashed: Dict[int, BaseException] = {}
        abort_deadline: Optional[float] = None
        while len(reports.keys() | crashed.keys()) < n_ranks:
            if abort_deadline is None and (
                crashed or self._fail_event.is_set()
            ):
                abort_deadline = time.monotonic() + ABORT_JOIN_TIMEOUT_S
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
                for r in range(n_ranks):
                    slot = self._slots[r]
                    if (r in reports or r in crashed
                            or slot.alive and not self._slot_bad(slot, now)):
                        continue
                    what = (
                        f"sent no heartbeat for {_hang_threshold():g} s"
                        if slot.alive
                        else f"died (exitcode {slot.proc.exitcode})"
                    )
                    crashed[r] = WorkerCrashError(
                        f"worker {r} of pool {self.name!r} {what} mid-run"
                    )
                    self._fail_event.set()
                continue
            if entry[0] != "rank-report":
                continue  # "ready"/"bye" control entries need no action
            _, slot_idx, rid, rank, blob = entry
            if rid != run_id:  # straggler from an aborted run
                continue
            report = pickle.loads(_count(self._meter, blob))
            reports[rank] = report
            with self._state_lock:
                self._slots[slot_idx].transport = report["transport"]
        return reports, crashed

    def _assemble(
        self,
        n_ranks: int,
        cost_model: CostModel,
        reports: Dict[int, Dict[str, Any]],
        crashed: Dict[int, BaseException],
    ) -> SpmdResult:
        stuck = [
            r for r in range(n_ranks)
            if r not in reports and r not in crashed
        ]
        # Any slot that did not come back clean -- crashed (already
        # dead) or stuck (never observed the abort; deep in compute) --
        # may have poisoned shared queue locks, so recovery rebuilds
        # the whole substrate.
        if crashed or stuck:
            self._reset_workers()

        with self._state_lock:
            self.runs += 1
            self.tasks_served += n_ranks

        reported_errors = {
            r: rep["error"] for r, rep in reports.items()
            if rep["status"] == "error"
        }
        if reported_errors:
            rank = min(reported_errors)
            exc = reported_errors[rank]
            note = (
                f" ({len(stuck)} rank worker(s) terminated while "
                f"unwinding: {', '.join(f'rank-{r}' for r in stuck)})"
                if stuck else ""
            )
            raise RuntimeError(f"rank {rank} failed: {exc!r}{note}") from exc
        if crashed:
            rank = min(crashed)
            raise crashed[rank]
        if stuck:
            raise RuntimeError(
                f"rank(s) {', '.join(str(r) for r in stuck)} never "
                "reported and the pool was recycled"
            )

        ledger = TimingLedger(n_ranks, cost_model)
        results: List[Any] = [None] * n_ranks
        for r in range(n_ranks):
            rep = reports[r]
            results[r] = rep["result"]
            ledger.compute[r] = rep["compute"]
            ledger.clock[r] = rep["clock"]
        for r in sorted(reports):  # rank-major merge: identical ledgers
            ledger.events.extend(reports[r]["events"])
        return SpmdResult(results, ledger, backend="pool")

    # -- introspection -------------------------------------------------------

    def note_fallback(self) -> None:
        """Record one run that overflowed onto a one-shot pool."""
        with self._state_lock:
            self.fallback_runs += 1

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
                "fallback_runs": self.fallback_runs,
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
