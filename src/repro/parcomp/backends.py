"""Pluggable execution backends for the SPMD launcher.

An :class:`ExecutionBackend` decides *where* the ranks of an SPMD program
run; the rank-side semantics (the :class:`~repro.parcomp.comm.VirtualComm`
API, message metering, logical clocks) are identical across backends, so
a program produces byte-identical results no matter which backend executes
it.  Three backends ship:

- ``"threads"`` (:class:`ThreadBackend`) -- the virtual cluster: one
  daemon thread per rank sharing a :class:`~repro.parcomp.comm.Fabric`,
  whose run token lets one rank execute at a time and changes hands at
  blocking communication calls.  Zero startup cost, wall time about the
  serial work, and per-rank ``thread_time`` clocks free of contention
  make it the fidelity choice for *modeled* cluster time; p ranks never
  run faster than one host core, by design.
- ``"processes"`` (:class:`ProcessBackend`) -- one OS process per rank
  (stdlib :mod:`multiprocessing`), queues for the wire.  Ranks really run
  in parallel, so Sample-Align-D's wall clock scales with host cores; the
  price -- paid on *every call* -- is process startup and pickling
  payloads across the boundary.  This is the cold-start reference
  backend the pool is measured against.
- ``"pool"`` (:class:`repro.pool.PoolBackend`) -- real cores without the
  per-call startup: a persistent, supervised worker pool
  (:mod:`repro.pool`) created once and reused across runs, with large
  payloads riding zero-copy shared-memory segments instead of pickled
  queues.

Rule of thumb: ``threads`` for studying the paper's communication model,
``pool`` for actually aligning fast -- especially the serving stack's
repeated short jobs -- and ``processes`` as the simple cold-start
baseline the pool's warm-start win is benchmarked against
(``benchmarks/bench_pool_scaling.py``).

Backends register by name (:func:`register_backend`) so callers select
them with a string the whole stack -- driver, engine, service, gateway,
CLI -- passes through unchanged.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence as TSequence,
    Tuple,
    Union,
)

from repro.parcomp.comm import Fabric, SpmdAbort, Transport, VirtualComm
from repro.parcomp.cost import CommEvent, CostModel, TimingLedger

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SpmdResult",
    "ThreadBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "DEFAULT_BACKEND",
]

#: The backend used when a caller does not choose one.
DEFAULT_BACKEND = "threads"


@dataclass
class SpmdResult:
    """Per-rank return values plus the run's timing ledger."""

    results: List[Any]
    ledger: TimingLedger
    #: Name of the execution backend that produced this result.
    backend: str = DEFAULT_BACKEND

    @property
    def n_ranks(self) -> int:
        return self.ledger.n_ranks

    def modeled_time(self) -> float:
        return self.ledger.modeled_time()


class ExecutionBackend(ABC):
    """How to execute ``fn(comm, ...)`` once per rank.

    Subclasses implement :meth:`run` with identical semantics: every rank
    calls ``fn`` exactly once, the first rank failure aborts the job
    (surviving ranks raise :class:`~repro.parcomp.comm.SpmdAbort` out of
    their next blocking wait) and the original exception is re-raised to
    the caller as ``RuntimeError("rank r failed: ...")``.
    """

    #: Registry name of the backend.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: TSequence[Any] = (),
        rank_args: Optional[TSequence[TSequence[Any]]] = None,
        cost_model: CostModel | None = None,
        **kwargs: Any,
    ) -> SpmdResult:
        """Execute ``fn`` as an SPMD program over ``n_ranks`` ranks."""

    @staticmethod
    def _validate(
        n_ranks: int, rank_args: Optional[TSequence[TSequence[Any]]]
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if rank_args is not None and len(rank_args) != n_ranks:
            raise ValueError("rank_args must provide one tuple per rank")


# ---------------------------------------------------------------------------
# Threads backend (the original virtual cluster).


class ThreadBackend(ExecutionBackend):
    """One daemon thread per rank over a shared in-process fabric, run
    one rank at a time.

    Each run's :class:`~repro.parcomp.comm.Fabric` owns one run token.  A
    rank thread holds it around its whole program and hands it over only
    inside a blocking ``recv``/collective/``barrier`` whose message or
    barrier generation is not there yet, so the wall time is about the
    serial work and every rank's ``thread_time`` clock is free of
    interpreter-lock contention.  There is no speed-up over one core, by
    design.  A rank that blocks *outside* the communicator
    (``time.sleep``, file I/O in a ``TileStore`` rank) keeps the token
    while it does; that is the price of one-at-a-time.

    Parameters
    ----------
    abort_join_timeout:
        How long to wait for surviving rank threads after a rank failure
        before giving up on them.  Parked ranks leave at once; a rank
        stuck in a long compute phase (it only observes the abort at its
        next communication call) is left behind as a daemon thread
        rather than hanging the caller, and the raised error notes the
        leak.
    """

    name = "threads"

    def __init__(self, abort_join_timeout: float = 30.0) -> None:
        if abort_join_timeout <= 0:
            raise ValueError("abort_join_timeout must be > 0")
        self.abort_join_timeout = abort_join_timeout

    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: TSequence[Any] = (),
        rank_args: Optional[TSequence[TSequence[Any]]] = None,
        cost_model: CostModel | None = None,
        **kwargs: Any,
    ) -> SpmdResult:
        self._validate(n_ranks, rank_args)
        fabric = Fabric(n_ranks, cost_model)
        results: List[Any] = [None] * n_ranks
        errors: List[tuple] = []

        def runner(rank: int) -> None:
            fabric.acquire(rank)
            comm = VirtualComm(fabric, rank)
            try:
                extra = tuple(rank_args[rank]) if rank_args is not None else ()
                results[rank] = fn(comm, *extra, *args, **kwargs)
            except SpmdAbort:
                pass  # somebody else failed first; stay quiet
            except BaseException as exc:  # noqa: BLE001 - propagated to caller
                errors.append((rank, exc))
                fabric.fail(exc)
            finally:
                comm.finalize()
                fabric.release(rank)

        threads = [
            threading.Thread(
                target=runner, args=(r,), name=f"rank-{r}", daemon=True
            )
            for r in range(n_ranks)
        ]
        for t in threads:
            t.start()

        # Join with a post-failure deadline: a healthy run joins all ranks
        # unconditionally, but once a rank has failed the survivors get a
        # bounded grace period to unwind (they wake from blocking waits
        # immediately; only a rank deep in compute can overstay).
        deadline: Optional[float] = None
        leaked: List[str] = []
        pending = deque(threads)
        while pending:
            t = pending.popleft()
            t.join(0.1)
            if not t.is_alive():
                continue
            if errors:
                if deadline is None:
                    deadline = time.monotonic() + self.abort_join_timeout
                if time.monotonic() >= deadline:
                    leaked.append(t.name)
                    continue
            pending.append(t)

        if errors:
            rank, exc = errors[0]
            note = (
                f" ({len(leaked)} rank thread(s) still unwinding: "
                f"{', '.join(leaked)})" if leaked else ""
            )
            raise RuntimeError(f"rank {rank} failed: {exc!r}{note}") from exc
        return SpmdResult(results, fabric.ledger, backend=self.name)


# ---------------------------------------------------------------------------
# Processes backend (real cores).

#: Reserved tag for transport-internal control messages (barrier clock
#: exchange).  User tags are validated to be ints by VirtualComm, so a
#: string tag can never collide with program traffic.
_CTRL_TAG = "__ctrl__"

#: How often a blocked rank process re-checks the shared failure flag.
_PROC_POLL_S = 0.05


class _ProcessRankTransport(Transport):
    """Queue transport as seen from inside one rank process.

    Each rank owns an inbox queue; ``post`` pickles the payload into the
    destination's inbox, ``collect`` drains the own inbox into a local
    ``(src, tag)``-keyed buffer until the wanted message arrives.  Send
    events are recorded locally and shipped to the parent at the end of
    the run, where the per-rank ledgers merge into one.
    """

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        cost_model: CostModel,
        inboxes: List[Any],
        fail_event: Any,
    ) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CostModel()
        self.ledger = TimingLedger(n_ranks, self.cost_model)
        self._inboxes = inboxes
        self._fail_event = fail_event
        self._buffer: Dict[Tuple[int, Any], deque] = {}

    # -- failure propagation ------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        self._fail_event.set()

    def check_failed(self) -> None:
        if self._fail_event.is_set():
            raise SpmdAbort("another rank failed")

    # -- point-to-point -----------------------------------------------------

    def post(self, src: int, dst: int, tag: int, payload: Any,
             ready_time: float, nbytes: int, kind: str) -> None:
        self.ledger.events.append(
            CommEvent(kind, src, dst, nbytes, tag, send_clock=ready_time)
        )
        self._inboxes[dst].put((src, tag, payload, ready_time))

    def collect(self, dst: int, src: int, tag: int) -> Tuple[Any, float]:
        key = (src, tag)
        inbox = self._inboxes[dst]
        while True:
            box = self._buffer.get(key)
            if box:
                payload, ready = box.popleft()
                return payload, ready
            self.check_failed()
            try:
                m_src, m_tag, payload, ready = inbox.get(timeout=_PROC_POLL_S)
            except queue_mod.Empty:
                continue
            self._buffer.setdefault((m_src, m_tag), deque()).append(
                (payload, ready)
            )

    # -- barrier ------------------------------------------------------------

    def barrier(self, clock: float) -> float:
        """Clock-max exchange over unmetered control messages.

        Linear fan-in at rank 0 then fan-out, on the reserved control
        tag -- the same zero-event footprint the threads fabric's shared
        barrier has, so ledgers stay comparable across backends.
        """
        if self.n_ranks == 1:
            return clock
        if self.rank == 0:
            mx = clock
            for src in range(1, self.n_ranks):
                other, _ = self.collect(0, src, _CTRL_TAG)
                mx = max(mx, other)
            for dst in range(1, self.n_ranks):
                self._inboxes[dst].put((0, _CTRL_TAG, mx, 0.0))
            return mx
        self._inboxes[0].put((self.rank, _CTRL_TAG, clock, 0.0))
        result, _ = self.collect(self.rank, 0, _CTRL_TAG)
        return float(result)


def _process_rank_main(
    rank: int,
    n_ranks: int,
    fn: Callable[..., Any],
    extra: tuple,
    args: tuple,
    kwargs: Dict[str, Any],
    cost_model: CostModel,
    inboxes: List[Any],
    fail_event: Any,
    report_queue: Any,
) -> None:
    """Entry point of one rank process (module-level: spawn-picklable)."""
    transport = _ProcessRankTransport(
        rank, n_ranks, cost_model, inboxes, fail_event
    )
    comm = VirtualComm(transport, rank)
    status, result, error = "ok", None, None
    try:
        result = fn(comm, *extra, *args, **kwargs)
    except SpmdAbort:
        status = "abort"
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        status, error = "error", exc
        transport.fail(exc)
    finally:
        comm.finalize()
        report = {
            "rank": rank,
            "status": status,
            "result": result,
            "error": error,
            "compute": float(transport.ledger.compute[rank]),
            "clock": float(transport.ledger.clock[rank]),
            "events": list(transport.ledger.events),
        }
        # Serialise here and ship the bytes: Queue.put pickles on a
        # feeder thread, where an unpicklable report would fail
        # *silently* and leave the parent waiting forever.  Pickling
        # once in-rank both surfaces that error and avoids paying for
        # the (potentially large) payload twice.
        try:
            blob = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            what = "result" if status == "ok" else "exception"
            bad = result if status == "ok" else error
            report["result"] = None
            report["error"] = RuntimeError(
                f"rank {rank} produced an unpicklable {what}: {bad!r}"
            )
            report["status"] = "error"
            fail_event.set()
            blob = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
        report_queue.put(blob)
        if status != "ok" or fail_event.is_set():
            # Aborted peers may never drain our sends; don't let the
            # queue feeder threads block this process's exit.
            for box in inboxes:
                box.cancel_join_thread()


class ProcessBackend(ExecutionBackend):
    """One OS process per rank; queues move the messages.

    This is the *cold-start reference backend*: every :meth:`run` pays
    rank-process creation and teardown, and every payload is pickled
    through a queue.  That makes it the simplest way to use real cores
    for one long run, and the baseline the persistent ``"pool"`` backend
    (:mod:`repro.pool`) is measured against on repeated short jobs,
    where the per-call startup dominates.

    Parameters
    ----------
    start_method:
        :mod:`multiprocessing` start method.  Default: the
        ``REPRO_SPMD_START_METHOD`` environment variable if set, else
        ``"fork"`` where available (fast, and rank closures need no
        pickling), else the platform default.  Forking from a threaded
        parent (the serving stack) is safe *here* because rank children
        only touch run-local queues plus locks CPython re-initialises
        after fork, but hosts that prefer strict hygiene (or Python
        3.12+'s fork-with-threads deprecation) can export
        ``REPRO_SPMD_START_METHOD=forkserver``; then the program
        function, its arguments and every payload must be picklable --
        module-level functions, not closures (``sample_align_d`` is).
    abort_join_timeout:
        Grace period for rank processes to unwind after a failure (or
        after results are in) before they are terminated, then killed.
        No child ever outlives :meth:`run`.
    """

    name = "processes"

    def __init__(
        self,
        start_method: Optional[str] = None,
        abort_join_timeout: float = 10.0,
    ) -> None:
        if abort_join_timeout <= 0:
            raise ValueError("abort_join_timeout must be > 0")
        if start_method is None:
            start_method = os.environ.get("REPRO_SPMD_START_METHOD") or None
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        elif start_method not in mp.get_all_start_methods():
            raise ValueError(
                f"unknown start method {start_method!r}; available: "
                f"{mp.get_all_start_methods()}"
            )
        self.start_method = start_method
        self.abort_join_timeout = abort_join_timeout

    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: TSequence[Any] = (),
        rank_args: Optional[TSequence[TSequence[Any]]] = None,
        cost_model: CostModel | None = None,
        **kwargs: Any,
    ) -> SpmdResult:
        self._validate(n_ranks, rank_args)
        cost_model = cost_model or CostModel()
        ctx = mp.get_context(self.start_method)
        inboxes = [ctx.Queue() for _ in range(n_ranks)]
        report_queue = ctx.Queue()
        fail_event = ctx.Event()
        procs = []
        for r in range(n_ranks):
            extra = tuple(rank_args[r]) if rank_args is not None else ()
            procs.append(
                ctx.Process(
                    target=_process_rank_main,
                    args=(r, n_ranks, fn, extra, tuple(args), dict(kwargs),
                          cost_model, inboxes, fail_event, report_queue),
                    name=f"rank-{r}",
                    daemon=True,
                )
            )
        for p in procs:
            p.start()

        reports: Dict[int, Dict[str, Any]] = {}
        crashed: Dict[int, BaseException] = {}
        abort_deadline: Optional[float] = None
        while len(reports.keys() | crashed.keys()) < n_ranks:
            # Once the run is failing, surviving ranks get a bounded
            # grace period to report; a rank stuck deep in compute (it
            # only observes the abort at its next communication call)
            # must not hang the caller -- _reap terminates it below.
            if abort_deadline is None and (crashed or fail_event.is_set()):
                abort_deadline = time.monotonic() + self.abort_join_timeout
            if (abort_deadline is not None
                    and time.monotonic() >= abort_deadline):
                break
            try:
                rep = pickle.loads(report_queue.get(timeout=0.2))
                reports[rep["rank"]] = rep
            except queue_mod.Empty:
                # A rank killed outside Python (segfault, OOM killer)
                # exits non-zero and never reports; detect it, fail the
                # survivors out of their waits, and synthesise its error.
                # A clean exit (code 0) always has a report in flight --
                # the runner puts it before exiting -- so keep waiting.
                for r, p in enumerate(procs):
                    if (not p.is_alive() and p.exitcode != 0
                            and r not in reports and r not in crashed):
                        crashed[r] = RuntimeError(
                            f"rank process died without reporting "
                            f"(exitcode {p.exitcode})"
                        )
                        fail_event.set()

        self._reap(procs, timeout=self.abort_join_timeout)
        for box in inboxes:
            box.cancel_join_thread()
            box.close()
        report_queue.cancel_join_thread()
        report_queue.close()

        # Error precedence: a reported exception (the actual cause) over
        # a synthesised crash, over "stuck" ranks terminated by _reap --
        # the latter are symptoms of the abort, never the cause.  A crash
        # after an "ok" report still fails the run, because setting the
        # failure flag aborted the surviving ranks mid-computation.
        reported_errors = {
            r: rep["error"] for r, rep in reports.items()
            if rep["status"] == "error"
        }
        stuck = [
            r for r in range(n_ranks)
            if r not in reports and r not in crashed
        ]
        errors: List[Tuple[int, BaseException]] = sorted(
            list(reported_errors.items())
            + [(r, exc) for r, exc in crashed.items()
               if r not in reported_errors],
            key=lambda pair: pair[0],
        )
        ledger = TimingLedger(n_ranks, cost_model)
        results: List[Any] = [None] * n_ranks
        for r in range(n_ranks):
            rep = reports.get(r)
            if rep is None:
                continue
            results[r] = rep["result"]
            ledger.compute[r] = rep["compute"]
            ledger.clock[r] = rep["clock"]
        # Deterministic merge: rank-major, send order within a rank.
        for r in sorted(reports):
            ledger.events.extend(reports[r]["events"])

        if errors:
            rank, exc = errors[0]
            note = (
                f" ({len(stuck)} rank process(es) terminated while "
                f"unwinding: {', '.join(f'rank-{r}' for r in stuck)})"
                if stuck else ""
            )
            raise RuntimeError(f"rank {rank} failed: {exc!r}{note}") from exc
        if stuck:  # failed flag raised but no cause surfaced: still a failure
            raise RuntimeError(
                f"rank(s) {', '.join(str(r) for r in stuck)} never "
                "reported and were terminated"
            )
        return SpmdResult(results, ledger, backend=self.name)

    @staticmethod
    def _reap(procs: List[Any], timeout: float) -> None:
        """Join every child within ``timeout``; escalate to terminate/kill."""
        deadline = time.monotonic() + timeout
        for p in procs:
            p.join(max(deadline - time.monotonic(), 0.0))
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(1.0)
                if p.is_alive():  # pragma: no cover - last resort
                    p.kill()
                    p.join(1.0)


# ---------------------------------------------------------------------------
# Registry.

_BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[[], ExecutionBackend],
    overwrite: bool = False,
) -> None:
    """Register an execution backend factory under ``name``.

    ``factory()`` must return an :class:`ExecutionBackend`.  Names are
    case-insensitive and shared by every layer's ``backend=`` option.
    """
    key = name.lower()
    if key in _BACKENDS and not overwrite:
        raise ValueError(
            f"backend {name!r} already registered "
            "(pass overwrite=True to replace)"
        )
    _BACKENDS[key] = factory


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry."""
    try:
        del _BACKENDS[name.lower()]
    except KeyError:
        raise KeyError(f"backend {name!r} is not registered") from None


def available_backends() -> List[str]:
    """Sorted names of the registered execution backends."""
    return sorted(_BACKENDS)


def get_backend(
    backend: Union[str, ExecutionBackend, None] = None,
) -> ExecutionBackend:
    """Resolve a backend selection to an instance.

    ``None`` means :data:`DEFAULT_BACKEND`; a string resolves through the
    registry; an :class:`ExecutionBackend` instance passes through.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = _BACKENDS[str(backend).lower()]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {backend!r}; "
            f"available: {available_backends()}"
        ) from None
    return factory()


def _pool_backend_factory() -> ExecutionBackend:
    """Lazy factory: importing :mod:`repro.pool` here (not at module
    import) keeps the dependency one-way -- the pool builds *on* the
    backend seam -- while ``"pool"`` still shows up in
    :func:`available_backends` and in ``get_backend`` error messages
    from the first import of this module."""
    from repro.pool import PoolBackend

    return PoolBackend()


register_backend("threads", ThreadBackend)
register_backend("processes", ProcessBackend)
register_backend("pool", _pool_backend_factory)
