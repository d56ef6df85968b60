"""The two execution backends of the SPMD launcher.

An :class:`ExecutionBackend` decides *where* the ranks of an SPMD program
run; the rank-side semantics (the :class:`~repro.parcomp.comm.VirtualComm`
API, message metering, logical clocks) are identical across backends, so
a program produces byte-identical results no matter which backend executes
it.  Two backends ship:

- ``"threads"`` (:class:`ThreadBackend`) -- the virtual cluster: one
  daemon thread per rank sharing a :class:`~repro.parcomp.comm.Fabric`,
  whose run token lets one rank execute Python at a time and changes
  hands at blocking communication calls.  Zero startup cost, wall time
  about the serial work, and per-rank ``thread_time`` clocks free of
  contention make it the fidelity choice for *modeled* cluster time.
  The exception is compiled code that drops the interpreter lock: a
  rank parks the token across such a call
  (:func:`~repro.parcomp.comm.run_token_parked`), so ranks whose work
  is those calls -- the ``full-dp`` distance tiles -- use real cores.
- ``"pool"`` (:class:`repro.pool.PoolBackend`) -- real cores: a
  persistent pool of worker processes (:mod:`repro.pool`)
  created once and reused across runs, each payload pickled once by its
  sender onto a queue.  A run with more ranks than the pool has slots
  runs cold, on a one-shot pool sized for it.

Rule of thumb: ``threads`` for studying the paper's communication model
and for stages made of GIL-free compiled calls, ``pool`` for actually
aligning fast -- especially the serving stack's repeated short jobs.

Callers select a backend by name, a string the whole stack -- driver,
engine, service, gateway, CLI -- passes through unchanged, and
:func:`get_backend` resolves it against the fixed table of these two.
"""

from __future__ import annotations

import ctypes
import os
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
    Union,
)

from repro.parcomp.comm import (
    _THREAD_RANK,
    Fabric,
    SpmdAbort,
    VirtualComm,
    current_rank,
)
from repro.parcomp.cost import CostModel, TimingLedger

__all__ = [
    "ExecutionBackend",
    "SpmdResult",
    "ThreadBackend",
    "available_backends",
    "get_backend",
    "in_spmd_rank",
    "usable_cores",
    "bound_malloc_arenas",
    "DEFAULT_BACKEND",
    "MALLOC_ARENA_MAX",
    "POOL_WORKER_ENV",
]

#: The backend used when a caller does not choose one.
DEFAULT_BACKEND = "threads"

#: Set in every ``pool`` worker process (by :mod:`repro.pool.workers`).
POOL_WORKER_ENV = "REPRO_POOL_IN_WORKER"

#: How long a ``threads`` run waits for surviving rank threads after a
#: rank failure before giving up on them.  Parked ranks leave at once; a
#: rank stuck in a long compute phase (it only observes the abort at its
#: next communication call) is left behind as a daemon thread rather
#: than hanging the caller, and the raised error notes the leak.
ABORT_JOIN_TIMEOUT_S = 30.0

#: The malloc arenas a process may keep (glibc's ``M_ARENA_MAX``).
#: glibc gives each new thread an arena of its own, and an arena keeps
#: the buffers freed into it, so a 16-rank ``threads`` run peaked at
#: 3-4x its live data.  The ranks run one at a time under the run
#: token, so two arenas are never contended.
MALLOC_ARENA_MAX = 2

_M_ARENA_MAX = -8  # mallopt's parameter number in <malloc.h>
_arena_max: Optional[str] = None  # what bound_malloc_arenas() settled on


def _libc() -> Any:
    return ctypes.CDLL(None)


def bound_malloc_arenas() -> str:
    """Cap this process's malloc arenas at :data:`MALLOC_ARENA_MAX`,
    once; return the cap in effect, as ``/metrics`` and ``repro
    trace`` show it (``malloc.arena_max``).

    Called when this module is imported, which every entry that starts
    rank threads, gateway workers or a pool does first, so no thread
    has an arena of its own yet and forked pool workers inherit the
    cap.  A ``MALLOC_ARENA_MAX`` in the environment is glibc's own
    setting and is left in charge (its value is returned); where libc
    has no ``mallopt`` (musl, macOS) or refuses it, nothing changes and
    the answer is ``"unbounded"``.
    """
    global _arena_max
    if _arena_max is None:
        _arena_max = os.environ.get("MALLOC_ARENA_MAX") or _set_arena_max()
    return _arena_max


def _set_arena_max() -> str:
    try:
        mallopt = _libc().mallopt
    except (AttributeError, OSError, TypeError):
        return "unbounded"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_ARENA_MAX, MALLOC_ARENA_MAX) != 1:
        return "unbounded"
    return str(MALLOC_ARENA_MAX)


bound_malloc_arenas()


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the
    platform has one (a container pinned to 1 CPU of 64 gets 1), else
    ``os.cpu_count()``."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def in_spmd_rank() -> bool:
    """Whether the caller runs as an SPMD rank: on a ``threads`` rank
    thread, or anywhere in a ``pool`` worker process."""
    return current_rank() is not None or bool(os.environ.get(POOL_WORKER_ENV))


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

    A rank program must not mutate a payload it received.  On ``pool``
    every message is pickled, so the receiver gets its own copy; on
    ``threads`` it gets the sender's object itself.  With ``a =
    comm.bcast(np.zeros(100) if comm.rank == 0 else None, root=0); a +=
    1; return a.sum()`` on two ranks, ``pool`` returns ``[100.0,
    100.0]`` but ``threads`` returns ``[100.0, 200.0]``: rank 1 added to
    rank 0's own array.
    """

    #: Name the backend is selected by.
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
    interpreter-lock contention.  Python code gets no speed-up over one
    core, by design.  The exception is a compiled call that drops the
    interpreter lock and is wrapped in
    :func:`~repro.parcomp.comm.run_token_parked` (today: one ``full-dp``
    distance tile, :func:`repro.align.dp.identity_code_pairs`): the rank
    gives the token up for the call, so ranks whose work is such calls
    run on as many cores as there are ranks.  A rank that blocks
    *outside* the communicator (``time.sleep``, file I/O in a
    ``TileStore`` rank) keeps the token while it does; that is the price
    of one-at-a-time.  Each rank thread would also get a malloc arena
    of its own, which keeps what the rank freed; the process caps them
    at :data:`MALLOC_ARENA_MAX` (:func:`bound_malloc_arenas`), so peak
    memory follows the live data, not the rank count.

    Under an :class:`~repro.engine.service.AlignmentService` there is a
    second token above this one: the thread that called :meth:`run` (a
    gateway worker, or whoever called the service) holds the process's
    compute token (:data:`~repro.parcomp.token.COMPUTE_TOKEN`) and keeps
    it while it sits in ``join`` -- it does not park it, because its
    ranks *are* in-process compute.  The rank threads never touch that
    token; they hand the fabric's run token among themselves, so the
    process still runs exactly one thread of Python at a time.  After a
    rank failure the survivors get :data:`ABORT_JOIN_TIMEOUT_S` to
    unwind.
    """

    name = "threads"

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
            _THREAD_RANK.slot = (fabric, rank)
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
                    deadline = time.monotonic() + ABORT_JOIN_TIMEOUT_S
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
# Selection by name.


def _pool_backend() -> ExecutionBackend:
    """Import :mod:`repro.pool` on first use, not at module import: the
    pool builds *on* this seam, so the dependency stays one-way."""
    from repro.pool import PoolBackend

    return PoolBackend()


_BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {
    "threads": ThreadBackend,
    "pool": _pool_backend,
}


def available_backends() -> List[str]:
    """Sorted names of the execution backends."""
    return sorted(_BACKENDS)


def get_backend(
    backend: Union[str, ExecutionBackend, None] = None,
) -> ExecutionBackend:
    """Resolve a backend selection to an instance.

    ``None`` means :data:`DEFAULT_BACKEND`; a name (case-insensitive)
    resolves through the fixed table; an :class:`ExecutionBackend`
    instance passes through.
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
