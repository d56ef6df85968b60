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
  sender onto a queue.  ``p`` ranks on ``k`` workers are placed M:N:
  each worker hosts a block of at most ``ceil(p/k)`` ranks over its
  own run token, so a 16-rank run on two workers uses both cores.

Both host ranks with :func:`run_rank_threads` (``threads`` as one
block) and end a run with :func:`assemble`.

Rule of thumb: leave the backend unset.  :func:`place` then keeps a
small job, a one-core host and a job started inside a rank on
``threads``, runs GIL-free compiled stages on ``threads`` ranks over
every core, and puts a Sample-Align-D run big enough to pay a pool
dispatch on a ``pool`` of every usable core.  Choose ``threads`` to
study the paper's communication model one rank at a time, ``pool`` to
put even small jobs on real cores.

Callers select a backend by name, a string the whole stack -- driver,
engine, service, gateway, CLI -- passes through unchanged, and
:func:`get_backend` resolves it against the fixed table of these two
(``None`` is ``"threads"``; the unset rule lives with the callers that
know the job's work, and calls :func:`place`).
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
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
    "BlockReport",
    "ExecutionBackend",
    "Placement",
    "SpmdResult",
    "ThreadBackend",
    "assemble",
    "available_backends",
    "get_backend",
    "in_spmd_rank",
    "place",
    "run_rank_threads",
    "usable_cores",
    "bound_malloc_arenas",
    "DEFAULT_BACKEND",
    "MALLOC_ARENA_MAX",
]

#: The backend used when a caller does not choose one.
DEFAULT_BACKEND = "threads"

#: The one abort grace.  Once the run failed, a rank host
#: (:func:`run_rank_threads`) waits this long for its rank threads and
#: reports the rest as still unwinding: parked ranks leave at once, a
#: rank deep in compute is left behind as a daemon thread.  A ``pool``
#: parent waits twice as long for the workers' reports.
ABORT_JOIN_TIMEOUT_S = 10.0

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
    ``os.cpu_count()`` -- and no more than its cgroup's CPU quota
    (:func:`_cpu_quota_cores`), so 64 cores of affinity under a 2-CPU
    ``cpu.max`` give 2."""
    try:
        cores = max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    quota = _cpu_quota_cores()
    return cores if quota is None else min(cores, quota)


def _read_cpu_max() -> Optional[str]:
    """The text of this process's cgroup-v2 ``cpu.max`` (``"<quota>
    <period>"`` or ``"max <period>"``), or ``None`` where there is none.
    Only reads: the cgroup named in ``/proc/self/cgroup``, else the
    root of the cgroup mount."""
    paths = []
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("0::"):
                    paths.append(
                        "/sys/fs/cgroup" + line[3:].strip().rstrip("/")
                        + "/cpu.max"
                    )
    except OSError:
        pass
    paths.append("/sys/fs/cgroup/cpu.max")
    for path in paths:
        try:
            with open(path, encoding="ascii") as fh:
                return fh.read()
        except OSError:
            continue
    return None


def _cpu_quota_cores() -> Optional[int]:
    """The cgroup CPU quota in whole cores, ``ceil(quota / period)`` --
    ``None`` when there is no quota (``max``) or no readable
    ``cpu.max``."""
    text = _read_cpu_max()
    if not text:
        return None
    fields = text.split()
    try:
        quota, period = int(fields[0]), int(fields[1])
    except (IndexError, ValueError):
        return None  # "max <period>", or nothing we understand
    if quota <= 0 or period <= 0:
        return None
    return max(-(-quota // period), 1)


def in_spmd_rank() -> bool:
    """Whether the caller runs as an SPMD rank: every rank program, on
    ``threads`` or in a ``pool`` worker, runs on a thread of
    :func:`run_rank_threads`."""
    return current_rank() is not None


@dataclass(frozen=True)
class Placement:
    """Where an unset backend runs a job: ``backend`` and the ``workers``
    (cores) its ranks use -- one for ``threads`` ranks that take turns,
    every usable core for ``pool`` workers or for ``threads`` ranks that
    park their run token around compiled calls."""

    backend: str
    workers: int = 1


def place(work: int, crossover: int, *, gil_free: bool) -> Placement:
    """The one placement rule for a job whose caller left the backend
    unset.

    On one usable core (:func:`usable_cores`), inside an SPMD rank
    (:func:`in_spmd_rank`: its peers already use the cores) or below
    ``crossover`` units of ``work`` the job stays in this process on
    one core: ``Placement("threads", 1)``.  Otherwise it gets every
    usable core ``k``: ranks whose work is compiled calls that drop the
    interpreter lock (``gil_free``, the ``full-dp`` distance tiles) as
    ``k`` ``threads`` ranks; Python ranks (Sample-Align-D) on a ``pool``
    of ``k`` workers, each hosting a block of the ranks.  The callers
    fix ``work`` and ``crossover`` as module constants measured on a
    2-vCPU host: :data:`repro.distance.allpairs.AUTO_THREADS_MIN_CELLS`
    and :data:`repro.core.driver.AUTO_POOL_MIN_CELLS`.
    """
    if work < crossover or in_spmd_rank():
        return Placement("threads", 1)
    cores = usable_cores()
    if cores < 2:
        return Placement("threads", 1)
    return Placement("threads" if gil_free else "pool", cores)


@dataclass
class SpmdResult:
    """Per-rank return values plus the run's timing ledger."""

    results: List[Any]
    ledger: TimingLedger
    #: Name of the execution backend that produced this result.
    backend: str = DEFAULT_BACKEND
    #: Processes the ranks ran in (``threads``: this one).
    workers: int = 1

    @property
    def n_ranks(self) -> int:
        return self.ledger.n_ranks

    def modeled_time(self) -> float:
        return self.ledger.modeled_time()

    @property
    def placement(self) -> str:
        """Backend, worker processes ``k`` and the most ranks one of them
        hosted, e.g. ``"pool k=2 ranks/worker=8"`` (the ``placement``
        attribute of a ``<stage>.dispatch`` span)."""
        per = -(-self.n_ranks // self.workers)
        return f"{self.backend} k={self.workers} ranks/worker={per}"


class ExecutionBackend(ABC):
    """How to execute ``fn(comm, ...)`` once per rank.

    Subclasses implement :meth:`run` with identical semantics: every rank
    calls ``fn`` once, the first rank failure aborts the job (surviving
    ranks raise :class:`~repro.parcomp.comm.SpmdAbort` out of their next
    blocking wait, and a rank that has not started does not start) and
    the lowest failed rank's exception is re-raised to the caller as
    ``RuntimeError("rank r failed: ...")`` (:func:`assemble`).

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
# The one rank host, and the one way a run ends.


@dataclass
class BlockReport:
    """What hosting a block of ranks over one fabric left behind: each
    rank's return value (``None`` for one that failed or aborted), the
    exceptions of those that failed, the fabric's ledger (the block's
    sends; compute and clock of its ranks only) and the ranks still
    unwinding when the host gave up on them.  Picklable: a ``pool``
    worker ships it to the parent."""

    results: Dict[int, Any]
    errors: Dict[int, BaseException] = field(default_factory=dict)
    ledger: Optional[TimingLedger] = None
    unwinding: List[int] = field(default_factory=list)


def run_rank_threads(
    fabric: Fabric,
    ranks: TSequence[int],
    fn: Callable[..., Any],
    args: TSequence[Any],
    rank_args: Optional[Any],
    kwargs: Dict[str, Any],
    inline: bool = False,
) -> BlockReport:
    """Host ``ranks`` over ``fabric``: run ``fn`` once for each, one
    daemon thread per rank, join them and report them.

    The one rank host: :class:`ThreadBackend` runs every rank of a job
    as one block over a plain :class:`Fabric`, and a ``pool`` worker
    runs the block of ranks it hosts over the worker's fabric,
    ``inline``: the block's first rank on the worker's own thread, whose
    DP buffers (:class:`~repro.align.tablepool.TablePool`) and malloc
    arena stay warm from run to run, so a worker hosting one rank starts
    no thread at all.  ``rank_args[r]`` (indexable by rank, or ``None``)
    are rank ``r``'s leading arguments.  A rank that gets the token
    after the run failed does not start its program; once it failed,
    the join waits :data:`ABORT_JOIN_TIMEOUT_S` and reports the rank
    threads still running as ``unwinding``.
    """
    report = BlockReport({r: None for r in ranks}, ledger=fabric.ledger)

    def runner(rank: int) -> None:
        _THREAD_RANK.slot = (fabric, rank)
        fabric.acquire(rank)
        comm = VirtualComm(fabric, rank)
        try:
            fabric.check_failed()
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            report.results[rank] = fn(comm, *extra, *args, **kwargs)
        except SpmdAbort:
            pass  # somebody else failed first; stay quiet
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            report.errors[rank] = exc
            fabric.fail(exc)
        finally:
            comm.finalize()
            fabric.release(rank)
            _THREAD_RANK.slot = None

    threads = [
        (r, threading.Thread(
            target=runner, args=(r,), name=f"rank-{r}", daemon=True
        ))
        for r in (ranks[1:] if inline else ranks)
    ]
    for _, t in threads:
        t.start()
    if inline:
        runner(ranks[0])

    # Join with a post-failure deadline: a healthy run joins all ranks
    # unconditionally, but once the run has failed the survivors get a
    # bounded grace period to unwind (they wake from blocking waits
    # immediately; only a rank deep in compute can overstay).
    deadline: Optional[float] = None
    pending = deque(threads)
    while pending:
        r, t = pending.popleft()
        t.join(0.1)
        if not t.is_alive():
            continue
        if fabric.failed:
            if deadline is None:
                deadline = time.monotonic() + ABORT_JOIN_TIMEOUT_S
            if time.monotonic() >= deadline:
                report.unwinding.append(r)
                continue
        pending.append((r, t))
    return report


def assemble(
    n_ranks: int,
    blocks: List[BlockReport],
    cost_model: CostModel,
    *,
    backend: str,
    workers: int = 1,
    unreported: TSequence[int] = (),
    crash: Optional[BaseException] = None,
) -> SpmdResult:
    """The one way a run ends: its block reports as one
    :class:`SpmdResult` (events rank-major, each rank's in program
    order), or one error.  The lowest failed rank's error wins, as
    ``RuntimeError("rank r failed: ...")`` naming the ranks still
    unwinding (``unreported``: ranks whose host never reported); then
    ``crash`` (a ``pool`` worker died); then the unwinding ranks.
    """
    errors = {r: exc for b in blocks for r, exc in b.errors.items()}
    unwinding = sorted({*unreported, *(r for b in blocks for r in b.unwinding)})
    note = f"rank(s) {', '.join(map(str, unwinding))} still unwinding"
    if errors:
        rank = min(errors)
        suffix = f" ({note})" if unwinding else ""
        raise RuntimeError(
            f"rank {rank} failed: {errors[rank]!r}{suffix}"
        ) from errors[rank]
    if crash is not None:
        raise crash
    if unwinding:
        raise RuntimeError(f"no rank failed, but {note}")
    results = {r: value for b in blocks for r, value in b.results.items()}
    ledger = TimingLedger(n_ranks, cost_model)
    for b in blocks:
        ledger.compute += b.ledger.compute
        ledger.clock += b.ledger.clock
    events = [e for b in blocks for e in b.ledger.events]
    ledger.events.extend(sorted(events, key=lambda e: e.src))
    return SpmdResult(
        [results[r] for r in range(n_ranks)], ledger,
        backend=backend, workers=workers,
    )


class ThreadBackend(ExecutionBackend):
    """Every rank as one daemon thread over a shared in-process fabric,
    run one rank at a time: the in-process, one-block case of the rank
    host a ``pool`` worker runs (:func:`run_rank_threads`, then
    :func:`assemble`).

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
    process still runs exactly one thread of Python at a time.
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
        block = run_rank_threads(
            fabric, range(n_ranks), fn, args, rank_args, kwargs
        )
        return assemble(
            n_ranks, [block], fabric.cost_model, backend=self.name
        )


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
