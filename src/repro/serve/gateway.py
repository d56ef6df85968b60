"""The alignment-serving gateway: admission, coalescing, dispatch.

:class:`AlignmentGateway` is what sits between untrusted traffic and an
:class:`~repro.engine.service.AlignmentService`, and the one scheduler
of a served request: its workers run each admitted request, cache
lookup and engine, on their own threads.  It adds the three things a
raw service lacks under load:

- **Admission control.**  A *bounded* priority queue: when the backlog
  is full, new work is rejected immediately (:class:`QueueFullError`)
  instead of growing an unbounded queue until latency is unbounded too.
  Within the bound, ``high`` priority requests dispatch before
  ``normal`` before ``low`` (FIFO within a class).
- **Per-client rate limiting.**  A token bucket per ``client_id``
  (``rate`` tokens/second, ``burst`` capacity); a client over its budget
  gets :class:`RateLimitedError` without consuming queue space.
- **Cross-client request coalescing.**  Requests are keyed by
  :meth:`~repro.engine.api.AlignRequest.content_hash`; a request
  identical to one already admitted (from *any* client) attaches to the
  in-flight computation instead of queueing a duplicate.  Together with
  the service's result cache this means each distinct alignment runs at
  most once no matter how many clients ask for it.

Every accepted request returns a :class:`Ticket` -- waitable, pollable
by id (the HTTP frontend's ``GET /jobs/<id>``), and carrying queue and
latency metadata.  Once a ticket has handed out its answer the gateway
keeps only that metadata: a served result lives in the result cache and
with the client, not in the ticket table.  :meth:`AlignmentGateway.metrics`
snapshots the whole serving surface: queue depth, admission counters,
coalesce hits, latency percentiles, the ticket table's size, and the
service/cache-backend stats underneath.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.align.dp import kernel as dp_kernel
from repro.distance import DistanceConfig, validate_backend_name
from repro.engine.api import AlignRequest, AlignResult
from repro.engine.registry import available_engines, engine_stages
from repro.engine.service import AlignmentService
from repro.obs.metrics import Histogram, HistogramSnapshot, registry
from repro.obs.tracing import span
from repro.parcomp.backends import bound_malloc_arenas
from repro.tree import STAGE_CONFIGS, TreeConfig

__all__ = [
    "AlignmentGateway",
    "GatewayError",
    "QueueFullError",
    "RateLimitedError",
    "Ticket",
    "TokenBucket",
    "PRIORITIES",
]

#: Priority classes, low number dispatches first.
PRIORITIES: Dict[str, int] = {"high": 0, "normal": 1, "low": 2}


class GatewayError(RuntimeError):
    """A request was refused at admission (not an engine failure)."""


class QueueFullError(GatewayError):
    """The bounded admission queue is at capacity; retry later."""


class RateLimitedError(GatewayError):
    """The client exhausted its token bucket; slow down."""


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Not thread-safe on its own; the gateway serializes access.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        now = time.monotonic()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class _Entry:
    """One admitted computation, shared by every coalesced ticket.

    ``request`` is dropped once the entry leaves the in-flight table (no
    ticket can join it after that); ``result`` lives as long as some
    ticket that has not been delivered holds the entry.
    """

    __slots__ = ("key", "request", "priority", "enqueued", "completed",
                 "done", "result", "error")

    def __init__(
        self, key: str, request: Optional[AlignRequest], priority: int
    ) -> None:
        self.key = key
        self.request = request
        self.priority = priority
        self.enqueued = time.monotonic()
        self.completed: Optional[float] = None
        self.done = threading.Event()
        self.result: Optional[AlignResult] = None
        self.error: Optional[BaseException] = None

    def without_result(self) -> "_Entry":
        """A finished copy holding everything but the result and request
        (it shares the set ``done`` event)."""
        twin = _Entry(self.key, None, self.priority)
        twin.enqueued, twin.completed = self.enqueued, self.completed
        twin.done, twin.error = self.done, self.error
        return twin


@dataclass
class Ticket:
    """Handle for one client request admitted by the gateway.

    The first time a ticket hands out its answer -- :meth:`wait`
    returns (or raises) it, or :attr:`result` is read after completion
    -- the ticket is *delivered*: the gateway's lookup table swaps it
    for a result-free twin with the same metadata, status and error, so
    a served result lives only in the result cache and with the client.
    This object keeps its result: repeated :meth:`wait` calls still
    return it.  A twin found by ``get_ticket`` after delivery reports
    ``done`` with ``result`` ``None``, and its :meth:`wait` raises
    :class:`LookupError`.
    """

    ticket_id: str
    client_id: str
    priority: str
    coalesced: bool  #: attached to an already in-flight identical request
    request_hash: str
    _entry: _Entry = field(repr=False)
    #: The gateway's slot swap, called on first delivery (then cleared).
    _on_delivery: Optional[Callable[["Ticket"], None]] = field(
        default=None, repr=False, compare=False
    )

    def _delivered(self) -> None:
        hook, self._on_delivery = self._on_delivery, None
        if hook is not None:
            hook(self)

    @property
    def done(self) -> bool:
        return self._entry.done.is_set()

    @property
    def status(self) -> str:
        if not self.done:
            return "pending"
        return "failed" if self._entry.error is not None else "done"

    @property
    def result(self) -> Optional[AlignResult]:
        """The result if finished successfully (non-blocking); else None.

        Reading it once the ticket has finished delivers the ticket.
        """
        if not self.done:
            return None
        self._delivered()
        return self._entry.result

    @property
    def completed_at(self) -> Optional[float]:
        """``time.monotonic()`` at computation completion (None before).

        This is when the *work* finished, independent of when any waiter
        got around to observing it -- the right end-point for measuring
        a request's latency from its submission time.
        """
        return self._entry.completed

    def wait(self, timeout: Optional[float] = None) -> AlignResult:
        """Block until the computation finishes; re-raise its error."""
        if not self._entry.done.wait(timeout):
            raise TimeoutError(
                f"ticket {self.ticket_id} still pending after {timeout}s"
            )
        self._delivered()
        if self._entry.error is not None:
            raise self._entry.error
        if self._entry.result is None:
            raise LookupError(
                f"ticket {self.ticket_id} was delivered already; its result "
                f"is in the result cache under its request_hash"
            )
        return self._entry.result

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able ticket metadata (the ``GET /jobs/<id>`` body)."""
        return {
            "ticket_id": self.ticket_id,
            "client_id": self.client_id,
            "priority": self.priority,
            "coalesced": self.coalesced,
            "request_hash": self.request_hash,
            "status": self.status,
            "error": None if self._entry.error is None
            else repr(self._entry.error),
        }


def _places_on_pool(request: AlignRequest) -> bool:
    """Whether a request's ranks go to a ``pool``: a Sample-Align-D
    request that asks for it, or leaves the backend unset and is big
    enough that :func:`repro.core.driver.placement` puts it there."""
    if request.engine.lower() != "sample-align-d":
        return False
    backend = request.engine_kwargs.get("backend")
    if backend is not None:
        return str(backend).lower() == "pool"
    from repro.core.driver import placement

    return placement(request.sequences, request.n_procs).backend == "pool"


#: Queue item priority used for shutdown sentinels (after every real class).
_SENTINEL_PRIORITY = max(PRIORITIES.values()) + 1


class AlignmentGateway:
    """Bounded-admission serving frontend over an :class:`AlignmentService`.

    Parameters
    ----------
    service:
        The execution core its workers call (it owns no threads, so
        there is nothing to close); by default an
        ``AlignmentService(max_workers=n_workers)``.
    n_workers:
        Worker threads draining the admission queue; each runs its
        request's cache lookup and, on a miss, the engine on its own
        thread.  They overlap store hits, store writes and
        pool-dispatched runs with the running compute, not in-process
        computes, which run one at a time per process (see
        :class:`~repro.engine.service.AlignmentService`): a two-worker
        cold pass costs about the serial sum of its computes, not 1.45x.
    max_queue:
        Admission-queue bound; the depth at which new non-coalescing
        requests are rejected with :class:`QueueFullError`.
    rate / burst:
        Per-client token-bucket parameters (tokens/second and bucket
        capacity; burst defaults to ``max(1, 2*rate)`` and must be at
        least 1, the cost of one request).  ``rate=None`` disables rate
        limiting.
    max_tickets:
        Bound on the ticket lookup table (oldest tickets are forgotten
        first; their computations are unaffected).  A delivered ticket's
        slot keeps only its metadata (see :class:`Ticket`), so the
        results the table holds are those of tickets no client has
        read yet -- at most ``max_tickets`` of them.
    default_backend:
        Execution backend applied to Sample-Align-D requests that do
        not choose one themselves (no ``backend`` engine kwarg) -- how
        ``repro serve --backend pool`` puts every plain Sample-Align-D
        request on real cores.  Applied at
        admission, *before* hashing, so coalescing and the result cache
        key see the effective request.
    default_distance / default_tree:
        Stage defaults for engines whose registry entry takes the
        ``distance=`` / ``tree=`` specs (the guide-tree baselines and
        ``parallel-baseline``), each a registry name, a
        :class:`~repro.distance.DistanceConfig` /
        :class:`~repro.tree.TreeConfig`, or its dict form -- what runs
        and where, e.g. ``default_distance={"backend": "pool"}`` puts
        every baseline's all-pairs stage on the warm pool and
        ``{"out": "memmap"}`` bounds resident memory at genome scale.
        Folded field-wise into such a request's own spec (the
        request's fields win; distributed engines place their own
        ranks, so they never inherit the distance ``backend`` /
        ``workers``) and written back as the merged config's dict,
        pre-hash like ``default_backend``.  A gateway without stage
        defaults rewrites nothing.
    pool:
        A configured :class:`~repro.pool.WorkerPool` to serve
        ``backend="pool"`` requests from.  Whenever ``default_backend``
        or the distance default's backend is ``"pool"`` (or ``pool`` is
        passed explicitly), the gateway owns one worker pool for its
        lifetime: it constructs the pool at startup (warm workers before
        the first request), installs it as the process default so every
        engine / distance dispatch underneath lands on it, exposes its
        live counters under ``metrics()["pool"]``, and -- if it created
        the pool itself -- closes it on :meth:`close`.  Without one, the
        first request the gateway places on ``pool`` -- a Sample-Align-D
        request whose ``backend`` is ``"pool"``, or unset and big enough
        that :func:`repro.core.driver.placement` says so -- makes it
        create that pool then (unless a live process default exists
        already), with the same ownership: installed as the default
        (direct ``run_request`` solves reuse it), closed by
        :meth:`close`.  The pool keeps its workers until then; the next
        dispatch replaces one that died or stopped beating, and a
        request it was serving is retried on the fresh workers.
    """

    def __init__(
        self,
        service: Optional[AlignmentService] = None,
        *,
        n_workers: int = 4,
        max_queue: int = 256,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_tickets: int = 4096,
        default_backend: Optional[str] = None,
        default_distance: Any = None,
        default_tree: Any = None,
        pool: Optional[Any] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        validate_backend_name(default_backend, "default_backend")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be > 0 (use rate=None for unlimited)")
        if rate is None and burst is not None:
            raise ValueError("burst without rate has no effect; set rate too")
        # A request costs 1 token, so capacity below 1 would lock every
        # client out forever (low rates would otherwise default under it).
        resolved_burst = burst if burst is not None else max(1.0, (rate or 0) * 2)
        if rate is not None and resolved_burst < 1:
            raise ValueError("burst must be >= 1 (a request costs one token)")
        self._service = service or AlignmentService(max_workers=n_workers)
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue(maxsize=max_queue)
        self._order = itertools.count()  # FIFO tie-break within a priority
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Entry] = {}
        self._tickets: "OrderedDict[str, Ticket]" = OrderedDict()
        self._max_tickets = max_tickets
        self._rate = rate
        self._burst = resolved_burst
        self._default_backend = (
            None if default_backend is None else default_backend.lower()
        )
        # Only the stage defaults that say something: a gateway without
        # any rewrites nothing.
        self._stage_defaults = {
            stage: config
            for stage, config in (
                ("distance", DistanceConfig.coerce(default_distance)),
                ("tree", TreeConfig.coerce(default_tree)),
            )
            if config != type(config)()
        }
        # LRU-bounded: client_id comes off the wire, so an unbounded
        # table is a memory leak under adversarial ids.  (Per-client
        # limiting with open identities can always be dodged by minting
        # fresh ids; the bound keeps that costing the attacker churn,
        # not the server memory.)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._max_buckets = max(max_tickets, 1024)
        # Request latencies go into a bounded log-bucketed histogram:
        # O(1) per observation and O(buckets) per snapshot, versus the
        # old deque that was sorted in full on every metrics() call and
        # forgot everything older than its window.
        self._latencies = Histogram()
        self._counters = {
            "admitted": 0,
            "coalesced": 0,
            "rejected_queue_full": 0,
            "rejected_rate_limited": 0,
            "rejected_bad_request": 0,
            "completed": 0,
            "failed": 0,
        }
        self._closed = False
        # Gateway-owned worker pool: one persistent pool for the whole
        # serving lifetime whenever any default backend is "pool" (or a
        # pool was handed in).  Installed as the process default so the
        # engine/distance layers underneath dispatch onto it, and
        # warmed now so the first request finds running workers.
        self._pool: Optional[Any] = None
        self._own_pool = False
        self._prev_default_pool: Optional[Any] = None
        self._pool_lock = threading.Lock()
        distance = self._stage_defaults.get("distance")
        wants_pool = pool is not None or "pool" in {
            self._default_backend, distance and distance.backend,
        }
        if wants_pool:
            from repro.pool import WorkerPool, set_default_pool

            self._pool = pool if pool is not None else WorkerPool()
            self._own_pool = pool is None
            self._prev_default_pool = set_default_pool(self._pool)
            self._pool.warm_up()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"gateway-worker-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for t in self._workers:
            t.start()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain the queue, stop the workers, release the owned pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            # Sentinels sort after every real priority, so queued work
            # drains before the workers exit.
            self._queue.put((_SENTINEL_PRIORITY, next(self._order), None))
        for t in self._workers:
            t.join()
        if self._pool is not None:
            from repro.pool import set_default_pool

            set_default_pool(self._prev_default_pool)
            if self._own_pool:
                self._pool.close()

    def __enter__(self) -> "AlignmentGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def service(self) -> AlignmentService:
        return self._service

    @property
    def pool(self) -> Optional[Any]:
        """The gateway-owned worker pool (None unless serving ``pool``)."""
        return self._pool

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        request: AlignRequest,
        client_id: str = "default",
        priority: str = "normal",
    ) -> Ticket:
        """Admit one request; returns a waitable :class:`Ticket`.

        Raises :class:`RateLimitedError` or :class:`QueueFullError` when
        the request is refused, :class:`ValueError` when it names an
        unknown priority or an unregistered execution backend (nothing
        was enqueued in either case), and :class:`RuntimeError` after
        :meth:`close`.

        A coalesced request keeps the priority of the entry it joins; it
        consumes a rate-limit token but no queue slot.
        """
        try:
            prio = PRIORITIES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r} (one of {sorted(PRIORITIES)})"
            ) from None
        self._check_backend_names(request)
        request = self._effective_request(request)
        key = request.content_hash()
        with span(
            "gateway.admit", client_id=client_id, priority=priority
        ) as admit_span, self._lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            entry = self._inflight.get(key)
            coalesced = entry is not None
            # Queue-capacity check precedes the token debit: a 503 must
            # not also drain the client's bucket, or a polite client
            # retrying a full queue gets escalated to 429.  Safe order:
            # only workers (who never add) touch the queue without this
            # lock, so it cannot fill between here and put_nowait.
            if not coalesced and self._queue.full():
                self._counters["rejected_queue_full"] += 1
                raise QueueFullError(
                    f"admission queue full ({self._queue.maxsize})"
                )
            if self._rate is not None:
                bucket = self._buckets.get(client_id)
                if bucket is None:
                    bucket = self._buckets[client_id] = TokenBucket(
                        self._rate, self._burst
                    )
                    while len(self._buckets) > self._max_buckets:
                        self._buckets.popitem(last=False)
                self._buckets.move_to_end(client_id)
                if not bucket.try_acquire():
                    self._counters["rejected_rate_limited"] += 1
                    raise RateLimitedError(
                        f"client {client_id!r} exceeded {self._rate:g} req/s"
                    )
            if entry is None:
                entry = _Entry(key, request, prio)
                self._queue.put_nowait((prio, next(self._order), entry))
                self._inflight[key] = entry
                self._counters["admitted"] += 1
            else:
                self._counters["coalesced"] += 1
            admit_span.set(coalesced=coalesced, request_hash=key[:12])
            ticket = Ticket(
                ticket_id=uuid.uuid4().hex[:16],
                client_id=client_id,
                priority=priority,
                coalesced=coalesced,
                request_hash=key,
                _entry=entry,
                _on_delivery=self._forget_result,
            )
            self._tickets[ticket.ticket_id] = ticket
            while len(self._tickets) > self._max_tickets:
                self._tickets.popitem(last=False)
        return ticket

    def _check_backend_names(self, request: AlignRequest) -> None:
        """Refuse a request that names an unregistered execution backend
        -- as Sample-Align-D's ``backend`` engine kwarg, or inside a
        ``distance`` / ``tree`` spec of an engine that takes the stage
        (coercing the spec runs the stage config's own checks)."""
        kwargs = request.engine_kwargs
        try:
            if request.engine.lower() == "sample-align-d":
                validate_backend_name(kwargs.get("backend"))
            for stage in engine_stages(request.engine) & kwargs.keys():
                STAGE_CONFIGS[stage].coerce(kwargs[stage])
        except ValueError:
            with self._lock:
                self._counters["rejected_bad_request"] += 1
            raise

    def _effective_request(self, request: AlignRequest) -> AlignRequest:
        """Fold the gateway's defaults into a request, pre-hash, so
        coalescing and the result cache key on the *effective* request:

        - execution backend: Sample-Align-D requests with no ``backend``
          engine kwarg;
        - stage defaults: engines whose registry entry takes the stage
          get the default merged under their own ``distance`` / ``tree``
          spec (request fields win), written back in canonical dict
          form so every spelling of one spec hashes alike.
        """
        updates: Dict[str, Any] = {}
        if (
            self._default_backend is not None
            and request.engine.lower() == "sample-align-d"
            and "backend" not in request.engine_kwargs
        ):
            updates["backend"] = self._default_backend
        if self._stage_defaults:
            stages = engine_stages(request.engine)
            places_own_ranks = (
                available_engines().get(request.engine.lower())
                == "distributed"
            )
            for stage, default in self._stage_defaults.items():
                if stage not in stages:
                    continue
                if places_own_ranks and stage == "distance":
                    default = replace(default, backend=None, workers=None)
                own = type(default).coerce(request.engine_kwargs.get(stage))
                merged = own.over(default)
                if merged != type(merged)():
                    updates[stage] = merged.to_dict()
        if not updates:
            return request
        return replace(
            request,
            engine_kwargs={**request.engine_kwargs, **updates},
        )

    def run(
        self,
        request: AlignRequest,
        client_id: str = "default",
        priority: str = "normal",
        timeout: Optional[float] = None,
    ) -> AlignResult:
        """Admit and wait (the synchronous convenience path)."""
        return self.submit(request, client_id, priority).wait(timeout)

    def get_ticket(self, ticket_id: str) -> Optional[Ticket]:
        """Look a ticket up by id (``None`` when unknown or forgotten).

        Before delivery this is the client's own ticket; after, its
        result-free twin (see :class:`Ticket`).
        """
        with self._lock:
            return self._tickets.get(ticket_id)

    def _forget_result(self, ticket: Ticket) -> None:
        """Swap a delivered ticket's table slot for its result-free twin
        (a no-op once the slot has been forgotten)."""
        twin = replace(
            ticket, _entry=ticket._entry.without_result(), _on_delivery=None
        )
        with self._lock:
            if self._tickets.get(ticket.ticket_id) is ticket:
                self._tickets[ticket.ticket_id] = twin

    # -- dispatch ----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            _, _, entry = self._queue.get()
            if entry is None:  # shutdown sentinel
                self._queue.task_done()
                return
            try:
                self._pool_for(entry.request)
                with span(
                    "gateway.compute",
                    request_hash=entry.key[:12],
                    engine=entry.request.engine,
                ):
                    entry.result = self._service.run(entry.request)
            except BaseException as exc:
                entry.error = exc
            finally:
                entry.completed = time.monotonic()
                latency = entry.completed - entry.enqueued
                self._latencies.observe(latency)
                with self._lock:
                    self._inflight.pop(entry.key, None)
                    if entry.error is None:
                        self._counters["completed"] += 1
                    else:
                        self._counters["failed"] += 1
                # Out of the in-flight table no ticket can join it.
                entry.request = None
                entry.done.set()
                self._queue.task_done()
            # The tickets own the entry now: an idle worker pins nothing.
            del entry

    def _pool_for(self, request: AlignRequest) -> None:
        """Create the gateway's pool on the first request it places on
        ``pool`` (see the ``pool`` parameter)."""
        if self._pool is not None or not _places_on_pool(request):
            return
        from repro.pool import adopt_default_pool

        with self._pool_lock:
            if self._pool is None:
                pool = adopt_default_pool()
                if pool is not None:
                    self._pool, self._own_pool = pool, True

    # -- introspection -----------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """JSON-able snapshot of the serving surface (the ``/metrics`` body)."""
        with self._lock:
            counters = dict(self._counters)
            inflight = len(self._inflight)
            tickets = len(self._tickets)
            undelivered = sum(
                t._on_delivery is not None for t in self._tickets.values()
            )
        lat = self._latencies.snapshot()
        out: Dict[str, Any] = dict(counters)
        out["queue_depth"] = self._queue.qsize()
        out["inflight"] = inflight
        # The lookup table's size, and its tickets no client has been
        # handed the answer of yet (the only slots that pin a result).
        out["tickets"] = tickets
        out["tickets_undelivered"] = undelivered
        out["default_backend"] = self._default_backend
        for stage in ("distance", "tree"):
            default = self._stage_defaults.get(stage)
            out[f"default_{stage}"] = default and default.to_dict()
        out["latency"] = {
            "count": lat.count,
            "p50_s": lat.quantile(0.50),
            "p90_s": lat.quantile(0.90),
            "p95_s": lat.quantile(0.95),
            "p99_s": lat.quantile(0.99),
            "max_s": lat.vmax,
            "mean_s": lat.mean,
        }
        out["service"] = self._service.stats
        out.update(dp_kernel().describe())
        out["malloc.arena_max"] = bound_malloc_arenas()
        for name in ("threads", "pool"):
            key = f"spmd.placement.{name}"
            out[key] = registry().counter(key).value
        if self._pool is not None:
            out["pool"] = self._pool.stats()
        return out

    def latency_snapshot(self) -> HistogramSnapshot:
        """The mergeable request-latency histogram (for Prometheus
        exposition and fleet-level aggregation)."""
        return self._latencies.snapshot()
