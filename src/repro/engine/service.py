"""Cached alignment execution on the caller's thread.

:class:`AlignmentService` answers single or batched
:class:`~repro.engine.api.AlignRequest`\\ s on the thread that asks:
from a result cache keyed by the request's content hash (sequence set +
engine + config), or on a miss by running the engine.  It owns no
threads; queueing, priorities and coalescing of concurrent identical
requests belong to the one scheduler above it,
:class:`repro.serve.AlignmentGateway`.  A batch shares one execution
among its duplicates and returns an :class:`AlignJob` per request.

The result cache is a pluggable :class:`CacheBackend`: the default is
the process-local :class:`MemoryResultCache` (an LRU bounded by entry
count), and :class:`repro.serve.store.ResultStore` drops in a disk-backed
content-addressed store so results survive process restarts.

The engines themselves are deterministic for a fixed request (the
:class:`~repro.engine.api.Aligner` contract), which is what makes result
reuse sound.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence as TSequence,
    Tuple,
    runtime_checkable,
)

from repro.engine.api import AlignRequest, AlignResult
from repro.engine.registry import get_engine
from repro.obs.tracing import collect, span, stage_breakdown, tracing_enabled
from repro.parcomp.token import COMPUTE_TOKEN

__all__ = [
    "AlignJob",
    "AlignmentService",
    "CacheBackend",
    "MemoryResultCache",
    "TieredResultCache",
]


@runtime_checkable
class CacheBackend(Protocol):
    """What :class:`AlignmentService` needs from a result cache.

    Keys are :meth:`AlignRequest.content_hash` digests, so any two
    processes agree on what a key means -- which is what makes shared
    backends (e.g. a disk store) sound.  Implementations must be
    thread-safe; ``get`` returns ``None`` on a miss and is expected to
    refresh the entry's recency when the backend evicts.
    """

    def get(self, key: str) -> Optional[AlignResult]:
        """Return the cached result for ``key``, or ``None``."""
        ...

    def put(self, key: str, result: AlignResult) -> None:
        """Store ``result`` under ``key`` (evicting as needed)."""
        ...

    def clear(self) -> None:
        """Drop every entry."""
        ...

    def __len__(self) -> int:
        """Number of currently cached entries."""
        ...

    def stats(self) -> Dict[str, Any]:
        """JSON-able backend counters (entries, evictions, ...)."""
        ...


class MemoryResultCache:
    """The default backend: a thread-safe in-process LRU, bounded by count."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[str, AlignResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._evictions = 0

    def get(self, key: str) -> Optional[AlignResult]:
        with self._lock:
            result = self._data.get(key)
            if result is not None:
                self._data.move_to_end(key)
            return result

    def put(self, key: str, result: AlignResult) -> None:
        with self._lock:
            self._data[key] = result
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": "memory",
                "entries": len(self._data),
                "capacity": self.capacity,
                "evictions": self._evictions,
            }


class TieredResultCache:
    """Two-level backend: a fast front over a durable back.

    Typical composition: a small :class:`MemoryResultCache` in front of
    a disk-backed :class:`repro.serve.store.ResultStore`, so repeat hits
    on hot keys skip the disk read/parse entirely while results still
    survive restarts.  Gets fall through to the back and promote the hit
    into the front; puts write through to both.
    """

    def __init__(self, front: CacheBackend, back: CacheBackend) -> None:
        self.front = front
        self.back = back

    def get(self, key: str) -> Optional[AlignResult]:
        result = self.front.get(key)
        if result is not None:
            return result
        result = self.back.get(key)
        if result is not None:
            self.front.put(key, result)  # promote the hot key
        return result

    def put(self, key: str, result: AlignResult) -> None:
        self.front.put(key, result)
        self.back.put(key, result)

    def clear(self) -> None:
        self.front.clear()
        self.back.clear()

    def __len__(self) -> int:
        # The durable tier is the authority; the front is a subset.
        return len(self.back)

    def stats(self) -> Dict[str, Any]:
        front, back = self.front.stats(), self.back.stats()
        return {
            "backend": "tiered",
            "entries": len(self.back),
            "evictions": back.get("evictions", 0),
            "front": front,
            "back": back,
        }


@dataclass
class AlignJob:
    """The finished record of one request in a batch: its ``result``, or
    the ``error`` its run raised; ``cache_hit`` when it was served from
    the cache or shared the run of an identical request earlier in the
    batch; ``wall_time``, seconds from its start to its answer (near
    zero for a hit); ``job_id``, increasing within the service."""

    job_id: int
    request: AlignRequest
    cache_hit: bool = False
    error: Optional[BaseException] = None
    wall_time: Optional[float] = None
    result: Optional[AlignResult] = None

    @property
    def status(self) -> str:
        return "failed" if self.error is not None else "done"

    def metadata(self) -> Dict[str, Any]:
        """JSON-able per-job record (id, status, cache hit, timing)."""
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "engine": self.request.engine,
            "request_hash": self.request.content_hash(),
            "status": self.status,
            "cache_hit": self.cache_hit,
            "wall_time": self.wall_time,
        }
        if self.error is not None:
            out["error"] = repr(self.error)
        return out


class AlignmentService:
    """Cache-deduplicated execution of alignment requests on the
    caller's thread.

    Parameters
    ----------
    max_workers:
        The bound on requests computing at once (default 4): a miss
        holds one of ``max_workers`` slots from building its engine
        through the cache put; a cache hit never waits for one.  It does
        not buy parallel in-process computes: every engine run holds the
        process-wide :data:`~repro.parcomp.token.COMPUTE_TOKEN` (see
        :mod:`repro.parcomp.token` for why), so they run **one at a time
        per process**, across services too.  What the other slots
        overlap with the running compute: engine construction, result
        store I/O (``cache.put`` happens after the token is given back),
        and ``backend="pool"`` runs, which park the token while the
        worker processes compute.  Time spent waiting for the token is
        in ``stats["compute_wait_s"]`` and, on a traced request, a
        ``service.token_wait`` span.
    cache_size:
        Capacity of the default in-memory LRU cache (0 disables
        caching).  Ignored when ``cache`` is given.
    cache:
        An explicit :class:`CacheBackend` (e.g. a disk-backed
        :class:`repro.serve.store.ResultStore`), replacing the default
        :class:`MemoryResultCache`.

    Usage::

        svc = AlignmentService()
        jobs = svc.run_batch([req1, req2, req1])   # req1 runs once
        results = [j.result for j in jobs]
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_size: int = 128,
        cache: Optional[CacheBackend] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if max_workers is None:
            max_workers = 4
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._slots = threading.BoundedSemaphore(max_workers)
        if cache is not None:
            self._cache: Optional[CacheBackend] = cache
        elif cache_size:
            self._cache = MemoryResultCache(cache_size)
        else:
            self._cache = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._hits = 0
        self._misses = 0
        self._computed = 0
        self._computing = 0
        self._cache_put_failures = 0
        self._compute_wait_s = 0.0
        self._compute_waits = 0

    # -- execution ---------------------------------------------------------

    def run(self, request: AlignRequest) -> AlignResult:
        """Answer one request on the calling thread (through the cache);
        re-raises the engine's error."""
        return self._serve(request)[0]

    def run_batch(self, requests: TSequence[AlignRequest]) -> List[AlignJob]:
        """Run a batch in order on the calling thread.

        Returns one finished job per request, **in input order**;
        duplicate requests share a single execution (every job after the
        first carries ``cache_hit=True``).  Failed jobs carry ``error``
        instead of a result and do not abort the rest of the batch.
        """
        jobs: List[AlignJob] = []
        first: Dict[str, AlignJob] = {}
        for request in requests:
            t0 = time.perf_counter()
            job = AlignJob(job_id=next(self._ids), request=request)
            earlier = first.setdefault(request.content_hash(), job)
            if earlier is not job:  # a duplicate shares the earlier run
                with self._lock:
                    self._hits += 1
                job.cache_hit = True
                job.result, job.error = earlier.result, earlier.error
            else:
                try:
                    job.result, job.cache_hit = self._serve(request)
                except Exception as exc:
                    job.error = exc
            job.wall_time = time.perf_counter() - t0
            jobs.append(job)
        return jobs

    def results(self, requests: TSequence[AlignRequest]) -> List[AlignResult]:
        """Batch-run and return results in input order (raises on failure)."""
        jobs = self.run_batch(requests)
        for job in jobs:
            if job.error is not None:
                raise job.error
        return [job.result for job in jobs]

    # -- internals ---------------------------------------------------------

    def _serve(self, request: AlignRequest) -> Tuple[AlignResult, bool]:
        """``(result, cache_hit)``: the cached result, or a fresh run."""
        key = request.content_hash()
        # Outside the lock: a thread-safe disk get must not serialize.
        cached = self._cache.get(key) if self._cache is not None else None
        with self._lock:
            if cached is not None:
                self._hits += 1
                return cached, True
            self._misses += 1
        with self._slots:  # one of max_workers, counted in inflight
            with self._lock:
                self._computing += 1
            try:
                return self._execute(request, key), False
            finally:
                with self._lock:
                    self._computing -= 1

    @contextmanager
    def _compute_token(self) -> Iterator[None]:
        """Hold the process's compute token for the body -- exactly the
        ``engine.run`` call -- and account for the wait to get it."""
        with span("service.token_wait"):
            waited = COMPUTE_TOKEN.acquire()
        try:
            if waited:
                with self._lock:
                    self._compute_wait_s += waited
                    self._compute_waits += 1
            yield
        finally:
            COMPUTE_TOKEN.release()

    def _execute(self, request: AlignRequest, key: str) -> AlignResult:
        engine = get_engine(request.engine, **request.engine_kwargs)
        if tracing_enabled():
            # Collect this job's spans in a per-thread buffer (teeing
            # into the caller's sink) and attach the folded per-stage
            # breakdown to the result -- it is a property of the
            # computation, so it is cached with it.
            with collect() as trace_buf, span(
                "service.execute",
                engine=request.engine,
                n_seqs=len(request.sequences),
                request_hash=key[:12],
            ), self._compute_token():
                result = engine.run(request)
            result.diagnostics = {
                **result.diagnostics,
                "stage_breakdown": stage_breakdown(trace_buf.records()),
            }
        else:
            with self._compute_token():
                result = engine.run(request)
        if self._cache is not None:
            # Outside the lock (thread-safe backend, possibly disk I/O)
            # and never fatal: a cache that cannot store costs a future
            # recomputation, not this job's result.
            try:
                self._cache.put(key, result)
            except Exception:
                with self._lock:
                    self._cache_put_failures += 1
        with self._lock:
            self._computed += 1
        return result

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters for the user-facing metrics surface.

        ``hits``/``misses`` are cache-lookup outcomes (a duplicate
        sharing an earlier run in its batch is a hit), ``served`` is an
        alias of ``hits``, ``computed`` counts engine runs that
        completed, ``evictions`` comes from the backend, ``cached`` is
        the cache's occupancy and ``inflight`` the requests computing
        right now.  ``compute_wait_s`` / ``compute_waits`` sum the
        seconds spent waiting for the compute token and count the waits.
        ``cache_backend`` carries the backend's own counters (``None``
        when caching is disabled).
        """
        backend_stats: Optional[Dict[str, Any]] = None
        if self._cache is not None:
            backend_stats = self._cache.stats()
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "served": self._hits,
                "computed": self._computed,
                "evictions": (backend_stats or {}).get("evictions", 0),
                "cached": len(self._cache) if self._cache is not None else 0,
                "inflight": self._computing,
                "cache_put_failures": self._cache_put_failures,
                "compute_wait_s": self._compute_wait_s,
                "compute_waits": self._compute_waits,
                "cache_backend": backend_stats,
            }

    def clear_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()
