"""Job-based alignment execution with deduplication and a pluggable cache.

:class:`AlignmentService` is the serving layer of the unified API: it
accepts single or batched :class:`~repro.engine.api.AlignRequest`\\ s,
executes them on a thread pool, and deduplicates identical requests --
both across time (a result cache keyed by the request's content hash,
i.e. sequence set + engine + config) and within a batch (a second
submission of an in-flight request attaches to the running job instead
of recomputing).  Every submission returns an :class:`AlignJob` whose
metadata records whether the result was computed or served from cache,
and how long it took.

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
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence as TSequence,
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
    """Handle plus metadata for one submitted request.

    Attributes
    ----------
    job_id:
        Monotonically increasing id within the service.
    request:
        The submitted request.
    cache_hit:
        True when the result was served from the LRU cache or attached
        to an identical in-flight job (the alignment ran at most once).
    wall_time:
        Seconds from submission to completion for this job (near zero
        for cache hits).
    """

    job_id: int
    request: AlignRequest
    cache_hit: bool = False
    error: Optional[BaseException] = None
    wall_time: Optional[float] = None
    _result: Optional[AlignResult] = field(default=None, repr=False)
    _future: Optional[Future] = field(default=None, repr=False)
    _submitted: float = field(default=0.0, repr=False)

    @property
    def done(self) -> bool:
        return self._future is None or self._future.done()

    @property
    def status(self) -> str:
        if not self.done:
            return "running"
        return "failed" if self.error is not None else "done"

    @property
    def result(self) -> Optional[AlignResult]:
        """The result if already available (non-blocking); else None."""
        if self._result is None and self.done:
            try:
                self.wait()
            except Exception:
                return None
        return self._result

    def wait(self, timeout: Optional[float] = None) -> AlignResult:
        """Block until the job finishes; re-raises the engine's error.

        A ``TimeoutError`` from ``timeout`` expiring is re-raised but not
        recorded: the job is still running, not failed.
        """
        if self._future is not None:
            try:
                self._result = self._future.result(timeout)
            except FuturesTimeoutError:
                raise
            except Exception as exc:
                self.error = exc
                if self.wall_time is None:
                    self.wall_time = time.perf_counter() - self._submitted
                raise
        if self.wall_time is None:
            self.wall_time = time.perf_counter() - self._submitted
        assert self._result is not None
        return self._result

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
    """Thread-pooled, cache-deduplicated execution of alignment jobs.

    Parameters
    ----------
    max_workers:
        Thread-pool width: the bound on requests *in flight* (default
        4).  It does not buy parallel in-process computes.  Alignment
        kernels are many small numpy calls that release the GIL poorly,
        and two of them trading it across two cores finish later than
        one thread doing both jobs (measured 1.45x the serial sum on a
        2-vCPU host), so every engine run takes the process-wide
        :data:`~repro.parcomp.token.COMPUTE_TOKEN` and in-process
        computes run **one at a time per process** -- across services
        too, because the GIL is per process.  What the extra threads do
        overlap with the running compute: engine construction, result
        store I/O (``cache.put`` happens after the token is given
        back), and runs dispatched onto worker processes
        (``backend="pool"`` parks the token while the workers compute,
        so the next in-process compute runs beside them; runs on *one*
        :class:`~repro.pool.WorkerPool` still go one at a time, which is
        that pool's own dispatch lock, not this token).  Time spent
        waiting for the token is in ``stats["compute_wait_s"]`` and, on
        a traced request, a ``service.token_wait`` span.
    cache_size:
        Capacity of the default in-memory LRU cache (0 disables
        caching).  Ignored when ``cache`` is given.
    cache:
        An explicit :class:`CacheBackend` (e.g. a disk-backed
        :class:`repro.serve.store.ResultStore`), replacing the default
        :class:`MemoryResultCache`.

    Usage::

        with AlignmentService(max_workers=4) as svc:
            jobs = svc.run_batch([req1, req2, req1])   # req1 runs once
            results = [j.wait() for j in jobs]
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
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="align-engine"
        )
        if cache is not None:
            self._cache: Optional[CacheBackend] = cache
        elif cache_size:
            self._cache = MemoryResultCache(cache_size)
        else:
            self._cache = None
        self._inflight: Dict[str, Future] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._hits = 0
        self._misses = 0
        self._computed = 0
        self._cache_put_failures = 0
        self._compute_wait_s = 0.0
        self._compute_waits = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down (outstanding jobs finish first)."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "AlignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, request: AlignRequest) -> AlignJob:
        """Enqueue one request; returns immediately with a job handle."""
        if self._closed:
            raise RuntimeError("service is closed")
        key = request.content_hash()
        job = AlignJob(job_id=next(self._ids), request=request)
        job._submitted = time.perf_counter()
        # Backend lookup happens outside the service lock: backends are
        # thread-safe and a disk-backed get must not serialize every
        # submission.  The cost is a benign race -- a request finishing
        # between this get and the in-flight check below is recomputed.
        cached = self._cache.get(key) if self._cache is not None else None
        with self._lock:
            if cached is not None:
                self._hits += 1
                job.cache_hit = True
                job._result = cached
                job.wall_time = time.perf_counter() - job._submitted
                return job
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._hits += 1
                job.cache_hit = True
                job._future = inflight
                return job
            self._misses += 1
            future = self._executor.submit(self._execute, request, key)
            self._inflight[key] = future
            job._future = future
        return job

    def run(self, request: AlignRequest) -> AlignResult:
        """Execute one request synchronously (through the cache)."""
        return self.submit(request).wait()

    def run_batch(self, requests: TSequence[AlignRequest]) -> List[AlignJob]:
        """Submit a batch and wait for all of it.

        Returns one completed job per request, **in input order**;
        duplicate requests share a single execution (every job after the
        first carries ``cache_hit=True``).  Failed jobs carry ``error``
        instead of a result and do not abort the rest of the batch.
        """
        jobs = [self.submit(r) for r in requests]
        for job in jobs:
            try:
                job.wait()
            except Exception:
                pass  # recorded on job.error; batch continues
        return jobs

    def results(self, requests: TSequence[AlignRequest]) -> List[AlignResult]:
        """Batch-run and return results in input order (raises on failure)."""
        out: List[AlignResult] = []
        for job in self.run_batch(requests):
            if job.error is not None:
                raise job.error
            assert job._result is not None
            out.append(job._result)
        return out

    # -- internals ---------------------------------------------------------

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
        try:
            engine = get_engine(request.engine, **request.engine_kwargs)
            if tracing_enabled():
                # Collect this job's spans in a per-thread buffer (teeing
                # into the process-wide one) and attach the folded
                # per-stage breakdown to the result -- it is a property
                # of the computation, so it is cached with it.
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
                # Outside the lock (thread-safe backend, possibly disk
                # I/O) and never fatal: a cache that cannot store costs
                # a future recomputation, not this job's result.
                try:
                    self._cache.put(key, result)
                except Exception:
                    with self._lock:
                        self._cache_put_failures += 1
            with self._lock:
                self._computed += 1
            return result
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters for the user-facing metrics surface.

        ``hits``/``misses`` are cache-lookup outcomes (an in-flight
        attach counts as a hit), ``served`` is an alias of ``hits``,
        ``computed`` counts engine runs that completed, ``evictions``
        comes from the backend, and ``cached``/``inflight`` are current
        occupancies.  ``compute_wait_s`` sums the seconds this
        service's requests waited for the process's compute token and
        ``compute_waits`` counts the acquisitions that had to wait.
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
                "inflight": len(self._inflight),
                "cache_put_failures": self._cache_put_failures,
                "compute_wait_s": self._compute_wait_s,
                "compute_waits": self._compute_waits,
                "cache_backend": backend_stats,
            }

    def clear_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()
