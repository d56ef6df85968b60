"""AlignmentService: cache semantics, batch ordering, deduplication, and
the compute token, all on the caller's thread."""

import threading
import time

import pytest

from repro.engine import (
    AlignmentService,
    AlignRequest,
    register_engine,
    unregister_engine,
)
from repro.engine.api import AlignResult
from repro.seq.alignment import Alignment


@pytest.fixture()
def req(tiny_seqs):
    def make(engine="center-star", **kw):
        return AlignRequest(sequences=tuple(tiny_seqs), engine=engine, **kw)

    return make


class CountingEngine:
    """Deterministic toy engine that counts its executions."""

    name = "counting"
    kind = "sequential"
    calls = 0
    lock = threading.Lock()
    started = threading.Event()
    release = threading.Event()

    def run(self, request):
        with CountingEngine.lock:
            CountingEngine.calls += 1
        CountingEngine.started.set()
        CountingEngine.release.wait(timeout=10)
        aln = Alignment.from_rows(
            [s.id for s in request.sequences],
            [s.residues.ljust(40, "-")[:40] for s in request.sequences],
        )
        return AlignResult(
            alignment=aln, engine=self.name, sp=0.0, wall_time=0.0,
            request_hash=request.content_hash(),
        )


@pytest.fixture()
def counting_engine():
    CountingEngine.calls = 0
    CountingEngine.started = threading.Event()
    CountingEngine.release = threading.Event()
    CountingEngine.release.set()  # default: do not block
    register_engine("counting", lambda **kw: CountingEngine(), overwrite=True)
    yield CountingEngine
    unregister_engine("counting")


def _run_in_threads(calls):
    """``svc.run(request)`` for each ``(svc, request)`` pair, each on its
    own caller thread, started together; results in input order."""
    results = [None] * len(calls)
    barrier = threading.Barrier(len(calls))

    def call(i, svc, request):
        barrier.wait(timeout=10)
        results[i] = svc.run(request)

    threads = [
        threading.Thread(target=call, args=(i, *pair))
        for i, pair in enumerate(calls)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return results


class TestCache:
    def test_miss_then_hit(self, req):
        svc = AlignmentService(max_workers=2)
        (first,) = svc.run_batch([req()])
        (second,) = svc.run_batch([req()])
        assert not first.cache_hit and second.cache_hit
        assert first.result.alignment == second.result.alignment
        assert second.result is first.result  # served, not recomputed
        stats = svc.stats
        assert stats["hits"] == stats["served"] == 1
        assert stats["misses"] == stats["computed"] == 1
        assert stats["cached"] == 1 and stats["inflight"] == 0
        assert stats["evictions"] == 0
        assert stats["cache_backend"]["backend"] == "memory"

    def test_different_requests_both_miss(self, req):
        svc = AlignmentService(max_workers=2)
        svc.run(req())
        svc.run(req(seed=1))  # seed participates in the content hash
        assert svc.stats["misses"] == 2 and svc.stats["hits"] == 0

    def test_lru_eviction(self, req, counting_engine):
        svc = AlignmentService(max_workers=1, cache_size=1)
        a, b = req(engine="counting"), req(engine="counting", seed=1)
        svc.run(a)
        svc.run(b)  # evicts a
        svc.run(a)  # recompute
        assert counting_engine.calls == 3
        assert svc.stats["cached"] == 1
        assert svc.stats["evictions"] == 2

    def test_pluggable_backend(self, req, counting_engine):
        """An explicit CacheBackend replaces the default memory LRU."""
        from repro.engine.service import CacheBackend, MemoryResultCache

        backend = MemoryResultCache(capacity=4)
        assert isinstance(backend, CacheBackend)
        AlignmentService(max_workers=1, cache=backend).run(
            req(engine="counting")
        )
        # A second service sharing the backend serves without recomputing.
        svc = AlignmentService(max_workers=1, cache=backend)
        (job,) = svc.run_batch([req(engine="counting")])
        assert job.cache_hit and counting_engine.calls == 1

    def test_cache_disabled(self, req, counting_engine):
        svc = AlignmentService(max_workers=1, cache_size=0)
        svc.run(req(engine="counting"))
        svc.run(req(engine="counting"))
        assert counting_engine.calls == 2

    def test_clear_cache(self, req):
        svc = AlignmentService(max_workers=1)
        svc.run(req())
        svc.clear_cache()
        (job,) = svc.run_batch([req()])
        assert not job.cache_hit


class TestBatch:
    @pytest.mark.parametrize("cache_size", [128, 0])
    def test_duplicate_requests_run_once(
        self, req, counting_engine, cache_size
    ):
        """With or without a cache: the batch shares one execution."""
        svc = AlignmentService(max_workers=4, cache_size=cache_size)
        r = req(engine="counting")
        jobs = svc.run_batch([r, r, r, r])
        assert counting_engine.calls == 1
        hits = [j.cache_hit for j in jobs]
        assert hits[0] is False and all(hits[1:])
        results = [j.result for j in jobs]
        assert all(res.alignment == results[0].alignment for res in results)
        assert svc.stats["hits"] == 3 and svc.stats["misses"] == 1

    def test_order_preserved(self, req, tiny_seqs):
        reqs = [
            req(engine="center-star"),
            AlignRequest(tuple(tiny_seqs)[:3], engine="center-star"),
            req(engine="sample-align-d", n_procs=2, seed=0),
        ]
        svc = AlignmentService(max_workers=3)
        jobs = svc.run_batch(reqs)
        assert [j.request.engine for j in jobs] == [
            "center-star", "center-star", "sample-align-d"
        ]
        assert [j.job_id for j in jobs] == [1, 2, 3]
        assert jobs[1].result.alignment.n_rows == 3
        assert jobs[2].result.engine == "sample-align-d"
        results = svc.results(reqs)
        assert [r.alignment.n_rows for r in results] == [5, 3, 5]

    def test_job_metadata(self, req):
        svc = AlignmentService(max_workers=1)
        jobs = svc.run_batch([req(), req()])
        meta = [j.metadata() for j in jobs]
        assert meta[0]["cache_hit"] is False
        assert meta[1]["cache_hit"] is True
        assert meta[0]["status"] == meta[1]["status"] == "done"
        assert meta[0]["request_hash"] == meta[1]["request_hash"]
        assert all(m["wall_time"] is not None for m in meta)


class TestErrors:
    def test_engine_failure_recorded_not_fatal(self, req):
        svc = AlignmentService(max_workers=2)
        bad = req(engine="does-not-exist")
        good = req()
        jobs = svc.run_batch([bad, good])
        assert jobs[0].status == "failed"
        assert isinstance(jobs[0].error, KeyError)
        assert jobs[0].result is None
        assert jobs[1].status == "done"
        assert "error" in jobs[0].metadata()
        with pytest.raises(KeyError):
            svc.results([bad])

    def test_duplicate_of_a_failed_request_shares_the_error(self, req):
        svc = AlignmentService(max_workers=1)
        bad = req(engine="does-not-exist")
        first, second = svc.run_batch([bad, bad])
        assert first.error is second.error
        assert second.cache_hit and second.status == "failed"
        assert svc.stats["misses"] == 1

    def test_run_reraises(self, req):
        svc = AlignmentService(max_workers=1)
        with pytest.raises(KeyError, match="unknown engine"):
            svc.run(req(engine="does-not-exist"))

    def test_failed_run_not_cached(self, req, counting_engine):
        svc = AlignmentService(max_workers=1)
        with pytest.raises(KeyError):
            svc.run(req(engine="does-not-exist"))
        assert svc.stats["cached"] == 0 and svc.stats["inflight"] == 0


class TestMaxWorkers:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_below_one_is_refused(self, bad):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            AlignmentService(max_workers=bad)

    def test_none_is_the_default_width(self, req):
        svc = AlignmentService(max_workers=None)
        assert svc._slots._initial_value == 4
        assert svc.run(req()).alignment.n_rows == 5


# -- the compute token --------------------------------------------------------


class OverlapEngine:
    """Toy engine that records how many threads were inside ``run`` at
    once, and raises on requests seeded 13."""

    name = "overlap"
    kind = "sequential"
    lock = threading.Lock()
    inside = 0
    peak = 0

    def run(self, request):
        cls = OverlapEngine
        with cls.lock:
            cls.inside += 1
            cls.peak = max(cls.peak, cls.inside)
        try:
            time.sleep(0.05)
            if request.seed == 13:
                raise RuntimeError("engine failed on purpose")
            aln = Alignment.from_rows(
                [s.id for s in request.sequences],
                [s.residues.ljust(40, "-")[:40] for s in request.sequences],
            )
            return AlignResult(
                alignment=aln, engine=self.name, sp=0.0, wall_time=0.0,
                request_hash=request.content_hash(),
            )
        finally:
            with cls.lock:
                cls.inside -= 1


@pytest.fixture()
def overlap_engine():
    OverlapEngine.inside = OverlapEngine.peak = 0
    register_engine("overlap", lambda **kw: OverlapEngine(), overwrite=True)
    yield OverlapEngine
    unregister_engine("overlap")


class TestComputeToken:
    @pytest.mark.parametrize("n_services", [1, 2])
    def test_one_compute_at_a_time(
        self, req, overlap_engine, compute_token, n_services
    ):
        """Distinct requests from four caller threads never meet inside
        an engine -- nor across two services: the token is the
        process's, not a service's."""
        services = [AlignmentService(max_workers=2) for _ in range(n_services)]
        results = _run_in_threads([
            (services[seed % n_services], req(engine="overlap", seed=seed))
            for seed in (1, 2, 3, 4)
        ])
        assert all(r.alignment.n_rows == 5 for r in results)
        stats = [svc.stats for svc in services]
        assert overlap_engine.peak == 1
        assert sum(s["computed"] for s in stats) == 4
        assert sum(s["compute_waits"] for s in stats) >= 1
        assert sum(s["compute_wait_s"] for s in stats) > 0

    def test_uncontended_run_counts_no_wait(
        self, req, overlap_engine, compute_token
    ):
        svc = AlignmentService(max_workers=2)
        svc.run(req(engine="overlap"))
        assert svc.stats["compute_waits"] == 0
        assert svc.stats["compute_wait_s"] == 0.0

    def test_failing_engine_releases_the_token(
        self, req, overlap_engine, compute_token
    ):
        svc = AlignmentService(max_workers=2)
        with pytest.raises(RuntimeError, match="on purpose"):
            svc.run(req(engine="overlap", seed=13))
        assert not compute_token._lock.locked()
        assert svc.stats["inflight"] == 0
        assert svc.run(req(engine="overlap", seed=1)).alignment.n_rows == 5

    def test_hits_do_not_wait_for_the_token(
        self, req, counting_engine, compute_token
    ):
        svc = AlignmentService(max_workers=2)
        cached = req(engine="counting", seed=1)
        svc.run(cached)
        counting_engine.started.clear()
        counting_engine.release.clear()  # hold the next run mid-engine
        computing = threading.Thread(
            target=svc.run, args=(req(engine="counting", seed=2),)
        )
        computing.start()
        try:
            assert counting_engine.started.wait(timeout=10)
            assert compute_token._lock.locked()  # ... with the token held
            (hit,) = svc.run_batch([cached])
            assert hit.cache_hit and hit.result.alignment.n_rows == 5
        finally:
            counting_engine.release.set()
            computing.join(timeout=30)
        assert counting_engine.calls == 2
        assert svc.stats["compute_waits"] == 0

    def test_a_miss_waits_for_the_computing_one(
        self, req, counting_engine, compute_token
    ):
        """Two callers, two distinct misses: the second waits for the
        token while the first computes, and the wait is counted."""
        counting_engine.release.clear()
        svc = AlignmentService(max_workers=2)
        first = threading.Thread(
            target=svc.run, args=(req(engine="counting", seed=1),)
        )
        first.start()
        assert counting_engine.started.wait(timeout=10)
        second = threading.Thread(
            target=svc.run, args=(req(engine="counting", seed=2),)
        )
        second.start()
        # The second caller is (or is about to be) parked at the token;
        # only the first has entered the engine.
        assert counting_engine.calls == 1
        threading.Timer(0.3, counting_engine.release.set).start()
        first.join(timeout=30)
        second.join(timeout=30)
        assert counting_engine.calls == 2
        assert svc.stats["computed"] == 2
        assert svc.stats["compute_waits"] == 1

    def test_stress_many_threads_never_overlap(
        self, req, overlap_engine, compute_token
    ):
        """More caller threads than cores, a short switch interval: the
        engine still sees one thread at a time and every request
        completes."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            svc = AlignmentService(max_workers=8, cache_size=0)
            _run_in_threads(
                [(svc, req(engine="overlap", seed=100 + i)) for i in range(16)]
            )
            assert svc.stats["computed"] == 16
        finally:
            sys.setswitchinterval(interval)
        assert overlap_engine.peak == 1
