"""AlignmentService: cache semantics, batch ordering, deduplication."""

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


class TestCache:
    def test_miss_then_hit(self, req):
        with AlignmentService(max_workers=2) as svc:
            first = svc.submit(req())
            r1 = first.wait()
            second = svc.submit(req())
            r2 = second.wait()
            assert not first.cache_hit and second.cache_hit
            assert r1.alignment == r2.alignment
            assert r2 is r1  # served from cache, not recomputed
            stats = svc.stats
            assert stats["hits"] == stats["served"] == 1
            assert stats["misses"] == stats["computed"] == 1
            assert stats["cached"] == 1 and stats["inflight"] == 0
            assert stats["evictions"] == 0
            assert stats["cache_backend"]["backend"] == "memory"

    def test_different_requests_both_miss(self, req):
        with AlignmentService(max_workers=2) as svc:
            svc.run(req())
            svc.run(req(seed=1))  # seed participates in the content hash
            assert svc.stats["misses"] == 2 and svc.stats["hits"] == 0

    def test_lru_eviction(self, req, counting_engine):
        with AlignmentService(max_workers=1, cache_size=1) as svc:
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
        with AlignmentService(max_workers=1, cache=backend) as svc:
            svc.run(req(engine="counting"))
        # A second service sharing the backend serves without recomputing.
        with AlignmentService(max_workers=1, cache=backend) as svc:
            job = svc.submit(req(engine="counting"))
            job.wait()
            assert job.cache_hit and counting_engine.calls == 1

    def test_cache_disabled(self, req, counting_engine):
        with AlignmentService(max_workers=1, cache_size=0) as svc:
            svc.run(req(engine="counting"))
            svc.run(req(engine="counting"))
            assert counting_engine.calls == 2

    def test_clear_cache(self, req):
        with AlignmentService(max_workers=1) as svc:
            svc.run(req())
            svc.clear_cache()
            job = svc.submit(req())
            job.wait()
            assert not job.cache_hit


class TestBatch:
    def test_duplicate_requests_run_once(self, req, counting_engine):
        with AlignmentService(max_workers=4) as svc:
            r = req(engine="counting")
            jobs = svc.run_batch([r, r, r, r])
            assert counting_engine.calls == 1
            hits = [j.cache_hit for j in jobs]
            assert hits[0] is False and all(hits[1:])
            results = [j.result for j in jobs]
            assert all(res.alignment == results[0].alignment for res in results)

    def test_inflight_dedup(self, req, counting_engine):
        """A duplicate submitted while the first is running attaches to it."""
        counting_engine.release.clear()  # hold the engine mid-run
        with AlignmentService(max_workers=2) as svc:
            r = req(engine="counting")
            j1 = svc.submit(r)
            assert counting_engine.started.wait(timeout=10)
            j2 = svc.submit(r)  # first is in flight, not yet cached
            assert j2.cache_hit
            counting_engine.release.set()
            assert j1.wait().alignment == j2.wait().alignment
            assert counting_engine.calls == 1

    def test_order_preserved(self, req, tiny_seqs):
        reqs = [
            req(engine="center-star"),
            AlignRequest(tuple(tiny_seqs)[:3], engine="center-star"),
            req(engine="sample-align-d", n_procs=2, seed=0),
        ]
        with AlignmentService(max_workers=3) as svc:
            jobs = svc.run_batch(reqs)
            assert [j.request.engine for j in jobs] == [
                "center-star", "center-star", "sample-align-d"
            ]
            assert jobs[1].result.alignment.n_rows == 3
            assert jobs[2].result.engine == "sample-align-d"
            results = svc.results(reqs)
            assert [r.alignment.n_rows for r in results] == [5, 3, 5]

    def test_job_metadata(self, req):
        with AlignmentService(max_workers=1) as svc:
            jobs = svc.run_batch([req(), req()])
            meta = [j.metadata() for j in jobs]
            assert meta[0]["cache_hit"] is False
            assert meta[1]["cache_hit"] is True
            assert meta[0]["status"] == meta[1]["status"] == "done"
            assert meta[0]["request_hash"] == meta[1]["request_hash"]
            assert all(m["wall_time"] is not None for m in meta)


class TestErrors:
    def test_engine_failure_recorded_not_fatal(self, req):
        with AlignmentService(max_workers=2) as svc:
            bad = req(engine="does-not-exist")
            good = req()
            jobs = svc.run_batch([bad, good])
            assert jobs[0].status == "failed"
            assert isinstance(jobs[0].error, KeyError)
            assert jobs[1].status == "done"
            with pytest.raises(KeyError):
                svc.results([bad])

    def test_wait_reraises(self, req):
        with AlignmentService(max_workers=1) as svc:
            job = svc.submit(req(engine="does-not-exist"))
            with pytest.raises(KeyError, match="unknown engine"):
                job.wait()

    def test_failed_run_not_cached(self, req, counting_engine):
        with AlignmentService(max_workers=1) as svc:
            with pytest.raises(KeyError):
                svc.run(req(engine="does-not-exist"))
            assert svc.stats["cached"] == 0 and svc.stats["inflight"] == 0

    def test_wait_timeout_does_not_poison_job(self, req, counting_engine):
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        counting_engine.release.clear()  # hold the engine mid-run
        with AlignmentService(max_workers=1) as svc:
            job = svc.submit(req(engine="counting"))
            with pytest.raises(FuturesTimeoutError):
                job.wait(timeout=0.01)
            assert job.error is None and job.status == "running"
            counting_engine.release.set()
            result = job.wait()
            assert job.status == "done" and result is not None

    def test_closed_service_rejects(self, req):
        svc = AlignmentService(max_workers=1)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(req())


class TestLifecycle:
    def test_close_drains_inflight_jobs(self, req, counting_engine):
        """close() blocks until running jobs finish; their results remain."""
        counting_engine.release.clear()  # hold the engine mid-run
        svc = AlignmentService(max_workers=1)
        job = svc.submit(req(engine="counting"))
        assert counting_engine.started.wait(timeout=10)
        threading.Timer(0.05, counting_engine.release.set).start()
        svc.close()  # must wait for the in-flight job, not abandon it
        assert job.done and job.status == "done"
        assert job.wait().alignment.n_rows == 5
        assert counting_engine.calls == 1

    def test_concurrent_same_request_coalesces(self, req, counting_engine):
        """Two threads submitting the same request share one computation."""
        counting_engine.release.clear()
        jobs = []
        errors = []
        barrier = threading.Barrier(2)

        with AlignmentService(max_workers=4) as svc:
            r = req(engine="counting")

            def submit():
                barrier.wait(timeout=10)
                try:
                    jobs.append(svc.submit(r))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for t in threads:
                t.start()
            assert counting_engine.started.wait(timeout=10)
            # Hold the engine until BOTH submissions are in: the second
            # must arrive while the first is in flight (that in-flight
            # window is what coalescing guarantees; a submission after
            # completion may legitimately recompute on a cold cache).
            deadline = time.monotonic() + 10
            while len(jobs) + len(errors) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            counting_engine.release.set()
            for t in threads:
                t.join(timeout=10)
            assert not errors and len(jobs) == 2
            results = [j.wait() for j in jobs]
            assert counting_engine.calls == 1
            assert sum(j.cache_hit for j in jobs) == 1
            assert results[0].alignment == results[1].alignment


class TestMaxWorkers:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_below_one_is_refused(self, bad):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            AlignmentService(max_workers=bad)

    def test_none_is_the_default_width(self, req):
        with AlignmentService(max_workers=None) as svc:
            assert svc._executor._max_workers == 4
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
        """Distinct requests never meet inside an engine -- nor across
        two services: the token is the process's, not a service's."""
        services = [AlignmentService(max_workers=2) for _ in range(n_services)]
        try:
            jobs = [
                services[seed % n_services].submit(
                    req(engine="overlap", seed=seed)
                )
                for seed in (1, 2, 3, 4)
            ]
            for job in jobs:
                assert job.wait(timeout=30).alignment.n_rows == 5
        finally:
            for svc in services:
                svc.close()
        stats = [svc.stats for svc in services]
        assert overlap_engine.peak == 1
        assert sum(s["computed"] for s in stats) == 4
        assert sum(s["compute_waits"] for s in stats) >= 1
        assert sum(s["compute_wait_s"] for s in stats) > 0

    def test_uncontended_run_counts_no_wait(
        self, req, overlap_engine, compute_token
    ):
        with AlignmentService(max_workers=2) as svc:
            svc.submit(req(engine="overlap")).wait(timeout=30)
            assert svc.stats["compute_waits"] == 0
            assert svc.stats["compute_wait_s"] == 0.0

    def test_failing_engine_releases_the_token(
        self, req, overlap_engine, compute_token
    ):
        with AlignmentService(max_workers=2) as svc:
            bad = svc.submit(req(engine="overlap", seed=13))
            with pytest.raises(RuntimeError, match="on purpose"):
                bad.wait(timeout=30)
            assert not compute_token._lock.locked()
            good = svc.submit(req(engine="overlap", seed=1))
            assert good.wait(timeout=30).alignment.n_rows == 5

    def test_hits_and_attaches_do_not_wait_for_the_token(
        self, req, counting_engine, compute_token
    ):
        with AlignmentService(max_workers=2) as svc:
            cached = req(engine="counting", seed=1)
            svc.run(cached)
            counting_engine.started.clear()
            counting_engine.release.clear()  # hold the next run mid-engine
            blocked = req(engine="counting", seed=2)
            first = svc.submit(blocked)
            assert counting_engine.started.wait(timeout=10)
            assert compute_token._lock.locked()  # ... with the token held
            try:
                hit = svc.submit(cached)
                assert hit.cache_hit and hit.done
                assert hit.wait(timeout=1).alignment.n_rows == 5
                attach = svc.submit(blocked)
                assert attach.cache_hit and not attach.done
            finally:
                counting_engine.release.set()
            assert first.wait(timeout=30) is attach.wait(timeout=30)
            assert counting_engine.calls == 2
            assert svc.stats["compute_waits"] == 0

    def test_close_drains_the_computing_and_the_waiting_job(
        self, req, counting_engine, compute_token
    ):
        counting_engine.release.clear()
        svc = AlignmentService(max_workers=2)
        computing = svc.submit(req(engine="counting", seed=1))
        assert counting_engine.started.wait(timeout=10)
        waiting = svc.submit(req(engine="counting", seed=2))
        # The second job's thread is (or is about to be) parked at the
        # token; only the first has entered the engine.
        assert counting_engine.calls == 1
        threading.Timer(0.3, counting_engine.release.set).start()
        svc.close()
        assert computing.done and computing.status == "done"
        assert waiting.done and waiting.status == "done"
        assert counting_engine.calls == 2
        assert svc.stats["compute_waits"] == 1

    def test_stress_many_threads_never_overlap(
        self, req, overlap_engine, compute_token
    ):
        """More service threads than cores, a short switch interval: the
        engine still sees one thread at a time and every job completes."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AlignmentService(max_workers=8, cache_size=0) as svc:
                jobs = [
                    svc.submit(req(engine="overlap", seed=100 + i))
                    for i in range(16)
                ]
                for job in jobs:
                    job.wait(timeout=60)
                assert svc.stats["computed"] == 16
        finally:
            sys.setswitchinterval(interval)
        assert overlap_engine.peak == 1
