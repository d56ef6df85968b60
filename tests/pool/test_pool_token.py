"""The compute token and the pool: a request that waits for worker
processes parks the token, so in-process computes and runs on other
pools overlap it; a caller that does not hold the token never touches
it.  (Two runs on *one* ``WorkerPool`` go one after the other whatever
the token does: the pool's dispatch lock puts rank r on slot r.)
"""

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
from repro.pool import PoolBackend, WorkerPool
from repro.seq.alignment import Alignment


def _sleeping_rank(comm, seconds):
    """Sleeps in the worker: the dispatching thread only waits."""
    time.sleep(seconds)
    return comm.rank


class PoolSleepEngine:
    """An engine whose whole run is one two-rank dispatch onto its pool;
    the request's ``seed`` is the tenths of a second each rank sleeps."""

    name = "pool-sleep"
    kind = "sequential"

    def __init__(self, pool):
        self.backend = PoolBackend(pool)

    def run(self, request):
        spmd = self.backend.run(2, _sleeping_rank, args=(request.seed / 10,))
        assert spmd.results == [0, 1]
        aln = Alignment.from_rows(
            [s.id for s in request.sequences],
            [s.residues.ljust(40, "-")[:40] for s in request.sequences],
        )
        return AlignResult(
            alignment=aln, engine=self.name, sp=0.0, wall_time=0.0,
            request_hash=request.content_hash(),
        )


@pytest.fixture()
def pools():
    """Two warm two-slot pools; ``engine_kwargs={"on": i}`` picks one."""
    with WorkerPool(max_workers=2) as a, WorkerPool(max_workers=2) as b:
        a.warm_up(2)
        b.warm_up(2)
        register_engine(
            "pool-sleep",
            lambda on=0: PoolSleepEngine((a, b)[on]),
            overwrite=True,
        )
        yield a, b
        unregister_engine("pool-sleep")


@pytest.fixture()
def req(tiny_seqs):
    def make(engine, **kw):
        return AlignRequest(sequences=tuple(tiny_seqs), engine=engine, **kw)

    return make


class _Caller(threading.Thread):
    """Runs ``fn(*args)`` on a caller thread of its own, started at once;
    after ``join`` it holds the ``result`` and the seconds from its
    start to the answer (``done_after``)."""

    def __init__(self, fn, *args):
        super().__init__()
        self.fn, self.args = fn, args
        self.t0 = time.perf_counter()
        self.start()

    def run(self):
        self.result = self.fn(*self.args)
        self.done_after = time.perf_counter() - self.t0


class TestParkedWhileWorkersRun:
    def test_in_process_request_runs_during_a_pool_dispatch(
        self, pools, req, compute_token
    ):
        svc = AlignmentService(max_workers=2)
        t0 = time.perf_counter()
        pooled = _Caller(svc.run, req("pool-sleep", seed=10))  # 1 s
        time.sleep(0.1)  # let it reach the workers
        quick = svc.run(req("center-star"))
        quick_done = time.perf_counter() - t0
        assert quick.alignment.n_rows == 5
        # ... and the pool request takes the token back and returns.
        pooled.join(timeout=30)
        assert pooled.result.engine == "pool-sleep"
        assert quick_done < 0.6
        assert pooled.done_after >= 1.0
        assert pools[0].stats()["runs"] == 1

    def test_requests_on_two_pools_overlap(self, pools, req, compute_token):
        """Serialised by the token they would take >= 1.0 s; the ranks
        only sleep, so the check does not depend on the host's cores."""
        svc = AlignmentService(max_workers=2)
        t0 = time.perf_counter()
        callers = [
            _Caller(
                svc.run, req("pool-sleep", seed=5, engine_kwargs={"on": on})
            )
            for on in (0, 1)
        ]
        for caller in callers:
            caller.join(timeout=30)
        elapsed = time.perf_counter() - t0
        assert [c.result.engine for c in callers] == ["pool-sleep"] * 2
        assert 0.5 <= elapsed < 0.9
        assert [p.stats()["runs"] for p in pools] == [1, 1]


class TestCallerWithoutTheToken:
    def test_free_token_stays_free(self, pools, compute_token):
        """A plain ``run_request``-style call: nobody holds the token."""
        res = PoolBackend(pools[0]).run(2, _sleeping_rank, args=(0.0,))
        assert res.results == [0, 1]
        assert not compute_token.held()
        assert not compute_token._lock.locked()

    def test_somebody_elses_token_is_left_alone(self, pools, compute_token):
        """Neither acquired (the run does not wait for the holder) nor
        released (the holder still has it afterwards)."""
        holding = threading.Event()
        done = threading.Event()

        def holder():
            compute_token.acquire()
            try:
                holding.set()
                done.wait(timeout=30)
            finally:
                compute_token.release()

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert holding.wait(timeout=10)
            res = PoolBackend(pools[0]).run(2, _sleeping_rank, args=(0.0,))
            assert res.results == [0, 1]
            assert compute_token._lock.locked()
            assert not compute_token.held()
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
