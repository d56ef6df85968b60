"""Crash recovery, hang handling, and idle shrink.

A SIGKILLed worker may die holding shared queue locks, so recovery is
always the pool-wide reset: every queue is rebuilt and the run is
retried on fresh workers.  These tests kill workers at every stage --
idle, mid-SPMD-run, mid-all_pairs -- and assert the pool comes back
with byte-identical results and no worker process it lost track of.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.distance import all_pairs
from repro.distance.estimators import DistanceEstimator, get_estimator
from repro.pool import PoolBackend, WorkerCrashError, WorkerPool
from repro.pool import backend as backend_mod
from repro.pool import workers

from tests.pool.leaks import live_workers


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- module-level programs (dispatch always pickles) ------------------------


def _ring(comm):
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send(comm.rank, nxt, tag=1)
    return comm.recv(prv, tag=1)


def _kill_rank_one_once(comm, sentinel):
    """Rank 1 SIGKILLs itself the first time through (then completes)."""
    if comm.rank == 1 and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _ring(comm)


def _kill_rank_zero_always(comm):
    if comm.rank == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ring(comm)


class KillerEstimator(DistanceEstimator):
    """ktuple distances, except the first worker to compute a tile dies."""

    name = "killer-test"

    def __init__(self, sentinel):
        self.sentinel = sentinel
        self.inner = get_estimator("ktuple")

    def prepare(self, seqs):
        return self.inner.prepare(seqs)

    def pair_distances(self, seqs, ii, jj, state):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.pair_distances(seqs, ii, jj, state)


class TestIdleCrashRespawn:
    def test_killed_idle_worker_is_respawned(self, pool):
        pool.warm_up(3)
        victim = pool.stats()["worker_pids"][0]
        before = pool.stats()["respawns"]
        os.kill(victim, signal.SIGKILL)
        # The supervisor notices within a few heartbeats and resets.
        assert _wait_until(lambda: pool.stats()["respawns"] > before)
        res = pool.run_spmd(3, _ring)
        assert res.results == [(r - 1) % 3 for r in range(3)]
        assert victim not in pool.stats()["worker_pids"]


class TestMidRunCrash:
    def test_pool_raises_worker_crash_error(self, pool):
        with pytest.raises(WorkerCrashError):
            pool.run_spmd(3, _kill_rank_zero_always)
        # The reset leaves a healthy pool behind.
        assert pool.run_spmd(3, _ring).results == [2, 0, 1]
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])

    def test_backend_retries_to_success(self, pool, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        before = pool.stats()["respawns"]
        res = PoolBackend(pool=pool).run(
            3, _kill_rank_one_once, args=(sentinel,)
        )
        assert res.results == [(r - 1) % 3 for r in range(3)]
        assert res.backend == "pool"
        assert os.path.exists(sentinel)
        assert pool.stats()["respawns"] > before

    def test_backend_gives_up_after_max_retries(self, pool, monkeypatch):
        monkeypatch.setattr(backend_mod, "MAX_RETRIES", 0)
        backend = PoolBackend(pool=pool)
        with pytest.raises(RuntimeError, match="after 1 attempts") as info:
            backend.run(3, _kill_rank_zero_always)
        assert isinstance(info.value.__cause__, WorkerCrashError)

    def test_crash_mid_all_pairs_still_byte_identical(
        self, pool, tmp_path, diverse_family
    ):
        seqs = list(diverse_family.sequences)[:16]
        serial = all_pairs(seqs, "ktuple")
        killer = KillerEstimator(str(tmp_path / "tile-crash"))
        before = pool.stats()["respawns"]
        pooled = all_pairs(seqs, killer, backend="pool", workers=4)
        assert np.array_equal(serial, pooled)
        assert os.path.exists(killer.sentinel)  # the crash really happened
        assert pool.stats()["respawns"] > before
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])


class TestHungWorker:
    def test_stopped_worker_is_recycled(self, monkeypatch):
        # Short heartbeats so the ~5 s hang floor dominates the test time.
        monkeypatch.setattr(workers, "HEARTBEAT_S", 0.1)
        with WorkerPool(max_workers=2) as own:
            own.warm_up()
            victim = own.stats()["worker_pids"][0]
            os.kill(victim, signal.SIGSTOP)
            try:
                assert _wait_until(
                    lambda: own.stats()["respawns"] > 0, timeout=20.0
                )
            finally:  # unstick it regardless, or close() would SIGKILL
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert own.run_spmd(2, _ring).results == [1, 0]


class TestIdleShrink:
    def test_shrinks_to_floor_and_regrows_on_demand(self, monkeypatch):
        monkeypatch.setattr(workers, "IDLE_TIMEOUT_S", 0.3)
        monkeypatch.setattr(workers, "HEARTBEAT_S", 0.1)
        own = WorkerPool(max_workers=3)
        try:
            own.warm_up()
            assert own.stats()["workers_alive"] == 3
            assert _wait_until(
                lambda: own.stats()["workers_alive"] == 1, timeout=10.0
            )
            # The next dispatch regrows transparently.
            assert own.run_spmd(3, _ring).results == [2, 0, 1]
        finally:
            own.close()
        assert live_workers(own) == []

    def test_dispatch_right_after_a_shrink_needs_no_reset(self):
        """A shrink returns with its workers gone, so a run that follows
        at once starts a fresh worker instead of queueing a rank behind
        the stop token (which looked like a crash: a pool-wide reset and
        a whole-run retry)."""
        with WorkerPool(max_workers=2) as own:
            own.warm_up()
            for slot in own._slots:  # idle for an hour, as far as it knows
                slot.last_used -= 3600.0
            # The supervisor's call, holding the dispatch lock across the
            # run as well so no supervisor tick can fold the slot first.
            with own._dispatch_lock:
                own._shrink_idle()
                assert own.stats()["workers_alive"] == 1
                res = PoolBackend(own).run(2, _ring)
            assert res.results == [1, 0]
            assert own.stats()["respawns"] == 0
            assert own.stats()["workers_alive"] == 2
        assert live_workers(own) == []

    def test_a_worker_that_ignores_its_stop_forces_the_reset(
        self, monkeypatch
    ):
        """A stopped-and-wedged worker may hold queue locks, so the shrink
        does not fold its slot: it resets the pool, and runs go on."""
        monkeypatch.setattr(workers, "ABORT_JOIN_TIMEOUT_S", 0.5)
        with WorkerPool(max_workers=2) as own:
            own.warm_up()
            victim = own.stats()["worker_pids"][1]
            for slot in own._slots:
                slot.last_used -= 3600.0
            os.kill(victim, signal.SIGSTOP)
            try:
                with own._dispatch_lock:
                    own._shrink_idle()
                    assert victim not in own.stats()["worker_pids"]
                    assert own.stats()["respawns"] == 1  # slot 0 only
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert own.run_spmd(2, _ring).results == [1, 0]
        assert live_workers(own) == []
