"""Crash recovery and hang handling, on the dispatch path.

A SIGKILLed or SIGSTOPped worker may hold shared queue locks, so
recovery is always the pool-wide reset: every queue is rebuilt and the
run is retried on fresh workers.  The dispatch path is the pool's only
liveness check -- a worker that died or sent no heartbeat for the hang
threshold is replaced before the next run is queued, and a rank whose
worker goes that way mid-run becomes a ``WorkerCrashError``.  These
tests kill and stop workers at every stage -- idle, mid-SPMD-run,
mid-all_pairs, under the gateway -- and assert the pool comes back with
byte-identical results and no worker process it lost track of.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.distance import all_pairs
from repro.distance.estimators import DistanceEstimator, get_estimator
from repro.engine import AlignRequest, register_engine, unregister_engine
from repro.engine.api import AlignResult
from repro.pool import PoolBackend, WorkerCrashError, WorkerPool
from repro.pool import backend as backend_mod
from repro.pool import workers
from repro.seq.alignment import Alignment
from repro.serve import AlignmentGateway

from tests.pool.leaks import live_workers

#: How long a test that stops a worker mid-run waits for the answer
#: before it calls the run hung (the hang threshold is 5 s).
_GUARD_S = 20.0


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _resume(pid):
    """SIGCONT ``pid`` if it is still there, so nothing stays stopped."""
    try:
        os.kill(pid, signal.SIGCONT)
    except ProcessLookupError:
        pass


def _resume_sentinel(sentinel):
    """SIGCONT the worker whose pid a stopping rank wrote to ``sentinel``."""
    try:
        with open(sentinel) as fh:
            pid = int(fh.read() or 0)
    except FileNotFoundError:
        return
    if pid:
        _resume(pid)


def _guarded(call, sentinel, timeout=_GUARD_S):
    """``call()`` on a thread, failed if it has not returned in
    ``timeout`` s; the stopped worker is resumed whatever happens."""
    out = {}

    def target():
        try:
            out["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    try:
        thread.join(timeout)
        assert not thread.is_alive(), f"still waiting after {timeout} s"
    finally:
        _resume_sentinel(sentinel)
        thread.join(timeout)
    if "error" in out:
        raise out["error"]
    return out["value"]


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


def _stop_rank_one_once(comm, sentinel):
    """Rank 1 SIGSTOPs itself the first time through (then completes);
    it leaves its pid in ``sentinel`` so the test can resume it."""
    if comm.rank == 1 and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGSTOP)
    return _ring(comm)


def _kill_rank_zero_always(comm):
    if comm.rank == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ring(comm)


def _busy_python(comm, seconds):
    """Compute in pure Python (holding the GIL between switches) for
    ``seconds``, then ring."""
    end = time.monotonic() + seconds
    spins = 0
    while time.monotonic() < end:
        spins += 1
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


class TestNoParentThread:
    def test_building_and_warming_starts_no_thread(self):
        before = set(threading.enumerate())
        with WorkerPool(max_workers=2) as own:
            own.warm_up()
            assert own.stats()["workers_alive"] == 2
            assert set(threading.enumerate()) - before == set()


class TestIdleCrashRespawn:
    def test_killed_idle_worker_is_respawned(self, pool):
        pool.warm_up(3)
        victim = pool.stats()["worker_pids"][0]
        before = pool.stats()["respawns"]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(lambda: not pool._slots[0].alive)
        # The next run resets the pool before it queues a rank, so it
        # needs no retry: a bare run_spmd succeeds.
        res = pool.run_spmd(3, _ring)
        assert res.results == [(r - 1) % 3 for r in range(3)]
        assert victim not in pool.stats()["worker_pids"]
        assert pool.stats()["respawns"] > before
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])


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
        """A worker stopped while idle is stale by the next run, which
        replaces it before queueing: one run, no crash retry."""
        monkeypatch.setattr(workers, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(workers, "_HUNG_FLOOR_S", 1.0)
        with WorkerPool(max_workers=2) as own:
            own.warm_up()
            victim = own.stats()["worker_pids"][0]
            os.kill(victim, signal.SIGSTOP)
            try:
                time.sleep(1.5)  # past the 1 s hang threshold
                runs = own.stats()["runs"]
                res = PoolBackend(own).run(2, _ring)
            finally:  # unstick it regardless, or close() would SIGKILL
                _resume(victim)
            assert res.results == [1, 0]
            assert own.stats()["runs"] == runs + 1
            assert own.stats()["respawns"] == 2
            assert victim not in own.stats()["worker_pids"]
            assert live_workers(own) == sorted(own.stats()["worker_pids"])
        assert live_workers(own) == []

    def test_a_rank_that_stops_mid_run_is_retried(self, pool, tmp_path):
        sentinel = str(tmp_path / "stopped-once")
        before = pool.stats()["respawns"]
        res = _guarded(
            lambda: PoolBackend(pool).run(
                2, _stop_rank_one_once, args=(sentinel,)
            ),
            sentinel,
        )
        assert res.results == [1, 0]
        assert os.path.exists(sentinel)  # the stop really happened
        assert pool.stats()["respawns"] > before
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])

    def test_a_busy_python_rank_is_not_hung(self, monkeypatch):
        """The heartbeat thread beats through pure-Python compute, so a
        rank busy for twice the hang threshold is left to finish."""
        monkeypatch.setattr(workers, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(workers, "_HUNG_FLOOR_S", 1.0)
        threshold = workers._hang_threshold()
        assert threshold == 1.0
        with WorkerPool(max_workers=2) as own:
            own.warm_up()
            res = PoolBackend(own).run(2, _busy_python, args=(2 * threshold,))
            assert res.results == [1, 0]
            assert own.stats()["respawns"] == 0
            assert own.stats()["runs"] == 1
        assert live_workers(own) == []


# -- the same faults through the gateway ------------------------------------


class PoolProgramEngine:
    """Toy engine whose run dispatches :attr:`program` on two ranks of
    the process-default pool (the gateway's) and returns its sequences
    unaligned-but-padded."""

    name = "pool-program"
    kind = "sequential"
    program = None
    sentinel = None

    def run(self, request):
        cls = type(self)
        res = PoolBackend().run(2, cls.program, args=(cls.sentinel,))
        assert res.results == [1, 0]
        width = max(len(s.residues) for s in request.sequences)
        aln = Alignment.from_rows(
            [s.id for s in request.sequences],
            [s.residues.ljust(width, "-") for s in request.sequences],
        )
        return AlignResult(
            alignment=aln, engine=self.name, sp=0.0, wall_time=0.0,
            request_hash=request.content_hash(),
        )


@pytest.fixture()
def pool_program(tmp_path):
    PoolProgramEngine.sentinel = str(tmp_path / "fault-once")
    register_engine(
        "pool-program", lambda **kw: PoolProgramEngine(),
        kind="sequential", overwrite=True,
    )
    yield PoolProgramEngine
    unregister_engine("pool-program")


class TestGatewayMidRunFault:
    @pytest.mark.parametrize(
        "program", [_stop_rank_one_once, _kill_rank_one_once],
        ids=["sigstop", "sigkill"],
    )
    def test_request_is_answered_and_the_next_one_too(
        self, pool, pool_program, small_family, program
    ):
        pool_program.program = program
        seqs = tuple(small_family.sequences)
        before = pool.stats()["respawns"]
        with AlignmentGateway(
            n_workers=1, default_backend="pool", pool=pool
        ) as gw:
            try:
                first = gw.run(
                    AlignRequest(sequences=seqs, engine="pool-program"),
                    timeout=_GUARD_S,
                )
            finally:
                _resume_sentinel(pool_program.sentinel)
            assert first.alignment.n_rows == len(seqs)
            assert os.path.exists(pool_program.sentinel)
            assert pool.stats()["respawns"] > before
            # A different request (no cache hit) is answered too.
            second = gw.run(
                AlignRequest(sequences=seqs, engine="pool-program", seed=1),
                timeout=_GUARD_S,
            )
            assert second.alignment.n_rows == len(seqs)
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])
