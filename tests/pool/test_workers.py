"""WorkerPool lifecycle and dispatch: warm reuse, the SPMD lane, failure
semantics, close, and the fixed settings.

The pool's contract on top of the backend contract: workers persist
across runs (same pids), a program error poisons neither the pool nor
later runs, and close leaves no process and no segment behind.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.parcomp import ThreadBackend, run_spmd, usable_cores
from repro.pool import (
    PoolBackend,
    WorkerPool,
    decode_payload,
    encode_payload,
    get_default_pool,
    set_default_pool,
    workers,
)
from repro.pool.shm import shm_dir_segments
from repro.pool.workers import default_worker_count


# -- module-level programs (dispatch always pickles) ------------------------


def _ring(comm):
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send(comm.rank, nxt, tag=1)
    return comm.recv(prv, tag=1)


def _fail_on_rank_one(comm):
    if comm.rank == 1:
        raise ValueError("injected rank failure")
    comm.recv((comm.rank + 1) % comm.size, tag=9)


def _big_allgather(comm):
    """Payloads above the shm threshold, so transport rides segments."""
    mine = np.full(16384, comm.rank, dtype=np.float64)
    everyone = comm.allgather(mine)
    return float(sum(a.sum() for a in everyone))


class TestLifecycle:
    def test_lazy_start_and_warm_up(self, pool):
        own = WorkerPool(max_workers=2)
        try:
            assert own.stats()["workers_alive"] == 0  # nothing until needed
            own.warm_up()
            assert own.stats()["workers_alive"] == 2
        finally:
            own.close()

    def test_workers_are_reused_across_runs(self, pool):
        pool.warm_up(3)
        pids = set(pool.stats()["worker_pids"])
        for _ in range(2):
            res = pool.run_spmd(3, _ring)
            assert res.results == [(r - 1) % 3 for r in range(3)]
        assert set(pool.stats()["worker_pids"]) >= pids  # nobody respawned

    def test_close_is_idempotent_and_complete(self):
        own = WorkerPool(max_workers=2)
        own.warm_up()
        pids = own.stats()["worker_pids"]
        own.close()
        own.close()
        assert own.closed
        assert all(p.pid not in pids for p in mp.active_children())
        assert shm_dir_segments(own.name) == []
        with pytest.raises(RuntimeError, match="closed"):
            own.run_spmd(1, _ring)

    def test_context_manager(self):
        with WorkerPool(max_workers=1) as own:
            assert own.run_spmd(1, _ring).results == [0]
        assert own.closed

    def test_warm_up_validates(self, pool):
        with pytest.raises(ValueError, match="n_workers"):
            pool.warm_up(pool.max_workers + 1)

    def test_stats_shape(self, pool):
        s = pool.stats()
        for key in (
            "name", "start_method", "max_workers", "min_workers",
            "workers_alive", "worker_pids", "respawns", "runs",
            "tasks_served", "fallback_runs", "transport",
            "shm_live_segments", "shm_bytes_in_flight", "closed",
        ):
            assert key in s
        assert set(s["transport"]) == {
            "shm_msgs", "shm_bytes", "pickle_msgs", "pickle_bytes"
        }

    def test_stats_report_the_fixed_settings(self, pool):
        s = pool.stats()
        assert s["start_method"] == workers.START_METHOD
        assert s["min_workers"] == workers.MIN_WORKERS == 1
        assert s["max_workers"] == pool.max_workers == 5

    def test_tasks_served_counts_ranks(self, pool):
        before = pool.stats()["tasks_served"]
        pool.run_spmd(3, _ring)
        assert pool.stats()["tasks_served"] == before + 3


class TestRunSpmd:
    def test_ring(self, pool):
        res = pool.run_spmd(4, _ring)
        assert res.results == [(r - 1) % 4 for r in range(4)]
        assert res.backend == "pool"

    def test_shm_transport_used_for_big_payloads(self, pool):
        before = pool.stats()["transport"]["shm_msgs"]
        res = pool.run_spmd(3, _big_allgather)
        expect = 16384 * (0 + 1 + 2)
        assert res.results == [expect] * 3
        assert pool.stats()["transport"]["shm_msgs"] > before
        assert pool.stats()["shm_live_segments"] == 0  # nothing in flight

    def test_capacity_is_a_hard_limit_on_the_pool_itself(self, pool):
        with pytest.raises(ValueError, match="exceeds pool capacity"):
            pool.run_spmd(pool.max_workers + 1, _ring)

    def test_program_error_semantics_match_other_backends(self, pool):
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc_info:
            pool.run_spmd(3, _fail_on_rank_one)
        assert isinstance(exc_info.value.__cause__, ValueError)
        # The failed run must not poison the pool for the next one.
        res = pool.run_spmd(3, _ring)
        assert res.results == [(r - 1) % 3 for r in range(3)]
        assert shm_dir_segments(pool.name) == []

    def test_run_spmd_entry_point_accepts_pool_backend(self, pool):
        res = run_spmd(3, _ring, backend="pool")
        assert res.backend == "pool"
        assert res.results == [(r - 1) % 3 for r in range(3)]


class TestOverflowFallback:
    def test_overflow_runs_cold_but_still_reports_pool(self):
        with WorkerPool(max_workers=2) as own:
            backend = PoolBackend(pool=own)
            res = backend.run(3, _ring)
            assert res.results == [(r - 1) % 3 for r in range(3)]
            assert res.backend == "pool"
            assert own.stats()["fallback_runs"] == 1
            assert own.stats()["runs"] == 0  # never touched the warm slots


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(max_workers=0)

    @pytest.mark.parametrize(
        "make",
        [
            *(
                pytest.param(
                    lambda key=key, value=value: WorkerPool(1, **{key: value}),
                    id=f"WorkerPool-{key}",
                )
                for key, value in [
                    ("min_workers", 1),
                    ("start_method", "fork"),
                    ("shm_threshold", 1024),
                    ("idle_timeout", 1.0),
                    ("heartbeat_interval", 0.1),
                    ("respawn", False),
                    ("abort_join_timeout", 1.0),
                    ("name", "rpool-named"),
                ]
            ),
            pytest.param(
                lambda: PoolBackend(max_retries=0), id="PoolBackend-max_retries"
            ),
            pytest.param(
                lambda: ThreadBackend(abort_join_timeout=1.0),
                id="ThreadBackend-abort_join_timeout",
            ),
            pytest.param(
                lambda: decode_payload(encode_payload(1), registry=None),
                id="decode_payload-registry",
            ),
            pytest.param(
                lambda: decode_payload(encode_payload(1), borrow=True),
                id="decode_payload-borrow",
            ),
        ],
    )
    def test_removed_keyword_raises_type_error(self, make):
        """The settings are module constants now; the keywords that set
        them per instance are gone, and no process starts on the way."""
        before = {p.pid for p in mp.active_children()}
        with pytest.raises(TypeError, match="argument"):
            make()
        assert {p.pid for p in mp.active_children()} <= before

    def test_default_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_WORKERS", "7")
        assert default_worker_count() == 7
        monkeypatch.delenv("REPRO_POOL_WORKERS")
        assert default_worker_count() == max(usable_cores(), 2)


class TestDefaultPool:
    def test_set_default_returns_previous(self, pool):
        assert get_default_pool() is pool  # conftest installed it
        other = WorkerPool(max_workers=1)
        try:
            assert set_default_pool(other) is pool
            assert get_default_pool() is other
        finally:
            assert set_default_pool(pool) is other
            other.close()

    def test_refused_inside_a_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_IN_WORKER", "1")
        with pytest.raises(RuntimeError, match="inside a pool worker"):
            get_default_pool()
