"""WorkerPool lifecycle and dispatch: warm reuse, the SPMD lane, the
queue transport, failure semantics, close, and the fixed settings.

The pool's contract on top of the backend contract: workers persist
across runs (same pids), a program error poisons neither the pool nor
later runs, and close leaves no worker process behind.
"""

import multiprocessing as mp
import pickle
import queue
import threading
from collections import Counter

import numpy as np
import pytest

from repro.parcomp import ThreadBackend, run_spmd, usable_cores
from repro.parcomp.comm import SpmdAbort
from repro.pool import (
    PoolBackend,
    WorkerPool,
    get_default_pool,
    set_default_pool,
    workers,
)
from repro.pool.workers import default_worker_count

from tests.pool.leaks import live_workers


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


def _mixed_payload(comm):
    """Rank 0 sends text, an array and nested tuples; rank 1 returns them."""
    if comm.rank == 0:
        comm.send(
            {"text": "x" * 100, "array": np.arange(64.0),
             "nested": [(1, 2.5), None, b"bytes"]},
            1, tag=3,
        )
        return None
    return comm.recv(0, tag=3)


def _unpicklable_on_rank_one(comm):
    return threading.Lock() if comm.rank == 1 else comm.rank


def _echo_args(comm, *args):
    """No messages between ranks: every rank returns the run's arguments."""
    return args


def _bcast_then_add(comm, n):
    """Add to a received array in place; report whether it was writable."""
    a = comm.bcast(np.zeros(n) if comm.rank == 0 else None, root=0)
    a += 1
    return bool(a.flags.writeable)


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
        assert live_workers(own) == []
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
            "name", "start_method", "max_workers", "workers_alive", "worker_pids", "respawns", "runs",
            "tasks_served", "fallback_runs", "transport", "closed",
        ):
            assert key in s
        assert set(s["transport"]) == {"msgs", "bytes"}

    def test_stats_report_the_fixed_settings(self, pool):
        s = pool.stats()
        assert s["start_method"] == workers.START_METHOD
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

    def test_payload_round_trip_is_metered(self, pool):
        before = pool.stats()["transport"]
        out = pool.run_spmd(2, _mixed_payload).results[1]
        assert out["text"] == "x" * 100
        assert np.array_equal(out["array"], np.arange(64.0))
        assert out["nested"] == [(1, 2.5), None, b"bytes"]
        after = pool.stats()["transport"]
        # The run blob, two rank extras, two reports and rank 0's send.
        assert after["msgs"] == before["msgs"] + 6
        assert after["bytes"] > before["bytes"]

    @pytest.mark.parametrize("backend", ["threads", "pool"])
    @pytest.mark.parametrize("n", [100, 100_000])
    def test_received_arrays_are_writable_at_every_size(
        self, pool, backend, n
    ):
        res = run_spmd(2, _bcast_then_add, args=(n,), backend=backend)
        assert res.results == [True, True]

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_the_run_blob_is_pickled_once_for_every_rank(self, pool, n_ranks):
        before = pool.stats()["transport"]["msgs"]
        args = ("batch", np.arange(32.0))
        res = pool.run_spmd(n_ranks, _echo_args, args=args)
        for got in res.results:
            assert got[0] == "batch" and np.array_equal(got[1], args[1])
        # One run blob, then one argument tuple and one report per rank.
        assert pool.stats()["transport"]["msgs"] == before + 1 + 2 * n_ranks

    def test_transport_counts_outlive_a_worker_reset(self):
        with WorkerPool(max_workers=2) as own:
            own.run_spmd(2, _ring)
            before = own.stats()["transport"]
            own._reset_workers()
            assert own.stats()["respawns"] == 2
            assert own.stats()["transport"] == before
            own.run_spmd(2, _ring)
            assert own.stats()["transport"]["msgs"] > before["msgs"]

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
        assert live_workers(pool) == sorted(pool.stats()["worker_pids"])

    def test_unpicklable_result_is_that_ranks_error(self, pool):
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc_info:
            pool.run_spmd(2, _unpicklable_on_rank_one)
        assert "unpicklable result" in str(exc_info.value)
        assert pool.run_spmd(2, _ring).results == [1, 0]

    def test_run_spmd_entry_point_accepts_pool_backend(self, pool):
        res = run_spmd(3, _ring, backend="pool")
        assert res.backend == "pool"
        assert res.results == [(r - 1) % 3 for r in range(3)]


class TestRankTransport:
    def test_a_stale_message_from_an_aborted_run_is_dropped(self):
        inboxes = [queue.Queue(), queue.Queue()]
        transport = workers._PoolRankTransport(
            1, 2, None, inboxes, threading.Event(), 7, Counter()
        )
        for run_id, word in ((6, "stale"), (7, "fresh")):
            inboxes[1].put(("p2p", run_id, 0, 5, pickle.dumps(word), 0.0))
        assert transport.collect(1, 0, 5) == ("fresh", 0.0)
        assert inboxes[1].empty()

    @staticmethod
    def _pair(run_id=1):
        """Two rank transports wired to each other's in-process inboxes,
        plus rank 0's send meter."""
        inboxes = [queue.Queue(), queue.Queue()]
        fail = threading.Event()
        meter = Counter()
        sender = workers._PoolRankTransport(
            0, 2, None, inboxes, fail, run_id, meter
        )
        receiver = workers._PoolRankTransport(
            1, 2, None, inboxes, fail, run_id, Counter()
        )
        return sender, receiver, inboxes, meter

    def test_a_payload_rides_the_inbox_as_pickled_bytes(self):
        sender, receiver, inboxes, _ = self._pair()
        obj = {"text": "x" * 100, "array": np.arange(64.0),
               "nested": [(1, 2.5), None, b"bytes"]}
        sender.post(0, 1, 3, obj, 2.0, 0, "send")
        item = inboxes[1].queue[0]
        assert item[:4] == ("p2p", 1, 0, 3)
        assert isinstance(item[4], bytes)
        out, ready = receiver.collect(1, 0, 3)
        assert ready == 2.0
        assert out["text"] == obj["text"]
        assert np.array_equal(out["array"], obj["array"])
        assert out["nested"] == obj["nested"]

    @pytest.mark.parametrize("size", [64, 256 * 1024, 1 << 20])
    def test_every_payload_size_takes_the_same_lane(self, size):
        sender, receiver, inboxes, meter = self._pair()
        big = np.arange(size, dtype=np.uint8)
        sender.post(0, 1, 3, big, 0.0, size, "send")
        assert isinstance(inboxes[1].queue[0][4], bytes)
        assert meter["msgs"] == 1
        assert np.array_equal(receiver.collect(1, 0, 3)[0], big)

    def test_the_sender_meters_each_message_and_its_bytes(self):
        sender, _, inboxes, meter = self._pair()
        for tag in (1, 2):
            sender.post(0, 1, tag, "payload", 0.0, 7, "send")
        blobs = [item[4] for item in inboxes[1].queue]
        assert meter == {"msgs": 2, "bytes": sum(map(len, blobs))}
        assert [e.tag for e in sender.ledger.events] == [1, 2]

    def test_a_received_array_is_a_writable_copy(self):
        sender, receiver, _, _ = self._pair()
        mine = np.arange(512, dtype=np.int64)
        sender.post(0, 1, 3, mine, 0.0, mine.nbytes, "send")
        mine[0] = 99  # the sender keeps using its own array
        out, _ = receiver.collect(1, 0, 3)
        assert out.flags.writeable and out[0] == 0
        out[1] = -1
        assert mine[1] == 1

    def test_messages_are_matched_by_tag_and_kept_in_order(self):
        sender, receiver, _, _ = self._pair()
        for tag, word in ((1, "a1"), (2, "b1"), (1, "a2"), (2, "b2")):
            sender.post(0, 1, tag, word, 0.0, 2, "send")
        got = [receiver.collect(1, 0, tag)[0] for tag in (2, 1, 1, 2)]
        assert got == ["b1", "a1", "a2", "b2"]

    def test_a_failed_peer_aborts_a_blocked_collect(self):
        sender, receiver, _, _ = self._pair()
        sender.fail(ValueError("boom"))
        with pytest.raises(SpmdAbort):
            receiver.collect(1, 0, 3)

    def test_the_barrier_returns_the_latest_clock_to_every_rank(self):
        sender, receiver, _, _ = self._pair()
        out = {}
        peer = threading.Thread(
            target=lambda: out.setdefault(1, receiver.barrier(5.0))
        )
        peer.start()
        out[0] = sender.barrier(2.0)
        peer.join(10.0)
        assert out == {0: 5.0, 1: 5.0}
        assert sender.ledger.events == [] == receiver.ledger.events


class TestReportBlob:
    def test_an_unpicklable_exception_becomes_the_ranks_error(self):
        report = {"rank": 2, "status": "error", "result": None,
                  "error": ValueError(threading.Lock())}
        out = pickle.loads(workers._report_blob(report))
        assert out["status"] == "error" and out["result"] is None
        assert "rank 2 produced an unpicklable exception" in str(out["error"])

    def test_a_picklable_report_is_shipped_as_is(self):
        report = {"rank": 0, "status": "ok", "result": [1, 2], "error": None}
        assert pickle.loads(workers._report_blob(report)) == report


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
        monkeypatch.setenv("REPRO_POOL_WORKERS", "")
        assert default_worker_count() == max(usable_cores(), 2)

    @pytest.mark.parametrize("value", ["two", "-3", "0", "2.5"])
    def test_default_worker_count_rejects_a_bad_env_value(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_POOL_WORKERS", value)
        with pytest.raises(
            ValueError, match=f"REPRO_POOL_WORKERS.*{value!r}"
        ):
            default_worker_count()


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
