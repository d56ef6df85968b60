"""A ``threads`` rank parks its run token across a GIL-free compiled call.

Ranks of one ``threads`` run take turns on the fabric's run token, so
their Python never overlaps.  A compiled call that drops the interpreter
lock is the exception: inside :func:`repro.parcomp.run_token_parked`
the rank gives the token up, another rank runs meanwhile, and the rank
takes the token back before it runs Python again.  ``time.sleep`` stands
in for such a call where the test is about the protocol, not the cores.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.distance import FullDpDistance
from repro.parcomp import (
    Fabric,
    SpmdAbort,
    in_spmd_rank,
    run_spmd,
    run_token_parked,
    usable_cores,
)
from repro.parcomp.comm import current_rank
from repro.seq.sequence import Sequence


def _bounded(fn, timeout=60.0):
    """Run ``fn`` on a helper thread so a lost token fails, not hangs."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "run_spmd did not return: a rank is stuck"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _family(n, length, seed=0):
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
    return [
        Sequence(f"s{i}", "".join(rng.choice(alphabet, length)))
        for i in range(n)
    ]


# -- rank programs ---------------------------------------------------------


def _sleep_parked(comm, seconds, holders):
    with run_token_parked():
        time.sleep(seconds)
    holders.append((comm.rank, comm.fabric._holder))


class _Inside:
    """Counts the threads that are inside program code right now."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = 0
        self.peak = 0

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1


def _python_between_parked_calls(comm, inside):
    for _ in range(5):
        with run_token_parked():
            time.sleep(0.002)
        with inside:
            assert comm.fabric._holder == comm.rank
            sum(i * i for i in range(2_000))
    comm.barrier()
    return inside.peak


def _tiles(comm, seqs, tiles):
    est = FullDpDistance()
    state = est.prepare(seqs)
    return [est.pair_identities(seqs, ii, jj, state) for ii, jj in tiles]


def _raise_while_peer_parked(comm, seconds, reached):
    if comm.rank == 0:
        with run_token_parked():
            time.sleep(seconds)
        reached.append("rank 0 ran on after the failure")
    else:
        raise ValueError("rank 1 down")


def _raise_while_peer_in_c(comm, seqs, tiles, done):
    if comm.rank == 0:
        est = FullDpDistance()
        state = est.prepare(seqs)
        for ii, jj in tiles:
            est.pair_identities(seqs, ii, jj, state)
            done.append(len(ii))
    else:
        raise ValueError("rank 1 down")


def _where_is_overlap(comm):
    with run_token_parked():
        time.sleep(0.05)
    return comm.fabric.overlap_s[comm.rank]


def _where_am_i(comm):
    fabric, rank = current_rank()
    return fabric is comm.fabric, rank, in_spmd_rank()


# -- tests -----------------------------------------------------------------


class TestParkedIsANoOpOffRank:
    def test_outside_any_rank(self):
        assert current_rank() is None
        assert not in_spmd_rank()
        with run_token_parked():
            pass

    def test_rank_without_the_token(self):
        fabric = Fabric(2)  # rank 0 holds the token from the start
        with fabric.parked(1):
            assert fabric._holder == 0
        assert fabric._holder == 0

    def test_holder_gives_up_and_takes_back(self):
        fabric = Fabric(2)
        with fabric.parked(0):
            assert fabric._holder is None
        assert fabric._holder == 0

    def test_rank_threads_know_their_rank(self):
        res = run_spmd(3, _where_am_i, backend="threads")
        assert res.results == [(True, r, True) for r in range(3)]


class TestParkedBodiesOverlap:
    def test_two_parked_sleeps_take_one_sleep(self):
        holders = []
        t0 = time.perf_counter()
        _bounded(lambda: run_spmd(
            2, _sleep_parked, args=(0.4, holders), backend="threads"
        ))
        wall = time.perf_counter() - t0
        assert wall < 0.7, wall  # one after the other would be >= 0.8 s
        # Each rank held the token again once it ran Python.
        assert sorted(holders) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("size", [2, 8])  # more ranks than cores
    def test_python_still_runs_one_rank_at_a_time(self, size):
        inside = _Inside()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make any overlap likely to show
        try:
            res = _bounded(lambda: run_spmd(
                size, _python_between_parked_calls, args=(inside,),
                backend="threads",
            ))
        finally:
            sys.setswitchinterval(interval)
        assert res.results == [1] * size
        assert inside.now == 0

    def test_compiled_tiles_equal_serial(self, compiled_kernel):
        seqs = _family(12, 40)
        ii, jj = np.triu_indices(len(seqs), 1)
        tiles = [(ii[k::3], jj[k::3]) for k in range(3)]
        res = run_spmd(2, _tiles, args=(seqs, tiles), backend="threads")
        serial = _tiles(None, seqs, tiles)
        for rank_out in res.results:
            assert [t.tobytes() for t in rank_out] == [
                t.tobytes() for t in serial
            ]


class TestOverlapIsReported:
    """``spmd.rank`` spans carry ``overlap_s``: wall seconds inside parked
    compiled calls, next to ``compute_s`` and ``parked_s``."""

    @pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
    def test_two_ranks_in_compiled_calls(self, compiled_kernel, traced):
        seqs = _family(16, 200)
        ii, jj = np.triu_indices(len(seqs), 1)
        tiles = [(ii[k::4], jj[k::4]) for k in range(4)]
        _, records = traced(lambda: run_spmd(
            2, _tiles, args=(seqs, tiles), backend="threads"
        ))
        ranks = [r for r in records if r.name == "spmd.rank"]
        assert sorted(r.attrs["rank"] for r in ranks) == [0, 1]
        for r in ranks:
            assert 0.0 < r.attrs["overlap_s"] <= r.dur
            assert r.attrs["compute_s"] > 0.0

    def test_parked_sleep_is_overlap(self, traced):
        _, records = traced(lambda: run_spmd(
            2, _sleep_parked, args=(0.05, []), backend="threads"
        ))
        for r in (r for r in records if r.name == "spmd.rank"):
            assert 0.04 < r.attrs["overlap_s"] <= r.dur

    def test_untraced_runs_keep_overlap(self):
        res = run_spmd(2, _where_is_overlap, backend="threads")
        assert all(0.04 < overlap for overlap in res.results)


class TestFailureWhileParked:
    def test_raise_while_peer_parked_ends_in_runtime_error(self):
        reached = []
        baseline = threading.active_count()
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc_info:
            _bounded(lambda: run_spmd(
                2, _raise_while_peer_parked, args=(0.2, reached),
                backend="threads",
            ), timeout=20.0)
        assert time.perf_counter() - t0 < 10.0
        assert isinstance(exc_info.value.__cause__, ValueError)
        # Taking the token back is an abort point: no Python ran on.
        assert reached == []
        assert threading.active_count() == baseline

    def test_raise_while_peer_in_compiled_call(self, compiled_kernel):
        seqs = _family(24, 120)
        ii, jj = np.triu_indices(len(seqs), 1)
        tiles = [(ii[k::12], jj[k::12]) for k in range(12)]
        done = []
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            _bounded(lambda: run_spmd(
                2, _raise_while_peer_in_c, args=(seqs, tiles, done),
                backend="threads",
            ), timeout=20.0)
        assert len(done) < len(tiles)

    def test_parked_raises_spmd_abort_after_a_failure(self):
        fabric = Fabric(2)
        with pytest.raises(SpmdAbort):
            with fabric.parked(0):
                fabric.fail(ValueError("peer down"))
        assert fabric._holder == 0  # the launcher releases it

    def test_body_errors_win_over_the_abort(self):
        fabric = Fabric(2)
        with pytest.raises(KeyError):
            with fabric.parked(0):
                fabric.fail(ValueError("peer down"))
                raise KeyError("mine")


class TestUsableCores:
    def test_affinity_decides(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert usable_cores() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6
