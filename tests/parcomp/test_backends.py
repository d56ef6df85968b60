"""Backend equivalence: threads and pool must be indistinguishable.

The contract of :mod:`repro.parcomp.backends` is that *where* ranks run
is invisible to the program: identical results, identical message
patterns, identical failure semantics.  Everything here is parametrized
over both backends and, where it matters, asserts cross-backend equality
outright.  ``"pool"`` resolves to the explicit five-slot pool of
``tests/conftest.py``, so only the runs that ask for more than five ranks
(and ``TestPoolOverflow``) take the one-shot overflow path.
"""

import multiprocessing as mp
import operator
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import SampleAlignDConfig
from repro.core.driver import sample_align_d
from repro.engine import get_engine
from repro.parcomp import (
    CostModel,
    ExecutionBackend,
    SpmdAbort,
    ThreadBackend,
    available_backends,
    get_backend,
    run_spmd,
)
from repro.parcomp import backends
from repro.pool import PoolBackend, WorkerPool, workers

BACKENDS = ["threads", "pool"]

pytestmark = pytest.mark.usefixtures("pool")


def _children():
    return {p.pid for p in mp.active_children()}


def _leaked(before, pool):
    """What outlived the launcher: children born since ``before`` that
    are not the pool's warm workers."""
    return sorted(_children() - before - set(pool.stats()["worker_pids"]))


# -- module-level SPMD programs (picklable for the pool backend) ------------


def _ring(comm):
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send(comm.rank, nxt, tag=1)
    return comm.recv(prv, tag=1)


def _collective_mix(comm):
    word = comm.bcast("seed" if comm.rank == 0 else None, root=0)
    part = comm.scatter(
        [i * 10 for i in range(comm.size)] if comm.rank == 0 else None, root=0
    )
    comm.barrier()
    everyone = comm.allgather(part + comm.rank)
    total = comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
    return (word, everyone, total)


def _fail_on_rank_one(comm):
    if comm.rank == 1:
        raise ValueError("injected rank failure")
    comm.recv((comm.rank + 1) % comm.size, tag=9)


def _send_array(comm):
    comm.send(np.zeros(50), (comm.rank + 1) % comm.size, tag=2)
    comm.recv((comm.rank - 1) % comm.size, tag=2)
    x = 0
    for i in range(50_000):  # a little measured compute to ship back
        x += i * i
    return x


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["pool", "threads"]

    def test_get_backend_default_is_threads(self):
        assert isinstance(get_backend(), ThreadBackend)

    def test_get_backend_by_name_case_insensitive(self):
        assert isinstance(get_backend("POOL"), PoolBackend)

    def test_get_backend_passthrough_instance(self):
        be = ThreadBackend()
        assert get_backend(be) is be

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown execution backend"):
            get_backend("gpu")

    def test_the_table_is_fixed(self):
        with pytest.raises(KeyError) as info:
            get_backend("custom")
        assert "available: ['pool', 'threads']" in str(info.value)

    def test_validation_shared_across_backends(self):
        for name in BACKENDS:
            with pytest.raises(ValueError):
                run_spmd(0, _ring, backend=name)
            with pytest.raises(ValueError, match="one tuple per rank"):
                run_spmd(2, _ring, rank_args=[()], backend=name)


@pytest.mark.parametrize("backend", BACKENDS)
class TestProgramEquivalence:
    def test_ring(self, backend):
        res = run_spmd(5, _ring, backend=backend)
        assert res.results == [(r - 1) % 5 for r in range(5)]
        assert res.backend == backend

    def test_collectives(self, backend):
        size = 4
        res = run_spmd(size, _collective_mix, backend=backend)
        expect_gather = [i * 10 + i for i in range(size)]
        for word, everyone, total in res.results:
            assert word == "seed"
            assert everyone == expect_gather
            assert total == size * (size + 1) // 2

    def test_abort_propagates_and_nothing_leaks(self, backend, pool):
        before = _children()
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc_info:
            run_spmd(3, _fail_on_rank_one, backend=backend)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert _leaked(before, pool) == []

    def test_metering_and_compute_totals(self, backend):
        res = run_spmd(3, _send_array, backend=backend)
        sends = [e for e in res.ledger.events if e.kind == "send"]
        assert len(sends) == 3
        assert all(e.nbytes == 400 for e in sends)
        # Every rank's compute total reaches the ledger, from a worker
        # process too.
        assert (res.ledger.compute > 0).all()
        assert res.modeled_time() >= res.ledger.compute.max()


class TestCrossBackendLedgers:
    def test_message_pattern_identical(self):
        """Same program, same per-rank event counts and bytes, any backend."""
        by_backend = {
            name: run_spmd(4, _collective_mix, backend=name)
            for name in BACKENDS
        }

        def per_rank(res):
            counts = [0] * 4
            nbytes = [0] * 4
            for e in res.ledger.events:
                counts[e.src] += 1
                nbytes[e.src] += e.nbytes
            return counts, nbytes

        t_counts, t_bytes = per_rank(by_backend["threads"])
        p_counts, p_bytes = per_rank(by_backend["pool"])
        assert t_counts == p_counts
        assert t_bytes == p_bytes
        assert (
            by_backend["threads"].ledger.bytes_by_kind()
            == by_backend["pool"].ledger.bytes_by_kind()
        )

    def test_modeled_message_cost_identical(self):
        slow = CostModel(alpha=0.5, beta=0.0)
        times = {
            name: run_spmd(2, _ring, cost_model=slow, backend=name)
            for name in BACKENDS
        }
        for res in times.values():
            assert res.modeled_time() >= 0.5
        assert (
            times["threads"].ledger.modeled_comm_time()
            == pytest.approx(times["pool"].ledger.modeled_comm_time())
        )


class TestSampleAlignDEquivalence:
    @pytest.fixture(scope="class")
    def family(self, diverse_family):
        return list(diverse_family.sequences)[:24]

    @pytest.fixture(scope="class")
    def runs(self, family):
        """``{n_procs: {backend: result}}`` at a small p and at the
        paper's 16 ranks (more ranks than cores, buckets of one or two;
        on ``pool`` also more ranks than slots: the one-shot overflow)."""
        return {
            p: {
                name: sample_align_d(family, n_procs=p, backend=name)
                for name in BACKENDS
            }
            for p in (4, 16)
        }

    def test_identical_alignments(self, runs):
        for by_backend in runs.values():
            assert (
                by_backend["threads"].alignment.to_fasta()
                == by_backend["pool"].alignment.to_fasta()
            )

    def test_identical_sp_scores(self, runs):
        for by_backend in runs.values():
            assert by_backend["threads"].sp == pytest.approx(
                by_backend["pool"].sp
            )

    def test_identical_per_rank_message_counts(self, runs):
        def counts(res):
            out = [0] * res.n_procs
            for e in res.ledger.events:
                out[e.src] += 1
            return out

        for by_backend in runs.values():
            assert counts(by_backend["threads"]) == counts(
                by_backend["pool"]
            )

    def test_identical_ledger_totals(self, runs):
        for by_backend in runs.values():
            threads, pooled = (
                by_backend[name].ledger for name in ("threads", "pool")
            )
            assert threads.n_messages() == pooled.n_messages() > 0
            assert threads.total_bytes() == pooled.total_bytes()

    def test_backend_recorded(self, runs):
        for by_backend in runs.values():
            for name, res in by_backend.items():
                assert res.backend == name
                assert f"backend={name}" in res.summary()

    def test_backend_argument_drives_run(self, family):
        res = sample_align_d(
            family[:8],
            n_procs=2,
            config=SampleAlignDConfig(),
            backend="pool",
        )
        assert res.backend == "pool"

    def test_config_does_not_choose_the_backend(self, family):
        res = sample_align_d(
            family[:8], n_procs=2, config=SampleAlignDConfig()
        )
        assert res.backend == "threads"

    def test_unknown_backend_fails_fast(self, family):
        with pytest.raises(KeyError, match="unknown execution backend"):
            sample_align_d(family[:8], n_procs=2, backend="bogus")


class TestConfigHasNoBackendField:
    """The backend has one spelling, ``sample_align_d(backend=)`` /
    ``engine_kwargs={"backend": ...}``; the config does not carry it."""

    def test_round_trip(self):
        cfg = SampleAlignDConfig(local_aligner="clustalw")
        assert "backend" not in cfg.to_dict()
        assert len(cfg.to_dict()) == 15
        assert SampleAlignDConfig.from_dict(cfg.to_dict()) == cfg

    def test_constructor_refuses_backend(self):
        with pytest.raises(TypeError, match="backend"):
            SampleAlignDConfig(backend="pool")

    def test_dict_with_backend_is_an_unknown_key(self):
        data = {**SampleAlignDConfig().to_dict(), "backend": "pool"}
        with pytest.raises(TypeError, match="backend"):
            SampleAlignDConfig.from_dict(data)

    def test_dict_with_sort_stable_by_id_is_an_unknown_key(self):
        """Rank ties always break by sequence id; no field switches it."""
        data = {**SampleAlignDConfig().to_dict(), "sort_stable_by_id": True}
        with pytest.raises(TypeError, match="sort_stable_by_id"):
            SampleAlignDConfig.from_dict(data)

    def test_validation_at_the_engine(self):
        with pytest.raises(ValueError, match="not a registered"):
            get_engine("sample-align-d", backend="gpu")


class TestCustomBackendPluggability:
    def test_run_spmd_accepts_instance(self):
        calls = []

        class Spy(ThreadBackend):
            name = "spy"

            def run(self, *args, **kwargs):
                calls.append(args[0])
                return super().run(*args, **kwargs)

        res = run_spmd(3, _ring, backend=Spy())
        assert calls == [3]
        assert res.backend == "spy"
        assert isinstance(get_backend(ThreadBackend()), ExecutionBackend)


def _abort_observer(comm):
    """Rank 0 fails; others must raise SpmdAbort from their next wait."""
    if comm.rank == 0:
        raise RuntimeError("rank0 down")
    try:
        comm.recv(0, tag=3)
    except SpmdAbort:
        return "aborted"
    return "no abort"


@pytest.mark.parametrize("backend", BACKENDS)
def test_survivors_observe_spmd_abort(backend):
    with pytest.raises(RuntimeError, match="rank 0 failed"):
        run_spmd(3, _abort_observer, backend=backend)


def _fail_fast_or_sleep(comm):
    """Rank 0 fails immediately; rank 1 is stuck in compute (no comm)."""
    import time as _time

    if comm.rank == 0:
        raise ValueError("early failure")
    _time.sleep(5.0)
    return "slept"


class TestHardenedShutdown:
    def test_threads_abort_does_not_wait_for_stuck_rank(self, monkeypatch):
        import time as _time

        monkeypatch.setattr(backends, "ABORT_JOIN_TIMEOUT_S", 0.5)
        backend = ThreadBackend()
        t0 = _time.monotonic()
        with pytest.raises(RuntimeError, match="rank 0 failed") as exc_info:
            run_spmd(2, _fail_fast_or_sleep, backend=backend)
        elapsed = _time.monotonic() - t0
        assert elapsed < 4.0  # did not sit out the 5 s sleep
        assert "still unwinding" in str(exc_info.value)

    def test_processes_abort_terminates_stuck_rank(self, monkeypatch):
        """The pool recycles the worker of a rank stuck in compute."""
        import time as _time

        monkeypatch.setattr(workers, "ABORT_JOIN_TIMEOUT_S", 0.5)
        with WorkerPool(max_workers=2) as own:
            t0 = _time.monotonic()
            with pytest.raises(RuntimeError, match="rank 0 failed") as exc_info:
                run_spmd(2, _fail_fast_or_sleep, backend=PoolBackend(own))
            elapsed = _time.monotonic() - t0
            assert elapsed < 4.0
            assert "terminated while unwinding" in str(exc_info.value)
            assert own.stats()["respawns"] > 0
            assert run_spmd(2, _ring, backend=PoolBackend(own)).results == [1, 0]
            pids = own.stats()["worker_pids"]
        assert not _children() & set(pids)

    def test_timeout_validation(self):
        """The abort grace is a module constant; no instance sets it."""
        with pytest.raises(TypeError):
            ThreadBackend(abort_join_timeout=0.0)
        with pytest.raises(TypeError):
            WorkerPool(max_workers=1, abort_join_timeout=-1.0)


# -- more ranks than pool slots: the one-shot pool --------------------------


def _kill_rank_three_once(comm, sentinel):
    """Rank 3 SIGKILLs itself the first time through (then completes)."""
    if comm.rank == 3 and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _ring(comm)


class TestPoolOverflow:
    """Five ranks on a two-slot pool: same answers as ``threads``, one
    ``pool.dispatch`` span, crash retry, and nothing left behind."""

    @pytest.fixture()
    def own(self, pool):
        before = _children()
        with WorkerPool(max_workers=2) as own:
            yield own
            assert own.stats()["runs"] == 0  # never touched the warm slots
            assert own.stats()["workers_alive"] == 0
        assert _leaked(before, pool) == []

    @pytest.mark.parametrize("program", [_ring, _collective_mix])
    def test_program_matches_threads(self, own, program):
        from repro.obs.tracing import (
            collect, disable_tracing, drain_spans, enable_tracing,
        )

        threads = run_spmd(5, program, backend="threads")
        enable_tracing()
        try:
            drain_spans()
            with collect(tee=False) as buf:
                pooled = PoolBackend(own).run(5, program)
        finally:
            disable_tracing()
            drain_spans()
        assert pooled.results == threads.results
        assert pooled.backend == "pool"
        assert pooled.ledger.n_messages() == threads.ledger.n_messages() > 0
        assert pooled.ledger.total_bytes() == threads.ledger.total_bytes()
        assert own.stats()["fallback_runs"] == 1
        dispatches = [r for r in buf.records() if r.name == "pool.dispatch"]
        assert [(r.attrs["ranks"], r.attrs["attempt"]) for r in dispatches] == [
            (5, 0)
        ]

    def test_sample_align_d_matches_threads(self, own, diverse_family):
        family = list(diverse_family.sequences)[:24]
        threads = sample_align_d(family, n_procs=5, backend="threads")
        pooled = sample_align_d(family, n_procs=5, backend=PoolBackend(own))
        assert pooled.alignment.to_fasta() == threads.alignment.to_fasta()
        assert pooled.ledger.n_messages() == threads.ledger.n_messages() > 0
        assert pooled.ledger.total_bytes() == threads.ledger.total_bytes()
        assert pooled.backend == "pool"
        assert own.stats()["fallback_runs"] == 1

    def test_killed_rank_is_retried(self, own, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        res = PoolBackend(own).run(5, _kill_rank_three_once, args=(sentinel,))
        assert res.results == [(r - 1) % 5 for r in range(5)]
        assert os.path.exists(sentinel)  # the crash really happened
        assert own.stats()["fallback_runs"] == 1  # one run, two attempts

    def test_token_holder_parks_on_every_attempt(
        self, own, tmp_path, compute_token
    ):
        """The one-shot pool and the crash retry go through the same park
        as a run that fits: a caller holding the compute token gives it
        up for each ``run_spmd`` (another thread gets it meanwhile) and
        has it back when ``run`` returns."""
        from repro.obs.tracing import (
            collect, disable_tracing, drain_spans, enable_tracing,
        )

        got_it = []

        def bystander():
            compute_token.acquire()
            got_it.append(time.perf_counter())
            compute_token.release()

        sentinel = str(tmp_path / "crashed-once")
        thread = threading.Thread(target=bystander)
        enable_tracing()
        compute_token.acquire()
        try:
            drain_spans()
            thread.start()
            with collect(tee=False) as buf:
                res = PoolBackend(own).run(
                    5, _kill_rank_three_once, args=(sentinel,)
                )
            returned = time.perf_counter()
            assert compute_token.held()
        finally:
            compute_token.release()
            disable_tracing()
            drain_spans()
            thread.join(timeout=10)
        assert res.results == [(r - 1) % 5 for r in range(5)]
        assert os.path.exists(sentinel)  # the crash really happened
        assert got_it and got_it[0] < returned
        names = [r.name for r in buf.records()]
        assert names.count("pool.dispatch") == 2
        assert names.count("pool.token_wait") == 2


def test_processes_name_is_gone(tmp_path, capsys):
    """No alias: registry, config and CLI all name what is available."""
    from repro.cli import main

    available = r"available: \['pool', 'threads'\]"
    with pytest.raises(KeyError, match=available):
        get_backend("processes")
    with pytest.raises(ValueError, match=available):
        get_engine("sample-align-d", backend="processes")
    fasta = tmp_path / "in.fasta"
    fasta.write_text(">a\nMKTAYIAKQR\n>b\nMKTAYIAKQL\n")
    assert main(["align", str(fasta), "--backend", "processes"]) == 2
    assert "available: ['pool', 'threads']" in capsys.readouterr().err


# -- the threads backend's run token ----------------------------------------


class _Inside:
    """Counts the ranks that are inside program code right now."""

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


def _work_between_collectives(comm, inside):
    for _ in range(3):
        with inside:
            sum(i * i for i in range(2_000))
            time.sleep(0.001)  # a free-running schedule overlaps here
        comm.allreduce(comm.rank, op=operator.add)
        with inside:
            sum(i * i for i in range(2_000))
        comm.barrier()
    return inside.peak


def _every_collective_then_chain(comm):
    """All collectives and a barrier, then a chain in which rank r can
    only finish after rank r-1 has: ranks end at different times."""
    size, rank = comm.size, comm.rank
    out = {
        "bcast": comm.bcast("seed" if rank == 0 else None, root=0),
        "scatter": comm.scatter(
            list(range(size)) if rank == 0 else None, root=0
        ),
        "gather": comm.gather(rank, root=size - 1),
        "allgather": comm.allgather(rank),
        "alltoall": comm.alltoall([rank * 100 + d for d in range(size)]),
        "reduce": comm.reduce(rank, op=operator.add, root=0),
        "allreduce": comm.allreduce(1, op=operator.add),
    }
    comm.barrier()
    if rank > 0:
        out["chain"] = comm.recv(rank - 1, tag=7)
    if rank + 1 < size:
        comm.send(rank, rank + 1, tag=7)
    return out


def _rank_seven_down(comm):
    if comm.rank == 7:
        raise ValueError("rank 7 down")
    comm.recv(7, tag=5)


def _send_then_fail(comm, reached):
    if comm.rank == 0:
        comm.recv(1, tag=4)
        reached.append("rank 0 ran on after the failure")
    else:
        comm.send("too late", 0, tag=4)
        raise ValueError("rank 1 down")


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


class TestOneRankAtATime:
    @pytest.mark.parametrize("size", [2, 3, 16])
    def test_never_two_ranks_in_program_code(self, size):
        inside = _Inside()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make any overlap likely to show
        try:
            res = _bounded(lambda: run_spmd(
                size, _work_between_collectives, args=(inside,),
                backend="threads",
            ))
        finally:
            sys.setswitchinterval(interval)
        assert res.results == [1] * size
        assert inside.now == 0

    @pytest.mark.parametrize("size", [1, 16])
    def test_every_collective_with_staggered_finishes(self, size):
        baseline = threading.active_count()
        res = _bounded(lambda: run_spmd(
            size, _every_collective_then_chain, backend="threads"
        ))
        everyone = list(range(size))
        for rank, out in enumerate(res.results):
            assert out["bcast"] == "seed"
            assert out["scatter"] == rank
            assert out["gather"] == (everyone if rank == size - 1 else None)
            assert out["allgather"] == everyone
            assert out["alltoall"] == [s * 100 + rank for s in everyone]
            assert out["reduce"] == (sum(everyone) if rank == 0 else None)
            assert out["allreduce"] == size
            assert out.get("chain") == (rank - 1 if rank else None)
        assert threading.active_count() == baseline

    def test_failure_before_first_comm_call_frees_parked_ranks(self):
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="rank 7 failed") as exc_info:
            _bounded(lambda: run_spmd(16, _rank_seven_down, backend="threads"))
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert "still unwinding" not in str(exc_info.value)
        assert threading.active_count() == baseline

    def test_parked_rank_runs_no_program_code_after_a_failure(self):
        """Rank 0 parks first; its message is there when rank 1 fails, but
        it never held the token again, so it leaves with SpmdAbort."""
        reached = []
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            _bounded(lambda: run_spmd(
                2, _send_then_fail, args=(reached,), backend="threads"
            ))
        assert reached == []
        assert threading.active_count() == baseline


def _string_tag(comm):
    comm.send("x", (comm.rank + 1) % comm.size, tag="__ctrl__")


def _string_tag_recv(comm):
    comm.recv((comm.rank + 1) % comm.size, tag="nope")


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_int_tags_rejected(backend):
    """Tags are ints on every backend; strings are transport-internal."""
    with pytest.raises(RuntimeError, match="failed"):
        run_spmd(2, _string_tag, backend=backend)
    with pytest.raises(RuntimeError, match="failed"):
        run_spmd(2, _string_tag_recv, backend=backend)
