"""Tests for the virtual communicator and launcher."""

import numpy as np
import pytest

from repro.parcomp import CostModel, SpmdAbort, run_spmd


class TestPointToPoint:
    def test_ring(self):
        def prog(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            comm.send(comm.rank, nxt, tag=1)
            return comm.recv(prv, tag=1)

        res = run_spmd(5, prog)
        assert res.results == [(r - 1) % 5 for r in range(5)]

    def test_fifo_per_source_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1, tag=7)
                return None
            if comm.rank == 1:
                return [comm.recv(0, tag=7) for _ in range(5)]

        res = run_spmd(2, prog)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tags_are_independent(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            # Receive in the reverse order of the sends.
            b = comm.recv(0, tag=2)
            a = comm.recv(0, tag=1)
            return (a, b)

        res = run_spmd(2, prog)
        assert res.results[1] == ("a", "b")

    def test_bad_ranks(self):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.send(1, comm.size)
            with pytest.raises(ValueError):
                comm.recv(-1)
            return True

        assert run_spmd(2, prog).results == [True, True]


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
class TestCollectives:
    def test_bcast(self, size):
        def prog(comm):
            return comm.bcast("payload" if comm.rank == 0 else None, root=0)

        assert run_spmd(size, prog).results == ["payload"] * size

    def test_bcast_nonzero_root(self, size):
        root = size - 1

        def prog(comm):
            return comm.bcast(42 if comm.rank == root else None, root=root)

        assert run_spmd(size, prog).results == [42] * size

    def test_scatter_gather(self, size):
        def prog(comm):
            part = comm.scatter(
                [i * i for i in range(comm.size)] if comm.rank == 0 else None,
                root=0,
            )
            return comm.gather(part + 1, root=0)

        res = run_spmd(size, prog)
        assert res.results[0] == [i * i + 1 for i in range(size)]
        assert all(r is None for r in res.results[1:])

    def test_allgather(self, size):
        def prog(comm):
            return comm.allgather(comm.rank * 2)

        assert run_spmd(size, prog).results == [
            [i * 2 for i in range(size)]
        ] * size

    def test_alltoall(self, size):
        def prog(comm):
            out = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(out)

        res = run_spmd(size, prog)
        for r in range(size):
            assert res.results[r] == [f"{s}->{r}" for s in range(size)]

    def test_reduce(self, size):
        def prog(comm):
            return comm.reduce(comm.rank + 1, op=lambda a, b: a + b, root=0)

        res = run_spmd(size, prog)
        assert res.results[0] == size * (size + 1) // 2

    def test_allreduce(self, size):
        def prog(comm):
            return comm.allreduce(comm.rank, op=max)

        assert run_spmd(size, prog).results == [size - 1] * size

    def test_barrier(self, size):
        def prog(comm):
            comm.barrier()
            return comm.rank

        assert run_spmd(size, prog).results == list(range(size))


class TestCollectiveValidation:
    def test_scatter_needs_full_list(self):
        def prog(comm):
            if comm.rank == 0:
                comm.scatter([1], root=0)  # wrong length for size 2
            else:
                comm.recv(0, tag=(1 << 20) + 2)
            return None

        with pytest.raises(RuntimeError, match="rank 0"):
            run_spmd(2, prog)

    def test_alltoall_needs_full_list(self):
        def prog(comm):
            comm.alltoall([1])

        with pytest.raises(RuntimeError):
            run_spmd(2, prog)


class TestClocksAndMetering:
    def test_events_recorded(self):
        def prog(comm):
            comm.send(np.zeros(100), (comm.rank + 1) % comm.size, tag=3)
            comm.recv((comm.rank - 1) % comm.size, tag=3)

        res = run_spmd(3, prog)
        sends = [e for e in res.ledger.events if e.kind == "send"]
        assert len(sends) == 3
        assert all(e.nbytes == 800 for e in sends)

    def test_modeled_time_includes_message_costs(self):
        slow = CostModel(alpha=0.5, beta=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send("x", 1)
            elif comm.rank == 1:
                comm.recv(0)

        res = run_spmd(2, prog, cost_model=slow)
        assert res.modeled_time() >= 0.5

    def test_compute_attributed(self):
        def prog(comm):
            # A real CPU burn so thread_time moves.
            x = 0
            for i in range(200_000):
                x += i * i
            comm.barrier()
            return x

        res = run_spmd(2, prog)
        assert (res.ledger.compute > 0).all()

    def test_recv_synchronises_clock(self):
        slow = CostModel(alpha=1.0, beta=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send("x", 1)
                return 0.0
            comm.recv(0)
            comm.finalize()
            return None

        res = run_spmd(2, prog, cost_model=slow)
        # Receiver's clock is at least the sender's send completion time.
        assert res.ledger.clock[1] >= 1.0


class TestFailure:
    def test_error_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv((comm.rank + 1) % comm.size, tag=9)

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(3, prog)

    def test_rank_args(self):
        def prog(comm, a, b):
            return (comm.rank, a, b)

        res = run_spmd(2, prog, rank_args=[(1, 2), (3, 4)])
        assert res.results == [(0, 1, 2), (1, 3, 4)]

    def test_rank_args_validation(self):
        with pytest.raises(ValueError, match="one tuple per rank"):
            run_spmd(2, lambda comm: None, rank_args=[()])

    def test_bad_nranks(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_shared_args_and_kwargs(self):
        def prog(comm, x, y=0):
            return x + y + comm.rank

        res = run_spmd(2, prog, args=(10,), y=5)
        assert res.results == [15, 16]
