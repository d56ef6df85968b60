"""Byte-identity of the pool backend against serial and threads.

The pool joins the backend contract of :mod:`repro.parcomp.backends`:
*where* ranks run is invisible to the program.  Every estimator and
the full Sample-Align-D pipeline must produce the same bytes through warm workers as they do serially -- and the ledgers must
carry the same message pattern.
"""

import numpy as np
import pytest

from repro.core.driver import sample_align_d
from repro.distance import DistanceConfig, all_pairs, available_estimators
from repro.engine import AlignRequest, get_engine
from repro.parcomp import get_backend, run_spmd
from repro.pool import PoolBackend


def _collective_mix(comm):
    word = comm.bcast("seed" if comm.rank == 0 else None, root=0)
    part = comm.scatter(
        [i * 10 for i in range(comm.size)] if comm.rank == 0 else None, root=0
    )
    comm.barrier()
    everyone = comm.allgather(part + comm.rank)
    total = comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
    return (word, everyone, total)


class TestRegistry:
    def test_pool_is_registered(self):
        from repro.parcomp import available_backends

        assert "pool" in available_backends()

    def test_get_backend_resolves_pool(self):
        assert isinstance(get_backend("pool"), PoolBackend)

    def test_configs_accept_pool(self):
        assert get_engine("sample-align-d", backend="pool").backend == "pool"
        assert DistanceConfig(backend="pool").backend == "pool"


class TestSpmdEquivalence:
    def test_results_and_ledger_match_threads(self, pool):
        by_backend = {
            name: run_spmd(4, _collective_mix, backend=name)
            for name in ("threads", "pool")
        }
        assert (
            by_backend["threads"].results == by_backend["pool"].results
        )

        def per_rank(res):
            counts = [0] * 4
            nbytes = [0] * 4
            for e in res.ledger.events:
                counts[e.src] += 1
                nbytes[e.src] += e.nbytes
            return counts, nbytes

        assert per_rank(by_backend["threads"]) == per_rank(by_backend["pool"])
        assert (
            by_backend["threads"].ledger.bytes_by_kind()
            == by_backend["pool"].ledger.bytes_by_kind()
        )


class TestDistanceEquivalence:
    @pytest.fixture(scope="class")
    def seqs(self, diverse_family):
        return list(diverse_family.sequences)[:16]

    @pytest.mark.parametrize("estimator", sorted(available_estimators()))
    def test_all_pairs_identical_to_serial(self, pool, seqs, estimator):
        serial = all_pairs(seqs, estimator)
        pooled = all_pairs(seqs, estimator, backend="pool", workers=4)
        assert np.array_equal(serial, pooled)


class TestSampleAlignDEquivalence:
    @pytest.fixture(scope="class")
    def family(self, diverse_family):
        return list(diverse_family.sequences)[:24]

    def test_identical_alignment_and_backend_recorded(self, pool, family):
        threads = sample_align_d(family, n_procs=4, backend="threads")
        pooled = sample_align_d(family, n_procs=4, backend="pool")
        assert threads.alignment.to_fasta() == pooled.alignment.to_fasta()
        assert threads.sp == pytest.approx(pooled.sp)
        assert pooled.backend == "pool"
        assert "backend=pool" in pooled.summary()

    def test_engine_kwargs_backend_drives_run(self, pool, family):
        request = AlignRequest(
            sequences=tuple(family[:8]),
            engine="sample-align-d",
            n_procs=2,
            engine_kwargs={"backend": "pool"},
        )
        engine = get_engine(request.engine, **request.engine_kwargs)
        assert engine.run(request).diagnostics["backend"] == "pool"

    def test_repeated_runs_reuse_the_same_workers(self, pool, family):
        pool.warm_up(4)
        pids = set(pool.stats()["worker_pids"])
        respawns = pool.stats()["respawns"]
        for _ in range(2):
            sample_align_d(family[:12], n_procs=4, backend="pool")
        assert set(pool.stats()["worker_pids"]) == pids
        assert pool.stats()["respawns"] == respawns
