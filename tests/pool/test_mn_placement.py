"""M:N rank placement and the unset backend's one placement rule.

``p`` ranks on ``k`` pool workers: every worker hosts a block of the
ranks as threads, and the alignment is byte-identical to ``threads``
for every ``(p, k)``.  With the backend unset,
:func:`repro.core.driver.placement` (over
:func:`repro.parcomp.backends.place`) puts a big enough Sample-Align-D
job on a pool of every usable core -- the cgroup quota included -- and
anything else on ``threads``; a gateway creates that pool on the first
request it places there and leaves no process behind.
"""

import multiprocessing as mp
import os
import subprocess
import sys

import pytest

from repro.core import driver
from repro.core.driver import (
    AUTO_POOL_MIN_CELLS,
    placement,
    sad_cells,
    sample_align_d,
)
from repro.datagen.rose import generate_family
from repro.engine import AlignRequest, run_request
from repro.obs.metrics import registry
from repro.obs.prom import render_prometheus
from repro.parcomp import backends, place, run_spmd, usable_cores
from repro.pool import PoolBackend, WorkerPool, set_default_pool
from repro.seq.sequence import Sequence
from repro.serve import AlignmentGateway

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def family():
    """Twelve sequences: p = 16 leaves buckets empty."""
    return list(generate_family(
        n_sequences=12, mean_length=50, relatedness=300, seed=3,
        track_alignment=False,
    ).sequences)


@pytest.fixture()
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(backends, "_read_cpu_max", lambda: None)


def _place_a_big_job(comm):
    return place(10**9, 1, gil_free=False)


def _uniform(n, length):
    return [Sequence(f"s{i}", "A" * length) for i in range(n)]


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def threads(self, family):
        return {
            p: sample_align_d(family, n_procs=p, backend="threads")
            .alignment.to_fasta()
            for p in (1, 2, 3, 5, 8, 16)
        }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fasta_matches_threads_for_every_p(self, family, threads, k):
        with WorkerPool(max_workers=k) as own:
            for p, expected in threads.items():
                res = sample_align_d(
                    family, n_procs=p, backend=PoolBackend(own)
                )
                assert res.alignment.to_fasta() == expected, (p, k)
                used = min(p, k)
                assert res.placement == (
                    f"pool k={used} ranks/worker={-(-p // used)}"
                )


class TestPlacementRule:
    def test_big_job_goes_to_a_pool_of_every_core(self, two_cores):
        seqs = _uniform(128, 200)
        assert sad_cells(seqs) >= AUTO_POOL_MIN_CELLS
        assert placement(seqs, 16) == backends.Placement("pool", 2)
        assert placement(seqs, 1) == backends.Placement("threads", 1)

    def test_the_benchmark_probe_shape_stays_on_threads(self, two_cores):
        probe = list(generate_family(
            n_sequences=6, mean_length=60, relatedness=250.0, seed=0,
            track_alignment=False,
        ).sequences)
        assert sad_cells(probe) < AUTO_POOL_MIN_CELLS
        assert placement(probe, 16).backend == "threads"

    def test_one_core_and_a_rank_stay_on_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert place(10**9, 1, gil_free=False).backend == "threads"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(backends, "_read_cpu_max", lambda: None)
        assert place(10**9, 1, gil_free=False).backend == "pool"
        inside = run_spmd(2, _place_a_big_job, backend="threads")
        assert inside.results == [backends.Placement("threads", 1)] * 2

    def test_a_pool_workers_ranks_stay_on_threads(self, pool):
        inside = run_spmd(3, _place_a_big_job, backend=PoolBackend(pool))
        assert inside.results == [backends.Placement("threads", 1)] * 3

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_a_process_narrowed_to_one_core_resolves_to_threads(self):
        script = (
            "import os\n"
            "from repro.core.driver import placement\n"
            "from repro.seq.sequence import Sequence\n"
            "seqs = [Sequence(f's{i}', 'A' * 200) for i in range(128)]\n"
            "print(placement(seqs, 16).backend)\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(placement(seqs, 16).backend)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120, check=True,
        )
        before, after = proc.stdout.split()
        assert after == "threads"
        assert before == ("pool" if usable_cores() >= 2 else "threads")


class TestCgroupQuota:
    @pytest.mark.parametrize("text, cores", [
        ("200000 100000\n", 2),
        ("150000 100000\n", 2),  # 1.5 CPUs: ceil
        ("50000 100000\n", 1),
        ("max 100000\n", 64),
        ("6400000 100000\n", 64),  # quota above the affinity set
        ("nonsense", 64),
        (None, 64),
    ])
    def test_quota_caps_the_affinity_set(self, monkeypatch, text, cores):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(backends, "_read_cpu_max", lambda: text)
        assert usable_cores() == cores

    def test_a_quota_of_two_starts_two_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(backends, "_read_cpu_max",
                            lambda: "200000 100000")
        assert placement(_uniform(128, 200), 16) == backends.Placement(
            "pool", 2
        )


class TestGatewayOwnsTheLazyPool:
    @pytest.fixture()
    def no_default_pool(self):
        previous = set_default_pool(None)
        try:
            yield
        finally:
            set_default_pool(previous)

    def test_first_pool_request_creates_it_and_close_ends_it(
        self, monkeypatch, two_cores, no_default_pool, family
    ):
        monkeypatch.setattr(driver, "AUTO_POOL_MIN_CELLS", 0)
        before = {p.pid for p in mp.active_children()}
        gateway = AlignmentGateway(n_workers=1)
        try:
            assert gateway.pool is None  # nothing until a request needs it
            first = AlignRequest(sequences=tuple(family), n_procs=4)
            result = gateway.run(first, timeout=120)
            assert result.diagnostics["placement"] == (
                "pool k=2 ranks/worker=2"
            )
            pool = gateway.pool
            assert pool is not None and pool.stats()["runs"] == 1
            pids = set(pool.stats()["worker_pids"])
            assert len(pids) == 2
            # A direct solve lands on the gateway's pool.
            run_request(AlignRequest(sequences=tuple(family[:10]), n_procs=4))
            assert pool.stats()["runs"] == 2
        finally:
            gateway.close()
        assert pool.closed
        left = {p.pid for p in mp.active_children()} - before
        assert left == set()
        assert not any(_alive(pid) for pid in pids)

    def test_a_threads_request_creates_no_pool(
        self, two_cores, no_default_pool, family
    ):
        with AlignmentGateway(n_workers=1) as gateway:
            res = gateway.run(
                AlignRequest(sequences=tuple(family), n_procs=16), timeout=60
            )
            assert res.diagnostics["placement"].startswith("threads")
            assert gateway.pool is None


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestObservability:
    def test_metrics_count_each_placement(self, family):
        def counts(gateway):
            m = gateway.metrics()
            return m["spmd.placement.threads"], m["spmd.placement.pool"]

        with WorkerPool(max_workers=2) as own, AlignmentGateway(
            n_workers=1
        ) as gateway:
            threads0, pool0 = counts(gateway)
            sample_align_d(family, n_procs=3, backend="threads")
            sample_align_d(family, n_procs=3, backend=PoolBackend(own))
            assert counts(gateway) == (threads0 + 1, pool0 + 1)
        prom = render_prometheus(registry().snapshot())
        assert "spmd_placement_threads" in prom
        assert "spmd_placement_pool" in prom

    def test_the_dispatch_span_names_the_placement(self, family, traced):
        with WorkerPool(max_workers=2) as own:
            _, records = traced(lambda: (
                sample_align_d(family, n_procs=5, backend="threads"),
                sample_align_d(family, n_procs=5, backend=PoolBackend(own)),
            ))
        assert [
            r.attrs["placement"] for r in records if r.name == "spmd.dispatch"
        ] == ["threads k=1 ranks/worker=5", "pool k=2 ranks/worker=3"]
