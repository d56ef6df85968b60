"""The gateway as pool owner: startup warm-up, metrics, crash survival,
and default-pool restoration on close.
"""

import os
import signal

import pytest

from repro.engine import AlignRequest
from repro.pool import WorkerPool, get_default_pool
from repro.serve import AlignmentGateway

from tests.pool.leaks import live_workers


@pytest.fixture()
def seqs(small_family):
    return tuple(small_family.sequences)


def _request(seqs, **kw):
    return AlignRequest(sequences=seqs, engine="sample-align-d", n_procs=2,
                        **kw)


class TestCallerOwnedPool:
    def test_requests_run_on_the_given_pool(self, pool, seqs):
        runs_before = pool.stats()["runs"]
        with AlignmentGateway(
            n_workers=1, default_backend="pool", pool=pool
        ) as gw:
            result = gw.run(_request(seqs), timeout=120)
            assert result.diagnostics["backend"] == "pool"
            assert gw.pool is pool
            assert pool.stats()["runs"] > runs_before
        assert not pool.closed  # caller-owned: close() must not touch it

    def test_metrics_surface_pool_stats(self, pool, seqs):
        with AlignmentGateway(
            n_workers=1, default_backend="pool", pool=pool
        ) as gw:
            gw.run(_request(seqs), timeout=120)
            stats = gw.metrics()["pool"]
            assert stats["name"] == pool.name
            assert stats["runs"] >= 1
            assert stats["workers_alive"] >= 1
            assert "transport" in stats and "respawns" in stats


class TestGatewayOwnedPool:
    def test_created_warmed_and_closed_with_the_gateway(self, seqs):
        gw = AlignmentGateway(n_workers=1, default_backend="pool")
        try:
            assert gw.pool is not None
            assert gw.pool.stats()["workers_alive"] >= 1  # warmed at start
            assert get_default_pool() is gw.pool
            result = gw.run(_request(seqs), timeout=120)
            assert result.diagnostics["backend"] == "pool"
        finally:
            gw.close()
        assert gw.pool.closed
        assert live_workers(gw.pool) == []

    def test_default_pool_restored_on_close(self, pool, seqs):
        assert get_default_pool() is pool
        with AlignmentGateway(n_workers=1, default_backend="pool") as gw:
            assert get_default_pool() is gw.pool
            assert get_default_pool() is not pool
        assert get_default_pool() is pool

    def test_distance_backend_alone_wants_a_pool(self):
        with AlignmentGateway(
            n_workers=1, default_distance={"backend": "pool"}
        ) as gw:
            assert gw.pool is not None

    def test_no_pool_backend_means_no_pool(self):
        with AlignmentGateway(n_workers=1) as gw:
            assert gw.pool is None
            assert "pool" not in gw.metrics()


class TestCrashSurvival:
    def test_gateway_keeps_serving_after_a_worker_dies(self, pool, seqs):
        with AlignmentGateway(
            n_workers=1, default_backend="pool", pool=pool
        ) as gw:
            gw.run(_request(seqs), timeout=120)
            victim = gw.metrics()["pool"]["worker_pids"][0]
            os.kill(victim, signal.SIGKILL)
            # A *different* request (no cache hit), immediately: the
            # dispatcher detects the death, resets, and retries.
            second = gw.run(_request(seqs, seed=1), timeout=120)
            assert second.alignment.n_rows == len(seqs)
            assert second.diagnostics["backend"] == "pool"
            assert gw.metrics()["pool"]["respawns"] > 0
