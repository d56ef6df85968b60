"""Traffic generator: determinism, mixes, open/closed-loop driving."""

import pytest

from repro.engine import AlignmentService
from repro.serve import (
    AlignmentGateway,
    ResultStore,
    WorkloadConfig,
    build_request_pool,
    mix_indices,
    run_workload,
)


class TestDeterminism:
    def test_same_seed_same_pool(self):
        cfg = WorkloadConfig(pool_size=4, family_size=4, family_length=30)
        pool_a = build_request_pool(cfg)
        pool_b = build_request_pool(cfg)
        assert [r.content_hash() for r in pool_a] == [
            r.content_hash() for r in pool_b
        ]

    def test_different_seed_different_pool(self):
        cfg_a = WorkloadConfig(pool_size=2, family_size=4, family_length=30,
                               seed=0)
        cfg_b = WorkloadConfig(pool_size=2, family_size=4, family_length=30,
                               seed=1)
        assert {r.content_hash() for r in build_request_pool(cfg_a)}.isdisjoint(
            {r.content_hash() for r in build_request_pool(cfg_b)}
        )

    def test_mix_streams_are_seeded(self):
        cfg = WorkloadConfig(mix="zipf", pool_size=16)
        assert mix_indices(cfg, 50, 0) == mix_indices(cfg, 50, 0)
        assert mix_indices(cfg, 50, 0) != mix_indices(cfg, 50, 1)


class TestMixes:
    def test_uniform_covers_pool(self):
        cfg = WorkloadConfig(mix="uniform", pool_size=8)
        indices = mix_indices(cfg, 400, 0)
        assert set(indices) == set(range(8))

    def test_zipf_is_head_heavy(self):
        cfg = WorkloadConfig(mix="zipf", pool_size=16, zipf_s=1.5)
        indices = mix_indices(cfg, 1000, 0)
        head = sum(1 for i in indices if i < 4)
        assert head > 600  # the top quarter takes the clear majority

    def test_repeat_mix_concentrates_on_hot_set(self):
        cfg = WorkloadConfig(mix="repeat", pool_size=20, hot_fraction=0.1,
                             repeat_fraction=0.8)
        indices = mix_indices(cfg, 1000, 0)
        hot = sum(1 for i in indices if i < 2)
        assert hot > 700  # 80% + uniform spillover

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(mix="bursty")
        with pytest.raises(ValueError):
            WorkloadConfig(mode="half-open")
        with pytest.raises(ValueError):
            WorkloadConfig(n_requests=0)


class TestClosedLoop:
    def test_repeat_mix_end_to_end(self, counting_engine):
        cfg = WorkloadConfig(
            n_requests=64, n_clients=4, mode="closed", mix="repeat",
            pool_size=6, engine="serve-counting", family_size=4,
            family_length=30,
        )
        with AlignmentGateway(n_workers=4, max_queue=64) as gw:
            report = run_workload(gw, cfg)
        reqs = report["requests"]
        assert reqs["ok"] == 64 and reqs["errors"] == 0
        # Every distinct request computed at most once...
        assert counting_engine.calls <= cfg.pool_size
        # ...and the hot set repeated, so caching + coalescing did work.
        gw_metrics = report["gateway"]
        assert gw_metrics["coalesced"] + gw_metrics["service"]["hits"] > 0
        assert report["latency"]["p50_s"] is not None
        assert report["latency"]["p99_s"] >= report["latency"]["p50_s"]
        assert report["throughput_rps"] > 0

    def test_uneven_request_split(self, counting_engine):
        cfg = WorkloadConfig(
            n_requests=10, n_clients=3, mode="closed", mix="uniform",
            pool_size=3, engine="serve-counting", family_size=4,
            family_length=30,
        )
        with AlignmentGateway(n_workers=2, max_queue=32) as gw:
            report = run_workload(gw, cfg)
        assert report["requests"]["ok"] == 10


class TestOpenLoop:
    def test_poisson_arrivals_complete(self, counting_engine):
        cfg = WorkloadConfig(
            n_requests=40, n_clients=4, mode="open", mix="zipf",
            pool_size=5, arrival_rate=2000.0, engine="serve-counting",
            family_size=4, family_length=30,
        )
        with AlignmentGateway(n_workers=4, max_queue=64) as gw:
            report = run_workload(gw, cfg)
        reqs = report["requests"]
        assert reqs["ok"] + reqs["rejected"] == 40
        assert reqs["errors"] == 0

    def test_overload_is_rejected_not_erroring(self, counting_engine):
        """A tiny queue under a fast open-loop burst sheds load via
        admission control -- rejections, not failures."""
        counting_engine.release.clear()  # everything blocks: queue fills
        cfg = WorkloadConfig(
            n_requests=30, n_clients=2, mode="open", mix="uniform",
            pool_size=30, arrival_rate=10000.0, engine="serve-counting",
            family_size=4, family_length=30, wait_timeout=30.0,
        )
        gw = AlignmentGateway(n_workers=1, max_queue=2)
        try:
            import threading

            threading.Timer(0.3, counting_engine.release.set).start()
            report = run_workload(gw, cfg)
        finally:
            counting_engine.release.set()
            gw.close()
        reqs = report["requests"]
        assert reqs["rejected"] > 0
        assert reqs["errors"] == 0
        assert report["gateway"]["rejected_queue_full"] == reqs["rejected"]


class TestRobustness:
    def test_closed_gateway_reports_errors_not_vanished_requests(
            self, counting_engine):
        """A hard submit failure is counted, never silently dropped."""
        cfg = WorkloadConfig(
            n_requests=8, n_clients=2, mode="closed", mix="uniform",
            pool_size=2, engine="serve-counting", family_size=4,
            family_length=30,
        )
        gw = AlignmentGateway(n_workers=1, max_queue=8)
        gw.close()  # every submit now raises RuntimeError
        report = run_workload(gw, cfg)
        reqs = report["requests"]
        assert reqs["errors"] == 8
        assert reqs["ok"] + reqs["errors"] + reqs["rejected"] == 8


class TestStoreIntegration:
    def test_second_run_served_from_disk(self, tmp_path, counting_engine):
        cfg = WorkloadConfig(
            n_requests=30, n_clients=3, mode="closed", mix="zipf",
            pool_size=4, engine="serve-counting", family_size=4,
            family_length=30,
        )
        svc = AlignmentService(max_workers=2, cache=ResultStore(tmp_path))
        with AlignmentGateway(svc, n_workers=2, max_queue=32) as gw:
            run_workload(gw, cfg)
        first_calls = counting_engine.calls
        assert first_calls <= cfg.pool_size

        # Fresh service + store instance over the same directory: the
        # whole workload is served without a single engine call.
        svc = AlignmentService(max_workers=2, cache=ResultStore(tmp_path))
        with AlignmentGateway(svc, n_workers=2, max_queue=32) as gw:
            report = run_workload(gw, cfg)
        assert counting_engine.calls == first_calls
        assert report["requests"]["errors"] == 0
        assert report["gateway"]["service"]["computed"] == 0


class TestObservability:
    def test_traced_report_gains_stage_breakdown(self, counting_engine):
        from repro.obs.tracing import disable_tracing, drain_spans, enable_tracing

        cfg = WorkloadConfig(
            n_requests=8, n_clients=2, mode="closed", mix="uniform",
            pool_size=3, engine="serve-counting", family_size=4,
            family_length=30,
        )
        drain_spans()
        enable_tracing()
        try:
            with AlignmentGateway(n_workers=2, max_queue=16) as gw:
                report = run_workload(gw, cfg)
        finally:
            disable_tracing()
            drain_spans()
        assert report["trace_spans"] > 0
        roots = {node["stage"]: node for node in report["stage_breakdown"]}
        # The gateway worker runs the service on its own thread, so each
        # execution nests under the dispatch that asked for it.
        assert "service.execute" not in roots
        children = {
            node["stage"] for node in roots["gateway.compute"]["children"]
        }
        assert "service.execute" in children

    def test_untraced_report_has_no_breakdown(self, counting_engine):
        cfg = WorkloadConfig(
            n_requests=4, n_clients=2, mode="closed", mix="uniform",
            pool_size=2, engine="serve-counting", family_size=4,
            family_length=30,
        )
        with AlignmentGateway(n_workers=2, max_queue=16) as gw:
            report = run_workload(gw, cfg)
        assert "stage_breakdown" not in report

    def test_client_percentiles_use_shared_helper(self, counting_engine):
        """p50/p90/p99 in the report come from the obs nearest-rank
        definition, the one percentile implementation in the codebase."""
        import repro.serve.gateway as gateway

        cfg = WorkloadConfig(
            n_requests=10, n_clients=2, mode="closed", mix="uniform",
            pool_size=3, engine="serve-counting", family_size=4,
            family_length=30,
        )
        with AlignmentGateway(n_workers=2, max_queue=16) as gw:
            report = run_workload(gw, cfg)
        lat = report["latency"]
        assert lat["count"] == 10
        assert lat["p50_s"] <= lat["p90_s"] <= lat["p99_s"] <= lat["max_s"]
        assert not hasattr(gateway, "percentile")
