"""AlignmentGateway: admission, rate limiting, coalescing, priorities."""

import time

import pytest

from repro.engine import AlignmentService
from repro.parcomp.backends import bound_malloc_arenas
from repro.serve.gateway import (
    AlignmentGateway,
    QueueFullError,
    RateLimitedError,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill(self):
        bucket = TokenBucket(rate=1000.0, burst=1.0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        time.sleep(0.01)
        assert bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestSubmitAndWait:
    def test_basic_roundtrip(self, make_request, counting_engine):
        with AlignmentGateway(n_workers=2, max_queue=8) as gw:
            ticket = gw.submit(make_request())
            result = ticket.wait(timeout=30)
            assert result.alignment.n_rows == 5
            assert ticket.status == "done" and ticket.done
            assert not ticket.coalesced
            metrics = gw.metrics()
            assert metrics["admitted"] == metrics["completed"] == 1
            assert metrics["latency"]["count"] == 1
            assert metrics["service"]["computed"] == 1

    def test_run_convenience(self, make_request, counting_engine):
        with AlignmentGateway(n_workers=1, max_queue=8) as gw:
            assert gw.run(make_request()).alignment.n_rows == 5

    def test_engine_failure_on_ticket(self, make_request):
        with AlignmentGateway(n_workers=1, max_queue=8) as gw:
            ticket = gw.submit(make_request(engine="does-not-exist"))
            with pytest.raises(KeyError):
                ticket.wait(timeout=30)
            assert ticket.status == "failed"
            assert "KeyError" in ticket.to_dict()["error"]
            assert gw.metrics()["failed"] == 1

    def test_ticket_lookup(self, make_request, counting_engine):
        with AlignmentGateway(n_workers=1, max_queue=8) as gw:
            ticket = gw.submit(make_request())
            assert gw.get_ticket(ticket.ticket_id) is ticket
            assert gw.get_ticket("nope") is None
            ticket.wait(timeout=30)

    def test_submit_after_close_raises(self, make_request):
        gw = AlignmentGateway(n_workers=1, max_queue=8)
        gw.close()
        with pytest.raises(RuntimeError, match="closed"):
            gw.submit(make_request())

    def test_close_is_idempotent_and_drains(self, make_request,
                                            counting_engine):
        gw = AlignmentGateway(n_workers=1, max_queue=8)
        tickets = [gw.submit(make_request(seed=i)) for i in range(3)]
        gw.close()
        gw.close()
        assert all(t.status == "done" for t in tickets)

    def test_unknown_priority(self, make_request):
        with AlignmentGateway(n_workers=1, max_queue=8) as gw:
            with pytest.raises(ValueError, match="priority"):
                gw.submit(make_request(), priority="urgent")


class TestCoalescing:
    def test_cross_client_coalesce(self, make_request, counting_engine):
        """Identical in-flight requests from different clients share one
        computation (the engine-call-counter proof)."""
        counting_engine.release.clear()  # hold the first mid-run
        with AlignmentGateway(n_workers=2, max_queue=8) as gw:
            first = gw.submit(make_request(), client_id="alice")
            assert counting_engine.started.wait(timeout=10)
            second = gw.submit(make_request(), client_id="bob")
            assert second.coalesced and not first.coalesced
            counting_engine.release.set()
            r1 = first.wait(timeout=30)
            r2 = second.wait(timeout=30)
            assert r1.alignment == r2.alignment
            assert counting_engine.calls == 1
            metrics = gw.metrics()
            assert metrics["coalesced"] == 1 and metrics["admitted"] == 1

    def test_coalesced_requests_take_no_queue_slot(self, make_request,
                                                   counting_engine):
        counting_engine.release.clear()
        with AlignmentGateway(n_workers=1, max_queue=1) as gw:
            first = gw.submit(make_request())
            assert counting_engine.started.wait(timeout=10)
            # The queue (bound 1) is empty again; fill it with a distinct
            # request, then show an identical request still gets in by
            # coalescing while a second distinct one is refused.
            gw.submit(make_request(seed=1))
            coalesced = gw.submit(make_request())
            assert coalesced.coalesced
            with pytest.raises(QueueFullError):
                gw.submit(make_request(seed=2))
            counting_engine.release.set()
            first.wait(timeout=30)


class TestAdmissionControl:
    def test_queue_full_rejects(self, make_request, counting_engine):
        counting_engine.release.clear()  # jam the single worker
        with AlignmentGateway(n_workers=1, max_queue=2) as gw:
            running = gw.submit(make_request())
            assert counting_engine.started.wait(timeout=10)
            gw.submit(make_request(seed=1))
            gw.submit(make_request(seed=2))
            with pytest.raises(QueueFullError):
                gw.submit(make_request(seed=3))
            metrics = gw.metrics()
            assert metrics["rejected_queue_full"] == 1
            assert metrics["queue_depth"] == 2
            counting_engine.release.set()
            running.wait(timeout=30)

    def test_low_rate_default_burst_still_admits(self, make_request,
                                                 counting_engine):
        """rate < 0.5 must not default to a bucket too small to ever
        hold the one token a request costs."""
        with AlignmentGateway(n_workers=1, max_queue=8, rate=0.3) as gw:
            gw.run(make_request())  # admitted, not locked out forever

    def test_explicit_sub_token_burst_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            AlignmentGateway(n_workers=1, max_queue=8, rate=5.0, burst=0.5)

    def test_nonpositive_rate_rejected_at_construction(self):
        """rate=0 must fail at boot, not 400 on every request."""
        with pytest.raises(ValueError, match="rate"):
            AlignmentGateway(n_workers=1, max_queue=8, rate=0.0)

    def test_burst_without_rate_rejected(self):
        """A silently-ignored burst would look like rate limiting."""
        with pytest.raises(ValueError, match="burst without rate"):
            AlignmentGateway(n_workers=1, max_queue=8, burst=5.0)

    def test_rate_limit_per_client(self, make_request, counting_engine):
        with AlignmentGateway(
            n_workers=1, max_queue=16, rate=0.001, burst=1.0
        ) as gw:
            gw.submit(make_request(), client_id="greedy")
            with pytest.raises(RateLimitedError):
                gw.submit(make_request(seed=1), client_id="greedy")
            # Other clients have their own bucket.
            other = gw.submit(make_request(seed=2), client_id="polite")
            other.wait(timeout=30)
            assert gw.metrics()["rejected_rate_limited"] == 1

    def test_queue_full_does_not_drain_rate_tokens(self, make_request,
                                                   counting_engine):
        """A 503 must not also debit the bucket: a client retrying a full
        queue is not over its rate."""
        counting_engine.release.clear()
        with AlignmentGateway(
            n_workers=1, max_queue=1, rate=0.001, burst=3.0
        ) as gw:
            running = gw.submit(make_request(), client_id="c")  # 1 token
            assert counting_engine.started.wait(timeout=10)
            gw.submit(make_request(seed=1), client_id="c")  # fills queue
            for _ in range(5):  # refusals, none of which cost a token
                with pytest.raises(QueueFullError):
                    gw.submit(make_request(seed=2), client_id="c")
            counting_engine.release.set()
            running.wait(timeout=30)
            # Queue drained; the client's last token still admits.
            gw.submit(make_request(seed=3), client_id="c").wait(timeout=30)

    def test_priority_dispatch_order(self, make_request, counting_engine):
        """With one worker jammed, a later high-priority request runs
        before an earlier low-priority one."""
        counting_engine.release.clear()
        with AlignmentGateway(n_workers=1, max_queue=8) as gw:
            gw.submit(make_request())  # the jam
            assert counting_engine.started.wait(timeout=10)
            low = gw.submit(make_request(seed=1), priority="low")
            high = gw.submit(make_request(seed=2), priority="high")
            counting_engine.release.set()
            low.wait(timeout=30)
            high.wait(timeout=30)
            # When the work finished, not when an observer saw it.
            assert high.completed_at < low.completed_at


class TestSharedService:
    def test_external_service_usable_after_close(self, make_request,
                                                 counting_engine):
        """The service owns nothing the gateway could release: closing
        the gateway leaves it serving callers of its own."""
        svc = AlignmentService(max_workers=1)
        gw = AlignmentGateway(svc, n_workers=1, max_queue=4)
        gw.run(make_request())
        gw.close()
        svc.run(make_request(seed=1))
        assert svc.run(make_request()) is not None  # still cached
        assert counting_engine.calls == 2

    def test_metrics_shape(self, make_request, counting_engine):
        with AlignmentGateway(n_workers=1, max_queue=4) as gw:
            gw.run(make_request())
            metrics = gw.metrics()
            for key in ("admitted", "coalesced", "rejected_queue_full",
                        "rejected_rate_limited", "completed", "failed",
                        "queue_depth", "inflight", "latency", "service",
                        "dp.kernel", "malloc.arena_max"):
                assert key in metrics
            assert metrics["malloc.arena_max"] == bound_malloc_arenas()
            assert metrics["latency"]["p50_s"] is not None
            assert metrics["latency"]["p99_s"] is not None
            # JSON-able end to end.
            import json

            json.dumps(metrics)

    def test_every_default_can_be_read_back(self, tmp_path):
        """/metrics reports the three effective defaults whole -- placement
        (out / store_dir) included, not just names and backends."""
        distance = {
            "estimator": "kmer-fraction", "k": 5, "backend": "threads",
            "workers": 2, "out": "memmap", "store_dir": str(tmp_path),
        }
        tree = {"builder": "anchor", "anchors": 4, "anchor_base": "nj",
                "anchor_seed": 3}
        with AlignmentGateway(
            n_workers=1, default_backend="Threads",
            default_distance=distance, default_tree=tree,
        ) as gw:
            metrics = gw.metrics()
        assert metrics["default_backend"] == "threads"
        assert metrics["default_tree"] == tree
        for field, value in distance.items():
            assert metrics["default_distance"][field] == value

    def test_no_stage_defaults_report_none_and_rewrite_nothing(
        self, make_request, counting_engine
    ):
        request = make_request(engine="muscle")
        with AlignmentGateway(n_workers=1) as gw:
            metrics = gw.metrics()
            assert metrics["default_distance"] is None
            assert metrics["default_tree"] is None
            assert gw.submit(request).request_hash == request.content_hash()

    def test_distributed_engine_never_inherits_a_backend(self, make_request):
        """parallel-baseline places its own ranks: it takes the distance
        default's estimator and placement-free fields, not backend /
        workers, and the tree default whole (it has no placement)."""
        request = make_request(engine="parallel-baseline")
        with AlignmentGateway(
            n_workers=1,
            default_distance={"estimator": "kmer-fraction",
                              "backend": "threads", "workers": 2},
            default_tree={"builder": "upgma"},
        ) as gw:
            ticket = gw.submit(request)
            result = ticket.wait(60)
            # The entry drops its request once computed: fold it again.
            effective = gw._effective_request(request)
        assert ticket.request_hash == effective.content_hash()
        folded = effective.engine_kwargs
        assert folded["distance"]["estimator"] == "kmer-fraction"
        assert folded["distance"]["backend"] is None
        assert folded["distance"]["workers"] is None
        assert folded["tree"]["builder"] == "upgma"
        assert result.alignment.n_rows == 5
