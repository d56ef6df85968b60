"""One scheduler: a served request runs on the thread that asks.

The gateway's workers are the only threads between admission and the
engine -- the service they call starts none of its own -- and the
service's ``max_workers`` bounds the misses computing at once across
every thread that calls it, without ever holding up a cache hit.
"""

import threading
import time

import pytest

from repro.engine import AlignmentService, register_engine, unregister_engine
from repro.engine.api import AlignResult
from repro.seq.alignment import Alignment
from repro.serve import AlignmentGateway


class ThreadNameEngine:
    """Toy engine that records the name of the thread it runs on."""

    name = "thread-name"
    kind = "sequential"
    names: list = []

    def run(self, request):
        ThreadNameEngine.names.append(threading.current_thread().name)
        aln = Alignment.from_rows(
            [s.id for s in request.sequences],
            [s.residues.ljust(40, "-")[:40] for s in request.sequences],
        )
        return AlignResult(
            alignment=aln, engine=self.name, sp=0.0, wall_time=0.0,
            request_hash=request.content_hash(),
        )


@pytest.fixture()
def thread_engine():
    ThreadNameEngine.names = []
    register_engine(
        "thread-name", lambda **kw: ThreadNameEngine(), overwrite=True
    )
    yield ThreadNameEngine
    unregister_engine("thread-name")


def test_a_miss_runs_on_the_gateway_worker(make_request, thread_engine):
    before = {t.name for t in threading.enumerate()}
    with AlignmentGateway(n_workers=2) as gw:
        gw.run(make_request(engine="thread-name"), timeout=30)
        started = {t.name for t in threading.enumerate()} - before
    (ran_on,) = thread_engine.names
    assert ran_on.startswith("gateway-worker-")
    # The gateway's two workers are every thread the stack started.
    assert started == {"gateway-worker-0", "gateway-worker-1"}


def test_a_batch_runs_on_the_calling_thread(make_request, thread_engine):
    AlignmentService(max_workers=2).run_batch(
        [make_request(engine="thread-name", seed=s) for s in (1, 2)]
    )
    assert thread_engine.names == [threading.current_thread().name] * 2


class TestOneSlot:
    def test_one_miss_inside_at_a_time_and_hits_pass(
        self, make_request, counting_engine, compute_token
    ):
        """``max_workers=1``: two caller threads with distinct misses
        never have more than one request inside the service, and a hit
        is answered while the slot is held."""
        svc = AlignmentService(max_workers=1)
        cached = make_request(seed=1)
        svc.run(cached)
        counting_engine.started.clear()
        counting_engine.release.clear()  # hold the next run mid-engine
        callers = [
            threading.Thread(target=svc.run, args=(make_request(seed=s),))
            for s in (2, 3)
        ]
        for caller in callers:
            caller.start()
        try:
            assert counting_engine.started.wait(timeout=10)
            deadline = time.monotonic() + 0.2
            while time.monotonic() < deadline:  # both callers are in run
                assert svc.stats["inflight"] == 1
                time.sleep(0.005)
            assert counting_engine.calls == 2  # the warm-up and one miss
            hit = svc.run_batch([cached])[0]
            assert hit.cache_hit and hit.result is not None
        finally:
            counting_engine.release.set()
            for caller in callers:
                caller.join(timeout=30)
        assert counting_engine.calls == 3
        stats = svc.stats
        assert stats["computed"] == 3 and stats["inflight"] == 0
        # The second miss waited for the slot, so never for the token.
        assert stats["compute_waits"] == 0

    def test_the_bound_holds_under_more_gateway_workers(
        self, make_request, counting_engine, compute_token
    ):
        """Two gateway workers over a one-slot service: both take a miss
        off the queue, one computes, the other waits outside."""
        counting_engine.release.clear()
        with AlignmentGateway(
            AlignmentService(max_workers=1), n_workers=2
        ) as gw:
            tickets = [gw.submit(make_request(seed=s)) for s in (1, 2)]
            try:
                assert counting_engine.started.wait(timeout=10)
                deadline = time.monotonic() + 0.2
                while time.monotonic() < deadline:
                    assert gw.metrics()["service"]["inflight"] == 1
                    time.sleep(0.005)
                assert counting_engine.calls == 1
                assert gw.metrics()["queue_depth"] == 0  # both taken
            finally:
                counting_engine.release.set()
            for ticket in tickets:
                ticket.wait(timeout=30)
            assert gw.metrics()["service"]["computed"] == 2
        assert counting_engine.calls == 2


def test_service_stats_keep_every_key(make_request, counting_engine):
    """What ``/metrics`` and the benchmark harness read under
    ``service``; ``inflight`` counts the requests computing right now."""
    with AlignmentGateway(n_workers=2) as gw:
        gw.run(make_request(), timeout=30)
        gw.run(make_request(), timeout=30)
        service = gw.metrics()["service"]
    assert set(service) == {
        "hits", "misses", "served", "computed", "evictions", "cached",
        "inflight", "cache_put_failures", "compute_wait_s",
        "compute_waits", "cache_backend",
    }
    assert (service["hits"], service["misses"]) == (1, 1)
    assert service["served"] == service["hits"]
    assert service["computed"] == 1 and service["inflight"] == 0
    assert service["cache_backend"]["backend"] == "memory"
