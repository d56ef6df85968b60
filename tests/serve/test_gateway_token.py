"""The compute token through the serving stack: a two-worker gateway
runs one engine at a time, and the wait shows in ``/metrics``."""

import threading
import time
import urllib.request

from repro.serve import AlignmentGateway, serve_in_thread


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_two_workers_one_engine_at_a_time(
    make_request, counting_engine, compute_token
):
    counting_engine.release.clear()  # hold whoever enters the engine
    tickets = []
    with AlignmentGateway(n_workers=2, max_queue=8) as gw:

        def client(seed):
            tickets.append(gw.submit(make_request(seed=seed), f"c{seed}"))

        threads = [threading.Thread(target=client, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(tickets) == 2
        assert counting_engine.started.wait(timeout=10)
        # Both requests are with the service; one is inside the engine
        # and the other is parked at the token, not beside it.
        assert _wait_until(lambda: gw.metrics()["service"]["inflight"] == 2)
        time.sleep(0.2)
        assert counting_engine.calls == 1
        counting_engine.release.set()
        for ticket in tickets:
            assert ticket.wait(timeout=30).alignment.n_rows == 5
        metrics = gw.metrics()
    assert counting_engine.calls == 2
    assert metrics["completed"] == 2 and metrics["failed"] == 0
    service = metrics["service"]
    assert service["computed"] == 2
    assert service["compute_waits"] == 1
    # The parked request waited about as long as the engine was held,
    # and the gateway's latency (unlike the engine's own time) shows it.
    assert service["compute_wait_s"] >= 0.15
    assert metrics["latency"]["max_s"] >= service["compute_wait_s"]


def test_prometheus_exposition_carries_the_wait_counters(
    make_request, counting_engine, compute_token
):
    gateway = AlignmentGateway(n_workers=2, max_queue=8)
    server, thread = serve_in_thread(gateway)
    try:
        gateway.run(make_request(), timeout=30)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics?format=prom", timeout=30
        ) as resp:
            text = resp.read().decode("utf-8")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        gateway.close()
    assert "repro_gateway_service_compute_waits 0" in text
    assert "repro_gateway_service_compute_wait_s 0" in text
