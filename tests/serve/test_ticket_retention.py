"""A delivered ticket pins neither its result nor its request.

Once a client has been handed its answer, the gateway's ticket table
keeps that ticket's metadata only: the result lives in the result cache
and with the client, and nowhere else.
"""

import gc
import json
import sys
import threading
import time
import urllib.request
import weakref

import pytest

from repro.serve import AlignmentGateway, ResultStore, serve_in_thread
from repro.engine import AlignmentService


def _until_done(gateway, ticket_id, timeout=30.0):
    """Wait for a ticket to finish without delivering it (``done`` only
    reads the event)."""
    deadline = time.monotonic() + timeout
    while not gateway.get_ticket(ticket_id).done:
        assert time.monotonic() < deadline, f"{ticket_id} still pending"
        time.sleep(0.005)


def test_delivered_results_and_requests_are_not_pinned(
    tmp_path, make_request, counting_engine
):
    service = AlignmentService(cache=ResultStore(tmp_path / "store"))
    results, requests, ids = [], [], []
    with AlignmentGateway(service, n_workers=2, max_queue=16) as gw:
        for i in range(200):
            request = make_request(seed=i)
            ticket = gw.submit(request)
            result = ticket.wait(30)
            assert result.request_hash == request.content_hash()
            results.append(weakref.ref(result))
            requests.append(weakref.ref(request))
            ids.append(ticket.ticket_id)
        del request, ticket, result
        gc.collect()
        assert [r for r in results if r() is not None] == []
        assert [r for r in requests if r() is not None] == []
        for ticket_id in ids:
            twin = gw.get_ticket(ticket_id)
            assert twin.status == "done" and twin.result is None
        metrics = gw.metrics()
        assert metrics["tickets"] == 200
        assert metrics["tickets_undelivered"] == 0
    assert counting_engine.calls == 200


def test_a_clients_ticket_keeps_its_result(make_request, counting_engine):
    with AlignmentGateway(n_workers=1, max_queue=8) as gw:
        ticket = gw.submit(make_request())
        first = ticket.wait(30)
        assert ticket.wait(30) is first
        assert ticket.result is first
        twin = gw.get_ticket(ticket.ticket_id)
        assert twin is not ticket and twin.result is None
        assert twin.to_dict() == ticket.to_dict()
        assert twin.completed_at == ticket.completed_at
        with pytest.raises(LookupError, match="delivered already"):
            twin.wait(1)


def test_lookup_is_the_ticket_until_it_is_delivered(
    make_request, counting_engine
):
    counting_engine.release.clear()
    with AlignmentGateway(n_workers=1, max_queue=8) as gw:
        ticket = gw.submit(make_request())
        assert gw.get_ticket(ticket.ticket_id) is ticket
        assert ticket.result is None  # pending: nothing delivered
        counting_engine.release.set()
        _until_done(gw, ticket.ticket_id)
        assert gw.get_ticket(ticket.ticket_id) is ticket
        ticket.wait(30)
        assert gw.get_ticket(ticket.ticket_id) is not ticket


def test_reading_one_coalesced_ticket_keeps_the_others_result(
    make_request, counting_engine
):
    counting_engine.release.clear()
    with AlignmentGateway(n_workers=1, max_queue=8) as gw:
        first = gw.submit(make_request(), client_id="a")
        second = gw.submit(make_request(), client_id="b")
        assert second.coalesced
        counting_engine.release.set()
        result = first.wait(30)
        assert gw.get_ticket(first.ticket_id).result is None
        unread = gw.get_ticket(second.ticket_id)
        assert unread is second
        assert gw.metrics()["tickets_undelivered"] == 1
        assert unread.result is result
        assert gw.get_ticket(second.ticket_id).result is None
        assert second.wait(30) is result
    assert counting_engine.calls == 1


def test_a_failed_ticket_keeps_its_error_after_delivery(make_request):
    with AlignmentGateway(n_workers=1, max_queue=8) as gw:
        ticket = gw.submit(make_request(engine="does-not-exist"))
        with pytest.raises(KeyError):
            ticket.wait(30)
        twin = gw.get_ticket(ticket.ticket_id)
        assert twin is not ticket
        assert twin.status == "failed"
        assert "KeyError" in twin.to_dict()["error"]
        assert twin.to_dict() == ticket.to_dict()
        with pytest.raises(KeyError):
            twin.wait(1)


def test_racing_deliveries_leave_no_result_pinned(
    make_request, counting_engine
):
    """Clients racing to submit, poll and wait on overlapping requests
    (some coalesce) all get their result, and every slot ends delivered."""
    n_clients, per_client = 8, 40
    ids, errors = [], []

    def client(gw, k):
        try:
            for i in range(per_client):
                ticket = gw.submit(make_request(seed=i % 8), client_id=f"c{k}")
                ids.append(ticket.ticket_id)
                polled = gw.get_ticket(ticket.ticket_id).result
                result = ticket.wait(30)
                assert result.request_hash == ticket.request_hash
                assert polled is None or polled is result
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AlignmentGateway(n_workers=4, max_queue=64) as gw:
            threads = [
                threading.Thread(target=client, args=(gw, k))
                for k in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert len(ids) == n_clients * per_client
            metrics = gw.metrics()
            assert metrics["tickets"] == len(ids)
            assert metrics["tickets_undelivered"] == 0
            for ticket_id in ids:
                twin = gw.get_ticket(ticket_id)
                assert twin.status == "done" and twin.result is None
    finally:
        sys.setswitchinterval(interval)


class TestHttpPolling:
    @pytest.fixture()
    def served(self, counting_engine):
        gateway = AlignmentGateway(n_workers=2, max_queue=16)
        server, thread = serve_in_thread(gateway)
        yield gateway, f"http://127.0.0.1:{server.port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        gateway.close()

    @staticmethod
    def _call(url, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())

    def test_first_poll_gets_the_result_second_gets_metadata(
        self, served, make_request
    ):
        gateway, base = served
        status, body = self._call(
            f"{base}/align",
            {"request": make_request(seed=3).to_dict(), "wait": False},
        )
        assert status == 202
        ticket_id = body["ticket"]["ticket_id"]
        _until_done(gateway, ticket_id)

        status, first = self._call(f"{base}/jobs/{ticket_id}")
        assert status == 200
        assert first["ticket"]["status"] == "done"
        assert first["result"]["n_rows"] == 5

        status, second = self._call(f"{base}/jobs/{ticket_id}")
        assert status == 200
        assert second["ticket"] == first["ticket"]
        assert "result" not in second

    def test_metrics_carry_the_ticket_table(self, served, make_request):
        gateway, base = served
        status, body = self._call(
            f"{base}/align",
            {"request": make_request(seed=4).to_dict(), "wait": False},
        )
        _until_done(gateway, body["ticket"]["ticket_id"])
        self._call(f"{base}/align", {"request": make_request(seed=5).to_dict()})
        _, metrics = self._call(f"{base}/metrics")
        assert metrics["tickets"] == 2
        assert metrics["tickets_undelivered"] == 1
        with urllib.request.urlopen(
            f"{base}/metrics?format=prom", timeout=30
        ) as resp:
            text = resp.read().decode("utf-8")
        assert "repro_gateway_tickets 2" in text
        assert "repro_gateway_tickets_undelivered 1" in text
