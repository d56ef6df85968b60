"""HTTP frontend: endpoints, status codes, async job polling."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import SampleAlignDConfig
from repro.serve import AlignmentGateway, serve_in_thread


@pytest.fixture()
def server(counting_engine):
    """A live server on an ephemeral port over a small gateway."""
    gateway = AlignmentGateway(n_workers=2, max_queue=16)
    server, thread = serve_in_thread(gateway)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    gateway.close()


def _url(server, path):
    return f"http://127.0.0.1:{server.port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    req = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _align_body(make_request, **kw):
    return make_request(**kw).to_dict()


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200 and body == {"status": "ok"}

    def test_metrics(self, server):
        status, body = _get(server, "/metrics")
        assert status == 200
        assert "queue_depth" in body and "latency" in body
        assert "service" in body

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404

    def test_post_align_sync(self, server, make_request, counting_engine):
        status, body = _post(server, "/align", _align_body(make_request))
        assert status == 200
        assert body["ticket"]["status"] == "done"
        assert body["result"]["n_rows"] == 5
        assert body["result"]["alignment"]["ids"]

    def test_post_align_wrapper_form(self, server, make_request,
                                     counting_engine):
        payload = {
            "request": _align_body(make_request, seed=1),
            "client_id": "alice",
            "priority": "high",
        }
        status, body = _post(server, "/align", payload)
        assert status == 200
        assert body["ticket"]["client_id"] == "alice"
        assert body["ticket"]["priority"] == "high"

    def test_post_align_async_then_poll(self, server, make_request,
                                        counting_engine):
        payload = {"request": _align_body(make_request, seed=2), "wait": False}
        status, body = _post(server, "/align", payload)
        assert status == 202
        ticket_id = body["ticket"]["ticket_id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, body = _get(server, f"/jobs/{ticket_id}")
            assert status == 200
            if body["ticket"]["status"] == "done":
                break
            time.sleep(0.01)
        assert body["ticket"]["status"] == "done"
        assert body["result"]["n_rows"] == 5

    def test_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/jobs/doesnotexist")
        assert err.value.code == 404

    def test_bad_body_400(self, server):
        req = urllib.request.Request(
            _url(server, "/align"),
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_bad_request_schema_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/align", {"sequences": []})
        assert err.value.code == 400

    def test_bad_timeout_type_400(self, server, make_request):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/align",
                  {"request": _align_body(make_request, seed=9),
                   "timeout": "soon"})
        assert err.value.code == 400

    def test_nested_backend_in_config_400(self, server, make_request):
        """A stage spec that places itself on a second backend inside
        Sample-Align-D's ranks is refused at the door, not inside a rank."""
        body = _align_body(make_request, engine="sample-align-d")
        for kwargs_key, stage, why in (
            ("local_aligner_kwargs", "distance", "nested"),
            ("root_aligner_kwargs", "tree", "unknown TreeConfig keys"),
        ):
            config = SampleAlignDConfig().to_dict()
            config[kwargs_key] = {stage: {"backend": "pool"}}
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server, "/align", {**body, "config": config})
            assert err.value.code == 400
            assert why in json.loads(err.value.read())["error"]

    def test_engine_failure_500(self, server, make_request):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/align",
                  _align_body(make_request, engine="does-not-exist"))
        assert err.value.code == 500
        body = json.loads(err.value.read())
        assert body["ticket"]["status"] == "failed"


class TestBackpressureCodes:
    def test_queue_full_503(self, make_request, counting_engine):
        counting_engine.release.clear()
        gateway = AlignmentGateway(n_workers=1, max_queue=1)
        server, thread = serve_in_thread(gateway)
        try:
            _post(server, "/align",
                  {"request": _align_body(make_request), "wait": False})
            assert counting_engine.started.wait(timeout=10)
            _post(server, "/align",
                  {"request": _align_body(make_request, seed=1),
                   "wait": False})
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server, "/align",
                      {"request": _align_body(make_request, seed=2),
                       "wait": False})
            assert err.value.code == 503
            assert err.value.headers["Retry-After"]
        finally:
            counting_engine.release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            gateway.close()

    def test_rate_limited_429(self, make_request, counting_engine):
        gateway = AlignmentGateway(
            n_workers=1, max_queue=8, rate=0.001, burst=1.0
        )
        server, thread = serve_in_thread(gateway)
        try:
            _post(server, "/align",
                  {"request": _align_body(make_request),
                   "client_id": "greedy"})
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server, "/align",
                      {"request": _align_body(make_request, seed=1),
                       "client_id": "greedy"})
            assert err.value.code == 429
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            gateway.close()


class TestPrometheusEndpoint:
    def test_prom_format_and_content_type(self, server, make_request,
                                          counting_engine):
        _post(server, "/align", {"request": _align_body(make_request)})
        with urllib.request.urlopen(
            _url(server, "/metrics?format=prom"), timeout=30
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = resp.read().decode("utf-8")
        assert "# TYPE repro_gateway_latency_seconds summary" in text
        assert 'repro_gateway_latency_seconds{quantile="0.5"}' in text
        assert "repro_gateway_latency_seconds_count 1" in text
        assert "repro_gateway_admitted 1" in text
        # The JSON latency block is replaced by the histogram summary.
        assert "repro_gateway_latency_p50_s" not in text

    def test_json_remains_the_default(self, server):
        status, body = _get(server, "/metrics")
        assert status == 200
        assert "latency" in body and "admitted" in body

    def test_unknown_format_falls_back_to_json(self, server):
        status, body = _get(server, "/metrics?format=yaml")
        assert status == 200
        assert "admitted" in body


class TestAccessLog:
    def test_quiet_suppresses_access_log(self, server, caplog):
        with caplog.at_level("INFO", logger="repro.serve.access"):
            _get(server, "/healthz")
        assert caplog.records == []

    def test_loud_mode_logs_one_structured_line(self, server, caplog):
        server.quiet = False
        try:
            with caplog.at_level("INFO", logger="repro.serve.access"):
                _get(server, "/healthz")
        finally:
            server.quiet = True
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1
        line = lines[0]
        assert "method=GET" in line
        assert "path=/healthz" in line
        assert "status=200" in line
        assert "duration_ms=" in line

    def test_post_and_errors_logged_too(self, server, make_request,
                                        counting_engine, caplog):
        server.quiet = False
        try:
            with caplog.at_level("INFO", logger="repro.serve.access"):
                _post(server, "/align",
                      {"request": _align_body(make_request, seed=41)})
                with pytest.raises(urllib.error.HTTPError):
                    _get(server, "/nope")
        finally:
            server.quiet = True
        lines = [r.getMessage() for r in caplog.records]
        assert any("method=POST" in ln and "status=200" in ln
                   for ln in lines)
        assert any("status=404" in ln for ln in lines)
