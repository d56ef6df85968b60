"""Backend selection through the serving layer: gateway and HTTP."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import SampleAlignDConfig
from repro.engine import AlignRequest
from repro.serve import AlignmentGateway
from repro.serve.httpd import serve_in_thread


@pytest.fixture()
def seqs(small_family):
    return tuple(small_family.sequences)


def _post(port, payload, timeout=120):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/align",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _pool_gateway(pool):
    """Default backend ``pool``, served from the explicit test pool."""
    return AlignmentGateway(n_workers=1, default_backend="pool", pool=pool)


class TestGatewayDefaultBackend:
    def test_unopinionated_request_inherits_default(self, pool, seqs):
        with _pool_gateway(pool) as gw:
            request = AlignRequest(
                sequences=seqs, engine="sample-align-d", n_procs=2
            )
            result = gw.run(request, timeout=120)
        assert result.diagnostics["backend"] == "pool"

    def test_explicit_engine_kwarg_wins_over_default(self, pool, seqs):
        """A request that carries a config but no ``backend`` kwarg is
        silent about the backend: it inherits the default too."""
        with _pool_gateway(pool) as gw:
            request = AlignRequest(
                sequences=seqs,
                engine="sample-align-d",
                n_procs=2,
                engine_kwargs={"backend": "threads"},
            )
            result = gw.run(request, timeout=120)
            assert result.diagnostics["backend"] == "threads"
            configured = AlignRequest(
                sequences=seqs,
                engine="sample-align-d",
                n_procs=2,
                config=SampleAlignDConfig(),
            )
            result = gw.run(configured, timeout=120)
        assert result.diagnostics["backend"] == "pool"

    def test_sequential_requests_untouched(self, pool, seqs):
        with _pool_gateway(pool) as gw:
            request = AlignRequest(sequences=seqs, engine="center-star")
            ticket = gw.submit(request)
            # The request must pass through unrewritten: same hash.
            assert ticket.request_hash == request.content_hash()
            ticket.wait(60)

    def test_rewrite_happens_before_coalescing(self, pool, seqs):
        """An explicit-pool request coalesces with a defaulted one."""
        with _pool_gateway(pool) as gw:
            plain = AlignRequest(
                sequences=seqs, engine="sample-align-d", n_procs=2
            )
            explicit = AlignRequest(
                sequences=seqs,
                engine="sample-align-d",
                n_procs=2,
                engine_kwargs={"backend": "pool"},
            )
            t1 = gw.submit(plain)
            t2 = gw.submit(explicit)
            assert t1.request_hash == t2.request_hash
            t1.wait(120)
            assert gw.metrics()["coalesced"] == 1

    def test_bad_default_backend_rejected(self):
        with pytest.raises(ValueError, match="not a registered execution"):
            AlignmentGateway(n_workers=1, default_backend="gpu")

    def test_metrics_expose_default_backend(self, pool, seqs):
        with _pool_gateway(pool) as gw:
            assert gw.metrics()["default_backend"] == "pool"
        with AlignmentGateway(n_workers=1) as gw:
            assert gw.metrics()["default_backend"] is None


class TestHttpBackendSelection:
    def test_post_align_with_backend_engine_kwargs(self, pool, seqs):
        with AlignmentGateway(n_workers=1) as gw:
            server, thread = serve_in_thread(gw)
            try:
                request = AlignRequest(
                    sequences=seqs[:6],
                    engine="sample-align-d",
                    n_procs=2,
                    engine_kwargs={"backend": "pool"},
                )
                status, body = _post(server.port, {"request": request.to_dict()})
            finally:
                server.shutdown()
                thread.join()
        assert status == 200
        assert body["result"]["diagnostics"]["backend"] == "pool"

    @pytest.mark.parametrize(
        "key, value", [("backend", "pool"), ("sort_stable_by_id", True)]
    )
    def test_post_align_with_a_removed_config_key_is_400(
        self, seqs, key, value
    ):
        """A removed field inside ``config`` is an unknown field: the one
        spelling of the backend is the ``backend`` engine kwarg, and rank
        ties always break by sequence id."""
        with AlignmentGateway(n_workers=1) as gw:
            server, thread = serve_in_thread(gw)
            try:
                payload = AlignRequest(
                    sequences=seqs[:6],
                    engine="sample-align-d",
                    n_procs=2,
                    config=SampleAlignDConfig(),
                ).to_dict()
                payload["config"][key] = value
                with pytest.raises(urllib.error.HTTPError) as exc:
                    _post(server.port, {"request": payload})
                body = json.loads(exc.value.read())
            finally:
                server.shutdown()
                thread.join()
        assert exc.value.code == 400
        assert key in body["error"]

    def test_gateway_default_reaches_http_clients(self, pool, seqs):
        with _pool_gateway(pool) as gw:
            server, thread = serve_in_thread(gw)
            try:
                request = AlignRequest(
                    sequences=seqs[:6], engine="sample-align-d", n_procs=2
                )
                status, body = _post(server.port, {"request": request.to_dict()})
            finally:
                server.shutdown()
                thread.join()
        assert status == 200
        assert body["result"]["diagnostics"]["backend"] == "pool"

    @pytest.mark.parametrize(
        "engine, engine_kwargs, message",
        [
            ("sample-align-d", {"backend": "processes"}, "['pool', 'threads']"),
            ("muscle", {"distance": {"backend": "mpi", "workers": 2}},
             "['pool', 'threads']"),
            # The merge walk has no placement: any tree backend is refused.
            ("muscle", {"tree": {"backend": "pool"}},
             "unknown TreeConfig keys ['backend']"),
        ],
        ids=["engine-kwarg", "distance-spec", "tree-spec"],
    )
    def test_unregistered_backend_is_a_400(
        self, seqs, engine, engine_kwargs, message
    ):
        """Refused at admission: never enqueued, never run, counted."""
        with AlignmentGateway(n_workers=1) as gw:
            server, thread = serve_in_thread(gw)
            try:
                request = AlignRequest(
                    sequences=seqs[:6], engine=engine,
                    engine_kwargs=engine_kwargs,
                )
                with pytest.raises(urllib.error.HTTPError) as info:
                    _post(server.port, {"request": request.to_dict()})
                metrics = gw.metrics()
            finally:
                server.shutdown()
                thread.join()
        assert info.value.code == 400
        error = json.loads(info.value.read())["error"]
        assert message in error and "Traceback" not in error
        assert metrics["rejected_bad_request"] == 1
        assert metrics["admitted"] == metrics["queue_depth"] == 0
        assert metrics["service"]["computed"] == 0

    @pytest.mark.parametrize(
        "distance, message",
        [
            ({"estimator": "full-dp", "k": 3}, "'full-dp' takes no 'k'"),
            ({"estimator": "ktuple", "transform": "kimura"},
             "'ktuple' takes no 'transform'"),
            ("kband", "unknown distance estimator 'kband'; available: "
                      "['full-dp', 'kmer-fraction', 'ktuple']"),
        ],
        ids=["full-dp-k", "ktuple-transform", "kband"],
    )
    def test_bad_distance_spec_is_a_400(self, seqs, distance, message):
        """A qualifier the estimator does not take (or a deleted name)
        is refused at admission, not after a worker ran the engine."""
        with AlignmentGateway(n_workers=1) as gw:
            server, thread = serve_in_thread(gw)
            try:
                request = AlignRequest(
                    sequences=seqs[:6], engine="clustalw",
                    engine_kwargs={"distance": distance},
                )
                with pytest.raises(urllib.error.HTTPError) as info:
                    _post(server.port, {"request": request.to_dict()})
                metrics = gw.metrics()
            finally:
                server.shutdown()
                thread.join()
        assert info.value.code == 400
        assert message in json.loads(info.value.read())["error"]
        assert metrics["rejected_bad_request"] == 1
        assert metrics["failed"] == 0
        assert metrics["admitted"] == metrics["queue_depth"] == 0
        assert metrics["service"]["computed"] == 0

    @pytest.mark.parametrize(
        "distance",
        [
            {"estimator": "ktuple", "k": 3},
            {"estimator": "full-dp", "transform": "kimura"},
        ],
        ids=["ktuple-k", "full-dp-transform"],
    )
    def test_valid_distance_qualifier_still_runs(self, seqs, distance):
        with AlignmentGateway(n_workers=1) as gw:
            server, thread = serve_in_thread(gw)
            try:
                request = AlignRequest(
                    sequences=seqs[:6], engine="clustalw",
                    engine_kwargs={"distance": distance},
                )
                status, body = _post(server.port, {"request": request.to_dict()})
            finally:
                server.shutdown()
                thread.join()
        assert status == 200
        assert body["result"]["alignment"]
