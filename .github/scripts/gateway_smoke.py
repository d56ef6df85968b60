"""CI smoke test: boot the HTTP gateway, POST one alignment, check health.

Starts the serving stack on an ephemeral port (exactly what
``python -m repro serve --port 0`` builds), drives it over a real
socket with stdlib urllib, and asserts the three things a deploy
gate cares about: liveness, a correct alignment response, and sane
metrics -- then two distinct requests from two threads, which must both
complete on the two-worker gateway (whose engines run one at a time
behind the compute token) with the token's wait counters in
``/metrics``.  Exits non-zero on any failure.

Run:  PYTHONPATH=src python .github/scripts/gateway_smoke.py
"""

import json
import sys
import threading
import urllib.request

from repro.serve import AlignmentGateway, serve_in_thread


def main() -> int:
    gateway = AlignmentGateway(n_workers=2, max_queue=32)
    server, thread = serve_in_thread(gateway)
    base = f"http://127.0.0.1:{server.port}"
    try:
        with urllib.request.urlopen(f"{base}/healthz", timeout=30) as resp:
            assert resp.status == 200, resp.status
            assert json.loads(resp.read()) == {"status": "ok"}
        print(f"healthz ok on {base}")

        body = json.dumps(
            {
                "sequences": [
                    {"id": "a", "residues": "MKTAYIAKQR", "alphabet": "protein"},
                    {"id": "b", "residues": "MKTAYIKQR", "alphabet": "protein"},
                    {"id": "c", "residues": "MKTAYIAKR", "alphabet": "protein"},
                ],
                "engine": "center-star",
            }
        ).encode()
        req = urllib.request.Request(
            f"{base}/align", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            assert resp.status == 200, resp.status
            payload = json.loads(resp.read())
        assert payload["ticket"]["status"] == "done", payload["ticket"]
        assert payload["result"]["n_rows"] == 3, payload["result"]
        print(f"align ok: {payload['result']['n_rows']} rows, "
              f"{payload['result']['n_columns']} columns")

        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            metrics = json.loads(resp.read())
        assert metrics["completed"] == 1, metrics
        print("metrics ok:", {k: metrics[k] for k in ("admitted", "completed")})

        def post(tail, rows):
            distinct = json.loads(body)
            distinct["sequences"][0]["residues"] += tail
            request = urllib.request.Request(
                f"{base}/align", data=json.dumps(distinct).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=120) as resp:
                rows.append(json.loads(resp.read())["result"]["n_rows"])

        rows = []
        clients = [
            threading.Thread(target=post, args=(tail, rows))
            for tail in ("LV", "IW")
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=120)
        assert rows == [3, 3], rows
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            metrics = json.loads(resp.read())
        assert metrics["completed"] == 3 and metrics["failed"] == 0, metrics
        service = metrics["service"]
        assert service["computed"] == 3, service
        assert {"compute_waits", "compute_wait_s"} <= service.keys(), service
        print("two concurrent requests ok:",
              {k: service[k] for k in ("computed", "compute_waits",
                                       "compute_wait_s")})
        return 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        gateway.close()


if __name__ == "__main__":
    sys.exit(main())
