"""HTTP frontend for the alignment gateway (stdlib ``http.server``).

A thin JSON-over-HTTP surface on top of
:class:`~repro.serve.gateway.AlignmentGateway`:

- ``POST /align`` -- submit one alignment.  The body is either a bare
  :meth:`AlignRequest.to_dict` payload, or a wrapper::

      {"request": {...}, "client_id": "alice",
       "priority": "high", "wait": false}

  With ``wait`` true (the default) the response is ``200`` with
  ``{"ticket": ..., "result": ...}``; with ``wait`` false it is ``202``
  with the ticket only, and the client polls the job endpoint.

  Sample-Align-D requests choose their execution backend in one place,
  ``{"request": {"engine": "sample-align-d", "engine_kwargs":
  {"backend": "pool"}, ...}}``; a ``backend`` key inside ``config`` is
  an unknown field (400).  Requests that stay silent inherit the
  gateway's ``default_backend`` (the ``repro serve --backend`` flag).
- ``GET /jobs/<ticket_id>`` -- ticket status, plus the result once done.
- ``GET /healthz`` -- liveness (``{"status": "ok"}``).
- ``GET /metrics`` -- :meth:`AlignmentGateway.metrics` as JSON;
  ``GET /metrics?format=prom`` -- the same surface (plus the process-wide
  obs registry and the latency histogram as a quantile summary) in
  Prometheus text format 0.0.4, served with the scrape content type.

Access logging goes through the ``repro.serve.access`` logger as one
structured line per request (method, path, status, duration_ms);
``quiet=True`` (the default) suppresses it entirely.  Nothing falls
through to the stdlib's raw stderr ``log_message``.

Admission refusals map to the HTTP codes a load balancer expects:
``429`` for a rate-limited client, ``503`` (with ``Retry-After``) for a
full admission queue, ``400`` for malformed requests.

This is deliberately stdlib-only (``ThreadingHTTPServer``): the point is
a servable process and a load-testable surface, not a production ASGI
stack.  One thread per connection pairs fine with the gateway, whose own
bounded queue -- not the socket listener -- is the real admission point.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.engine.api import AlignRequest
from repro.obs.metrics import MetricsSnapshot, registry
from repro.obs.prom import PROM_CONTENT_TYPE, render_prometheus
from repro.serve.gateway import (
    AlignmentGateway,
    QueueFullError,
    RateLimitedError,
)

__all__ = ["GatewayHTTPServer", "create_server", "serve_in_thread"]

#: One structured line per request; configure/capture like any stdlib
#: logger.  Suppressed entirely when the server runs quiet.
access_log = logging.getLogger("repro.serve.access")


def _ensure_access_log_output() -> None:
    """Make a loud server visible without app-level logging config.

    ``logging.lastResort`` only passes WARNING+, so INFO access lines
    from an unconfigured process would vanish silently -- worse than
    the raw ``log_message`` this module replaces.  A level is set only
    if unset and a handler only if none exists anywhere up the chain,
    so any real logging configuration wins.
    """
    if access_log.level == logging.NOTSET:
        access_log.setLevel(logging.INFO)
    if not access_log.hasHandlers():
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(message)s")
        )
        access_log.addHandler(handler)

#: Reject bodies over this size outright (an alignment request of
#: reasonable size is far smaller; this bounds memory per connection).
MAX_BODY_BYTES = 64 * 1024 * 1024


class GatewayHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one gateway."""

    daemon_threads = True

    def __init__(self, address, gateway: AlignmentGateway, quiet: bool = True):
        self.gateway = gateway
        self.quiet = quiet
        if not quiet:
            _ensure_access_log_output()
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def handle_one_request(self) -> None:
        # Stamped before parsing so duration_ms covers the whole request,
        # not just the handler body.
        self._t0 = time.perf_counter()
        super().handle_one_request()

    def log_request(self, code="-", size="-") -> None:
        """One structured access-log line per request (never raw stderr)."""
        if getattr(self.server, "quiet", True):
            return
        duration_ms = (
            time.perf_counter() - getattr(self, "_t0", time.perf_counter())
        ) * 1e3
        access_log.info(
            "method=%s path=%s status=%s duration_ms=%.2f",
            getattr(self, "command", None) or "-",
            getattr(self, "path", None) or "-",
            getattr(code, "value", code),
            duration_ms,
        )

    def log_message(self, fmt: str, *args) -> None:
        # log_error and any other stdlib fall-throughs land here: route
        # them to the structured logger instead of bare stderr.
        if not getattr(self.server, "quiet", True):
            access_log.info("%s", fmt % args)

    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("empty request body")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
        data = json.loads(self.rfile.read(length))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/metrics":
            fmt = (parse_qs(parts.query).get("format") or ["json"])[0]
            if fmt == "prom":
                self._send_prometheus()
            else:
                self._send_json(200, self.server.gateway.metrics())
        elif path.startswith("/jobs/"):
            self._get_job(path[len("/jobs/"):])
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})

    def _send_prometheus(self) -> None:
        """``/metrics?format=prom``: text exposition format 0.0.4."""
        gateway = self.server.gateway
        stats = gateway.metrics()
        # The latency block is served as a proper quantile summary from
        # the histogram snapshot, not as flattened point gauges.
        stats.pop("latency", None)
        snapshot = registry().snapshot().merge(
            MetricsSnapshot(
                {"gateway.latency.seconds": gateway.latency_snapshot()}
            )
        )
        body = render_prometheus(
            snapshot, extra={"gateway": stats}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", PROM_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/align":
            # Unread body bytes would desync the keep-alive connection.
            self.close_connection = True
            self._send_json(
                404, {"error": f"no such endpoint: {path}"},
                {"Connection": "close"},
            )
            return
        try:
            body = self._read_json_body()
            request_dict = body.get("request", body)
            request = AlignRequest.from_dict(request_dict)
            client_id = str(body.get("client_id", "http"))
            priority = str(body.get("priority", "normal"))
            wait = bool(body.get("wait", True))
            timeout = body.get("timeout")
            if timeout is not None:
                timeout = float(timeout)  # bad values are a 400, not a 500
        except (ValueError, KeyError, TypeError) as exc:
            # The body may be partly or wholly unread (oversized, bad
            # Content-Length): drop the connection after responding or
            # the leftover bytes desync the next keep-alive request.
            self.close_connection = True
            self._send_json(
                400, {"error": f"bad request: {exc}"},
                {"Connection": "close"},
            )
            return
        gateway = self.server.gateway
        try:
            ticket = gateway.submit(request, client_id=client_id, priority=priority)
        except RateLimitedError as exc:
            self._send_json(429, {"error": str(exc)}, {"Retry-After": "1"})
            return
        except QueueFullError as exc:
            self._send_json(503, {"error": str(exc)}, {"Retry-After": "1"})
            return
        except ValueError as exc:  # e.g. unknown priority
            self._send_json(400, {"error": str(exc)})
            return
        except RuntimeError as exc:  # gateway closed: transient, retryable
            self._send_json(503, {"error": str(exc)}, {"Retry-After": "1"})
            return
        if not wait:
            self._send_json(202, {"ticket": ticket.to_dict()})
            return
        try:
            result = ticket.wait(timeout)
        except TimeoutError:
            self._send_json(202, {"ticket": ticket.to_dict()})
            return
        except Exception as exc:
            self._send_json(
                500, {"ticket": ticket.to_dict(), "error": repr(exc)}
            )
            return
        self._send_json(
            200, {"ticket": ticket.to_dict(), "result": result.to_dict()}
        )

    def _get_job(self, ticket_id: str) -> None:
        ticket = self.server.gateway.get_ticket(ticket_id)
        if ticket is None:
            self._send_json(404, {"error": f"unknown ticket: {ticket_id}"})
            return
        payload: Dict[str, Any] = {"ticket": ticket.to_dict()}
        result = ticket.result
        if result is not None:
            payload["result"] = result.to_dict()
        self._send_json(200, payload)


def create_server(
    gateway: AlignmentGateway,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> GatewayHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) without starting to serve."""
    return GatewayHTTPServer((host, port), gateway, quiet=quiet)


def serve_in_thread(
    gateway: AlignmentGateway,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[GatewayHTTPServer, threading.Thread]:
    """Start a server on a daemon thread; returns ``(server, thread)``.

    Shut down with ``server.shutdown(); thread.join()`` (the gateway is
    left to its owner).
    """
    server = create_server(gateway, host, port)
    thread = threading.Thread(
        # Tight poll so shutdown() returns promptly (tests start and stop
        # many servers).
        target=lambda: server.serve_forever(poll_interval=0.05),
        name="gateway-httpd",
        daemon=True,
    )
    thread.start()
    return server, thread
