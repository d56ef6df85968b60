"""The serving layer: gateway, disk store, HTTP frontend, traffic gen.

This package turns the engine layer into a *servable system*:

- :mod:`repro.serve.gateway` -- :class:`AlignmentGateway`: bounded
  priority admission, per-client rate limiting, cross-client request
  coalescing, and the worker threads that run each request through an
  :class:`~repro.engine.service.AlignmentService`.
- :mod:`repro.serve.store` -- :class:`ResultStore`: a content-addressed
  disk-backed cache backend (atomic writes, corruption-tolerant reads,
  LRU-by-bytes eviction) so results survive process restarts.
- :mod:`repro.serve.httpd` -- a stdlib ``ThreadingHTTPServer`` frontend
  (``POST /align``, ``GET /jobs/<id>``, ``/healthz``, ``/metrics``).
- :mod:`repro.serve.workload` -- seeded open/closed-loop traffic
  generation with uniform/zipf/repeat mixes.

Quickstart::

    from repro.engine import AlignmentService
    from repro.serve import AlignmentGateway, ResultStore, run_workload

    service = AlignmentService(cache=ResultStore("/tmp/repro-store"))
    with AlignmentGateway(service, n_workers=4, max_queue=128) as gw:
        report = run_workload(gw)
        print(report["latency"], report["coalesce_hit_rate"])

or, over HTTP: ``python -m repro serve --port 8000`` and
``python -m repro loadtest --requests 500 --clients 8``.
"""

from repro.serve.gateway import (
    PRIORITIES,
    AlignmentGateway,
    GatewayError,
    QueueFullError,
    RateLimitedError,
    Ticket,
    TokenBucket,
)
from repro.serve.httpd import GatewayHTTPServer, create_server, serve_in_thread
from repro.serve.store import ResultStore
from repro.serve.workload import (
    WorkloadConfig,
    build_request_pool,
    mix_indices,
    run_workload,
)

__all__ = [
    "AlignmentGateway",
    "GatewayError",
    "GatewayHTTPServer",
    "PRIORITIES",
    "QueueFullError",
    "RateLimitedError",
    "ResultStore",
    "Ticket",
    "TokenBucket",
    "WorkloadConfig",
    "build_request_pool",
    "create_server",
    "mix_indices",
    "run_workload",
    "serve_in_thread",
]
