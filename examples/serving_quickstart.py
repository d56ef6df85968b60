"""Serving quickstart: an in-process alignment gateway under load.

Builds the full serving stack -- a disk-backed ``ResultStore``, an
``AlignmentService`` using it as its cache backend, and an
``AlignmentGateway`` with bounded priority admission, request
coalescing and the worker threads that run each request through the
service -- drives a small zipf-skewed closed-loop workload through
it, and prints the metrics snapshot: queue/admission counters, coalesce
and cache hit-rates, and latency percentiles.

Run it twice to see the disk store at work: on the second run every
request is served from ``/tmp`` without a single engine execution.

Run:  python examples/serving_quickstart.py
"""

import tempfile
from pathlib import Path

from repro.engine import AlignmentService
from repro.serve import (
    AlignmentGateway,
    ResultStore,
    WorkloadConfig,
    run_workload,
)

STORE_DIR = Path(tempfile.gettempdir()) / "repro-serving-quickstart"


def main() -> None:
    # 1. The serving stack.  The store directory outlives this process:
    #    a second run is served entirely from disk.
    store = ResultStore(STORE_DIR, byte_budget=64 * 1024 * 1024)
    # The service owns no threads: the gateway's four workers call it.
    service = AlignmentService(max_workers=4, cache=store)

    with AlignmentGateway(service, n_workers=4, max_queue=128) as gateway:
        # 2. A reproducible workload: 8 closed-loop clients over a pool
        #    of 16 distinct families, zipf-skewed (web-like repetition).
        config = WorkloadConfig(
            n_requests=200,
            n_clients=8,
            mode="closed",
            mix="zipf",
            pool_size=16,
            engine="center-star",
            seed=7,
        )
        report = run_workload(gateway, config)

        # 3. What the serving layer did with that traffic.
        reqs, lat = report["requests"], report["latency"]
        metrics = report["gateway"]
        svc_stats = metrics["service"]
        print(f"requests : {reqs['ok']}/{reqs['issued']} ok, "
              f"{reqs['errors']} errors, {reqs['rejected']} rejected")
        print(f"rate     : {report['throughput_rps']:.0f} req/s "
              f"over {report['elapsed_s']:.2f}s")
        print(f"latency  : p50={lat['p50_s'] * 1000:.1f}ms "
              f"p99={lat['p99_s'] * 1000:.1f}ms")
        print(f"coalesce : {report['coalesce_hit_rate']:.1%} "
              f"({metrics['coalesced']} joined an in-flight computation)")
        print(f"cache    : {svc_stats['served']} served / "
              f"{svc_stats['computed']} computed "
              f"(backend: {svc_stats['cache_backend']['backend']})")
        print(f"store    : {store.stats()['entries']} entries, "
              f"{store.stats()['bytes']} bytes at {STORE_DIR}")

    if svc_stats["computed"] == 0:
        print("\neverything came from the disk store -- "
              "that was a restart-warm run.")
    else:
        print("\nrun me again: the store makes the next run compute nothing.")


if __name__ == "__main__":
    main()
