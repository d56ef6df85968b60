"""``serve`` and ``loadtest``: the alignment-serving gateway over HTTP,
or in-process under seeded synthetic traffic."""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    JSON,
    STACK,
    _add_stage_flags,
    _check_backend,
    _emit_json,
    _print_stage_table,
    _stage_specs,
    user_input,
)


def add_commands(command) -> None:
    p = command("serve", _cmd_serve, parents=[STACK],
                help="start the alignment-serving HTTP gateway")
    _add_stage_flags(p, "--distance-out", "--distance-store-dir")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8000, help="0 picks an ephemeral port"
    )
    p.add_argument(
        "--store-budget-mb", type=float, default=256.0,
        help="disk store byte budget in MiB",
    )
    p.add_argument(
        "--cache-size", type=int, default=128,
        help="in-memory result-cache entries (when no --store)",
    )
    p.add_argument(
        "--rate", type=float, default=None,
        help="per-client token-bucket rate (req/s; default unlimited)",
    )
    p.add_argument(
        "--burst", type=float, default=None,
        help="per-client token-bucket burst (default 2x rate)",
    )

    p = command("loadtest", _cmd_loadtest, parents=[STACK, JSON],
                help="drive an in-process gateway with synthetic traffic")
    p.add_argument("--requests", type=int, default=500)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument(
        "--mix", choices=["uniform", "zipf", "repeat"], default="zipf"
    )
    p.add_argument(
        "--pool", type=int, default=24, help="distinct requests in the pool"
    )
    p.add_argument(
        "--arrival-rate", type=float, default=200.0,
        help="open-loop Poisson arrival rate (req/s)",
    )
    p.add_argument("--engine", default="center-star")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="enable tracing for the run and write every recorded span "
        "as Chrome trace-event JSON to FILE (load at ui.perfetto.dev); "
        "the report additionally gains a stage_breakdown section",
    )


def _build_gateway(args: argparse.Namespace):
    """Service + gateway from the shared serve/loadtest options."""
    from repro.engine import (
        AlignmentService,
        MemoryResultCache,
        TieredResultCache,
    )
    from repro.serve import AlignmentGateway, ResultStore

    specs = _stage_specs(args)  # before anything is opened: may raise
    _check_backend(args.backend)
    cache_size = getattr(args, "cache_size", 128)
    if args.store:
        budget_mb = getattr(args, "store_budget_mb", 256.0)
        store = ResultStore(args.store, byte_budget=int(budget_mb * 1024 * 1024))
        # Memory tier in front: repeat hits on hot keys skip the disk.
        cache = (
            TieredResultCache(MemoryResultCache(cache_size), store)
            if cache_size else store
        )
    else:
        cache = None
    service = AlignmentService(
        max_workers=args.workers, cache_size=cache_size, cache=cache
    )
    return AlignmentGateway(
        service,
        n_workers=args.workers,
        max_queue=args.queue_size,
        rate=getattr(args, "rate", None),
        burst=getattr(args, "burst", None),
        default_backend=args.backend,
        default_distance=specs.get("distance"),
        default_tree=specs.get("tree"),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import create_server

    with user_input():
        gateway = _build_gateway(args)
    try:
        server = create_server(
            gateway, host=args.host, port=args.port, quiet=False
        )
    except OSError as exc:  # port in use, privileged port, bad host
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        gateway.close()
        return 2
    store_note = f", store={args.store}" if args.store else ""
    print(
        f"serving on http://{args.host}:{server.port} "
        f"(workers={args.workers}, queue={args.queue_size}{store_note})",
        file=sys.stderr,
    )
    print("endpoints: POST /align, GET /jobs/<id>, /healthz, /metrics",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        gateway.close()
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.serve import WorkloadConfig, run_workload

    with user_input():
        config = WorkloadConfig(
            n_requests=args.requests, n_clients=args.clients,
            mode=args.mode, mix=args.mix, pool_size=args.pool,
            arrival_rate=args.arrival_rate, engine=args.engine,
            seed=args.seed,
        )
        gateway = _build_gateway(args)
    if args.trace_out:
        from repro.obs.tracing import (
            disable_tracing,
            drain_spans,
            enable_tracing,
            write_chrome_trace,
        )

        drain_spans()  # start the run from a clean process-wide buffer
        enable_tracing()
    try:
        report = run_workload(gateway, config)
    finally:
        gateway.close()
        if args.trace_out:
            disable_tracing()
            trace_records = drain_spans()
            write_chrome_trace(args.trace_out, trace_records)
            print(
                f"trace: {len(trace_records)} spans written to "
                f"{args.trace_out}",
                file=sys.stderr,
            )

    reqs = report["requests"]
    if args.json == "-":
        # Machine-readable stdout must be pure JSON (pipeable to jq).
        _emit_json(report, args.json)
        return 0 if reqs["errors"] == 0 else 1
    lat = report["latency"]
    gw = report["gateway"]
    svc = gw["service"]

    def ms(v):
        return f"{v * 1000:.1f}ms" if v is not None else "n/a"

    print(
        f"{args.mode}-loop {args.mix} mix: {reqs['ok']}/{reqs['issued']} ok, "
        f"{reqs['errors']} errors, {reqs['rejected']} rejected "
        f"({report['elapsed_s']:.2f}s, "
        f"{report['throughput_rps']:.0f} req/s)"
    )
    print(f"latency: p50={ms(lat['p50_s'])} p99={ms(lat['p99_s'])} "
          f"max={ms(lat['max_s'])}")
    print(
        f"coalesce hit-rate: {report['coalesce_hit_rate']:.1%} "
        f"({gw['coalesced']} coalesced / {gw['admitted']} admitted)"
    )
    print(
        f"result cache: {svc['served']} served, {svc['computed']} computed, "
        f"{svc['evictions']} evicted"
    )
    if args.trace_out and report.get("stage_breakdown"):
        print("stage breakdown:")
        _print_stage_table(report["stage_breakdown"], indent=1)
    if args.json is not None:
        _emit_json(report, args.json)
    return 0 if reqs["errors"] == 0 else 1
