"""``align``, ``trace``, ``generate`` and ``quality``: align a family,
trace one alignment, make a synthetic family, score an alignment."""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    BACKEND,
    JSON,
    _add_stage_flags,
    _check_backend,
    _emit_json,
    _print_stage_table,
    _stage_specs,
    user_input,
)


def add_commands(command) -> None:
    p = command("align", _cmd_align, parents=[BACKEND, JSON],
                help="align a FASTA file")
    _add_stage_flags(p)
    p.add_argument("input", help="FASTA file of ungapped sequences")
    p.add_argument("-o", "--output", help="output FASTA (default stdout)")
    p.add_argument("-p", "--procs", type=int, default=4,
                   help="virtual processors")
    p.add_argument(
        "--engine", default=None,
        help="engine from the unified registry (default: sample-align-d; "
        "see `repro engines`)",
    )
    p.add_argument(
        "--local-aligner", default="muscle-p",
        help="Sample-Align-D's per-bucket aligner (registry name)",
    )
    p.add_argument(
        "--seed", type=int, default=None,
        help="seeded initial block distribution (Sample-Align-D)",
    )

    p = command("trace", _cmd_trace, parents=[JSON],
                help="trace one alignment end to end (Chrome trace + "
                "per-stage breakdown)")
    p.add_argument(
        "input", nargs="?",
        help="FASTA file of ungapped sequences (default: a small seeded "
        "synthetic family)",
    )
    p.add_argument(
        "--engine", default="clustalw",
        help="engine from the unified registry (default clustalw -- a "
        "guide-tree engine, so the distance/tree/merge stages all appear)",
    )
    p.add_argument("-p", "--procs", type=int, default=4,
                   help="virtual processors")
    _add_stage_flags(p, "--distance", "--distance-backend")
    p.add_argument(
        "-n", "--n-sequences", type=int, default=12,
        help="synthetic family size (no-input mode)",
    )
    p.add_argument(
        "-l", "--mean-length", type=int, default=60,
        help="synthetic family mean length (no-input mode)",
    )
    p.add_argument("-s", "--seed", type=int, default=0)
    p.add_argument(
        "-o", "--output", default="trace.json", metavar="FILE",
        help="Chrome trace-event JSON output (default trace.json)",
    )

    p = command("generate", _cmd_generate, help="generate a synthetic family")
    p.add_argument("-n", "--n-sequences", type=int, default=50)
    p.add_argument("-l", "--mean-length", type=int, default=300)
    p.add_argument("-r", "--relatedness", type=float, default=800.0)
    p.add_argument("-s", "--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="output FASTA (default stdout)")
    p.add_argument("--reference",
                   help="also write the true alignment to this path")

    p = command("quality", _cmd_quality,
                help="score an alignment vs a reference")
    p.add_argument("test", help="gapped FASTA of the test alignment")
    p.add_argument("reference", help="gapped FASTA of the reference")


def _align_request(args: argparse.Namespace, engine: str, seqs):
    """The :class:`~repro.engine.AlignRequest` of ``align`` and ``trace``.

    Sample-Align-D hands the stage flags to its per-bucket local
    aligners (through a :class:`~repro.core.config.SampleAlignDConfig`)
    and takes ``--backend`` as its ``backend`` engine kwarg; every other
    engine takes the stage flags itself.  ``--local-aligner`` and
    ``--backend``, which ``trace`` does not carry, fall back to the
    defaults.  Bad names and stage flags an engine cannot take raise
    ``KeyError`` / ``ValueError`` before anything runs.
    """
    from repro.core.config import SampleAlignDConfig
    from repro.engine import AlignRequest, get_engine
    from repro.engine.registry import engine_stages

    get_engine(engine)  # fail fast on unknown engine names
    specs = _stage_specs(args)
    local_aligner = getattr(
        args, "local_aligner", SampleAlignDConfig.local_aligner
    )
    backend = getattr(args, "backend", None)
    _check_backend(backend)
    sample_align_d = engine.lower() == "sample-align-d"
    target = local_aligner if sample_align_d else engine
    for stage in specs:
        if stage not in engine_stages(target):
            raise ValueError(
                f"{'local aligner' if sample_align_d else 'engine'} "
                f"{target!r} does not take --{stage} (no pluggable "
                f"guide-tree {stage} stage)"
            )
    config = None
    engine_kwargs = specs
    if sample_align_d:
        if specs.get("distance", {}).get("store_dir") is not None:
            # One fixed store dir shared by many per-bucket distance
            # stages would thrash (each bucket's header evicts the
            # previous bucket's tiles).
            raise ValueError(
                "--distance-store-dir does not apply to "
                "sample-align-d (each bucket runs its own distance "
                "stage; a shared tile store would thrash)"
            )
        config = SampleAlignDConfig(
            local_aligner=local_aligner, local_aligner_kwargs=specs
        )
        engine_kwargs = {} if backend is None else {"backend": backend}
    elif backend is not None:
        raise ValueError(
            f"--backend currently applies only to the "
            f"sample-align-d engine, not {engine!r} (the "
            f"parallel-baseline SPMD program is closure-based and "
            f"sequential engines have no ranks to place)"
        )
    request = AlignRequest(
        sequences=tuple(seqs),
        engine=engine,
        n_procs=args.procs,
        seed=args.seed,
        config=config,
        engine_kwargs=engine_kwargs,
    )
    if request.engine_kwargs:
        # Build once up front so bad stage specs or backends error cleanly.
        get_engine(request.engine, **request.engine_kwargs)
    return request


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.engine import AlignmentService
    from repro.seq.fasta import read_fasta

    seqs = read_fasta(args.input)
    with user_input():
        request = _align_request(args, args.engine or "sample-align-d", seqs)
    # Run through the service so the report carries the serving-layer
    # stats (cache hits/misses/evictions, computed vs served).
    svc = AlignmentService(max_workers=1)
    (job,) = svc.run_batch([request])
    if job.error is not None:
        raise job.error
    result = job.result

    text = result.alignment.to_fasta()
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(result.summary(), file=sys.stderr)
    if args.json is not None:
        report = result.report()
        report["job"] = job.metadata()
        report["service"] = svc.stats
        # align's `-` goes to stderr: stdout may carry the FASTA.
        _emit_json(report, args.json, dash_stream=sys.stderr)
    return 0


def _vm_hwm_mib(pid: str) -> float:
    """``VmHWM`` of process ``pid`` (``"self"`` or a number) in MiB, 0
    where ``/proc`` does not have it."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2**10
    except OSError:
        pass
    return 0.0


def _peak_rss_mib() -> float:
    """This process's peak resident set so far, MiB: ``VmHWM`` where
    there is a ``/proc`` (Linux's ``ru_maxrss`` also counts the image
    the process was exec'd from -- a big parent's, under a test runner),
    else ``ru_maxrss``."""
    import resource

    peak = _vm_hwm_mib("self")
    if peak:
        return peak
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _worker_peak_rss_mib(pool) -> float:
    """The summed ``VmHWM`` of a pool's live workers, MiB (0 without a
    pool): the memory a run placed on ``pool`` used outside this
    process."""
    if pool is None:
        return 0.0
    return sum(_vm_hwm_mib(str(pid)) for pid in pool.stats()["worker_pids"])


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.align.dp import kernel
    from repro.obs.tracing import (
        disable_tracing,
        drain_spans,
        enable_tracing,
        stage_breakdown,
        write_chrome_trace,
    )
    from repro.parcomp.backends import bound_malloc_arenas
    from repro.serve import AlignmentGateway

    if args.input:
        from repro.seq.fasta import read_fasta

        seqs = list(read_fasta(args.input))
    else:
        from repro.datagen.rose import generate_family

        fam = generate_family(
            n_sequences=args.n_sequences,
            mean_length=args.mean_length,
            seed=args.seed,
            track_alignment=False,
        )
        seqs = list(fam.sequences)
    with user_input():
        request = _align_request(args, args.engine, seqs)

    # Through a real gateway, so the trace covers admission and the
    # dispatcher threads -- the same span tree a served request records.
    drain_spans()  # start from a clean process-wide buffer
    enable_tracing()
    gateway = AlignmentGateway(n_workers=1)
    try:
        ticket = gateway.submit(request, client_id="trace")
        result = ticket.wait()
        # Before close: a pool the request was placed on closes with it.
        worker_rss = _worker_peak_rss_mib(gateway.pool)
    finally:
        gateway.close()
        disable_tracing()
    records = drain_spans()
    write_chrome_trace(args.output, records)
    breakdown = stage_breakdown(records)

    placements = sorted({
        r.attrs["placement"] for r in records
        if r.name == "spmd.dispatch" and "placement" in r.attrs
    })
    row_kernel = {
        **kernel().describe(),
        "malloc.arena_max": bound_malloc_arenas(),
        "spmd.placement": ", ".join(placements) or "none (no SPMD stage)",
    }
    peak_rss = _peak_rss_mib()
    payload = {
        "input": args.input,
        "engine": args.engine,
        "n_sequences": len(seqs),
        "wall_time_s": result.wall_time,
        "peak_rss_mib": peak_rss,
        "worker_peak_rss_mib": worker_rss,
        "n_spans": len(records),
        "trace_file": args.output,
        "stage_breakdown": breakdown,
        **row_kernel,
    }
    if args.json is not None:
        _emit_json(payload, args.json)
        return 0
    print(
        f"{args.engine}: N={len(seqs)} wall={result.wall_time:.3f}s "
        f"peak_rss_mib={peak_rss:.1f} "
        f"worker_peak_rss_mib={worker_rss:.1f} ({len(records)} spans)"
    )
    _print_stage_table(breakdown)
    for key, value in row_kernel.items():
        print(f"{key}: {value}")
    print(f"chrome trace written to {args.output} (load at ui.perfetto.dev)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datagen.rose import generate_family
    from repro.seq.fasta import to_fasta

    fam = generate_family(
        n_sequences=args.n_sequences,
        mean_length=args.mean_length,
        relatedness=args.relatedness,
        seed=args.seed,
        track_alignment=args.reference is not None,
    )
    text = to_fasta(fam.sequences)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.reference:
        with open(args.reference, "w", encoding="ascii") as fh:
            fh.write(fam.reference.to_fasta())
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.metrics import qscore, total_column_score
    from repro.seq.fasta import parse_fasta_alignment

    with open(args.test, "r", encoding="ascii") as fh:
        test = parse_fasta_alignment(fh.read())
    with open(args.reference, "r", encoding="ascii") as fh:
        ref = parse_fasta_alignment(fh.read())
    print(f"Q  = {qscore(test, ref):.4f}")
    print(f"TC = {total_column_score(test, ref):.4f}")
    return 0
