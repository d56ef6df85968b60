"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``align``     Align a FASTA file with any engine in the unified registry
              (``--engine``: Sample-Align-D, the parallel baseline, or any
              sequential system) and write gapped FASTA.  ``--backend``
              picks the execution backend for distributed engines
              (``threads`` virtual cluster or ``pool`` real cores on
              persistent warm workers).
``generate``  Emit a rose-style synthetic family as FASTA (optionally the
              true alignment too).
``rank``      Print k-mer rank statistics of a FASTA file (centralized vs
              globalized estimators).
``aligners``  List the registered sequential MSA systems.
``engines``   List the unified engine registry (name + kind), the
              execution backends, and the distance estimators
              (``--json`` for the machine-readable form).
``distances`` Inspect the distance subsystem: list the registered
              estimators and their speed/accuracy trade-offs, or
              compute a FASTA file's all-pairs matrix with any
              estimator on any execution backend.
``trees``     Inspect the guide-tree subsystem: list the registered
              builders, or build a FASTA file's guide tree with any
              builder (Newick export, merge-schedule statistics --
              how parallel the progressive merge DAG is).
``quality``   Score an alignment against a reference alignment (Q/TC).
``model``     Calibrate the performance model and print time/speedup
              projections for a given (N, L) over a processor sweep.
``plan``      Recommend a worker count for a FASTA workload from the
              calibrated scalability model (Figs. 4-5); with
              ``--backend``, probe and prefer the backend's *measured*
              throughput on this host.
``serve``     Start the alignment-serving HTTP gateway (admission
              control, coalescing, optional disk-backed result store;
              ``--backend pool`` runs distributed requests on real
              cores, on a warm worker pool kept alive across requests).
``loadtest``  Drive an in-process gateway with seeded synthetic traffic
              and report throughput/latency/hit-rates
              (``--trace-out FILE`` also records spans and writes a
              Chrome trace of the whole run).
``trace``     Run one alignment through a real gateway with tracing
              enabled: writes a Perfetto-loadable Chrome trace (spans
              covering gateway -> service -> distance -> tree -> merge
              -> backend dispatch) and prints the per-stage breakdown.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _emit_json(payload: object, dest: str, dash_stream=None) -> None:
    """Route a ``--json [FILE]`` payload: ``-`` to a stream, else FILE."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text, file=dash_stream or sys.stdout)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


#: The guide-tree pipeline's flag group, declared once: flag ->
#: (stage, config field it sets, argparse keywords).  Sub-commands pick
#: the flags they carry with :func:`_add_stage_flags`;
#: :func:`_stage_specs` turns the parsed flags into the two configs.
_STAGE_FLAGS = {
    "--distance": ("distance", "estimator", dict(
        metavar="NAME",
        help="distance estimator for the guide-tree stage (see `repro "
        "distances`): 'ktuple' (fast, alignment-free), 'kmer-fraction' "
        "or 'full-dp' (accurate, O(L^2) per pair). For "
        "sample-align-d it configures the per-bucket local aligners; "
        "for serve/loadtest it is the default folded (pre-hash) into "
        "guide-tree engine requests that don't choose one.",
    )),
    "--distance-backend": ("distance", "backend", dict(
        metavar="NAME",
        help="execution backend for the all-pairs distance stage "
        "('threads' or 'pool'; output is byte-identical "
        "to the serial stage). Unset: 'threads' over the usable cores "
        "for a large compiled full-dp stage, else serial. Guide-tree "
        "engines only.",
    )),
    "--distance-out": ("distance", "out", dict(
        choices=["memory", "condensed", "memmap"],
        help="distance-matrix placement: 'memory' (dense), 'condensed' "
        "(flat upper triangle, half the RAM; the default) or 'memmap' "
        "(disk-backed tile store -- O(tile) resident memory at genome "
        "scale). Byte-identical values. Guide-tree engines only.",
    )),
    "--distance-store-dir": ("distance", "store_dir", dict(
        metavar="DIR",
        help="tile-store directory for --distance-out memmap (default: "
        "a fresh temporary store, removed after the stage; a fixed DIR "
        "makes the distance stage resumable across runs)",
    )),
    "--tree": ("tree", "builder", dict(
        metavar="NAME",
        help="guide-tree builder (see `repro trees`): 'upgma', 'wpgma', "
        "'nj', or 'single-linkage'. For sample-align-d it configures "
        "the per-bucket local aligners; for serve/loadtest it is the "
        "default folded (pre-hash) into guide-tree engine requests that "
        "don't choose one.",
    )),
}


def _add_stage_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags or _STAGE_FLAGS:
        parser.add_argument(flag, default=None, **_STAGE_FLAGS[flag][2])


def _stage_specs(args: argparse.Namespace) -> dict:
    """The ``--distance*`` / ``--tree*`` flags as ``{stage: config
    dict}``, validated through :class:`~repro.distance.DistanceConfig` /
    :class:`~repro.tree.TreeConfig` (``ValueError`` on a bad name).  A
    stage none of whose flags was given (or that the sub-command does
    not carry) is left out."""
    from repro.tree import STAGE_CONFIGS

    fields = {stage: {} for stage in STAGE_CONFIGS}
    for flag, (stage, name, _) in _STAGE_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            fields[stage][name] = value
    return {
        stage: config_cls(**fields[stage]).to_dict()
        for stage, config_cls in STAGE_CONFIGS.items()
        if fields[stage]
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sample-Align-D: parallel MSA via phylogenetic sampling "
        "and domain decomposition (IPDPS 2008 reproduction)",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs) -> argparse.ArgumentParser:
        # No prefix matching: `--dist` must not parse as one of the
        # `--distance*` flags.
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p_align = command("align", help="align a FASTA file")
    p_align.add_argument("input", help="FASTA file of ungapped sequences")
    p_align.add_argument("-o", "--output", help="output FASTA (default stdout)")
    p_align.add_argument(
        "-p", "--procs", type=int, default=4, help="virtual processors"
    )
    p_align.add_argument(
        "--engine",
        default=None,
        help="engine from the unified registry (default: sample-align-d; "
        "see `repro engines`)",
    )
    p_align.add_argument(
        "--local-aligner",
        default="muscle-p",
        help="Sample-Align-D's per-bucket aligner (registry name)",
    )
    p_align.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seeded initial block distribution (Sample-Align-D)",
    )
    p_align.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend for distributed engines: 'threads' "
        "(default; virtual cluster, ranks run one at a time: wall time "
        "about the serial work, best modeled-time fidelity) or 'pool' "
        "(persistent warm worker processes with shared-memory "
        "transport; use it to actually parallelize on a multi-core "
        "host -- more ranks than pool slots run cold on a one-shot "
        "pool). Alignments are byte-identical across backends.",
    )
    _add_stage_flags(p_align)
    p_align.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the machine-readable run summary as JSON "
        "(to FILE, or stderr when no FILE is given)",
    )

    p_gen = command("generate", help="generate a synthetic family")
    p_gen.add_argument("-n", "--n-sequences", type=int, default=50)
    p_gen.add_argument("-l", "--mean-length", type=int, default=300)
    p_gen.add_argument("-r", "--relatedness", type=float, default=800.0)
    p_gen.add_argument("-s", "--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="output FASTA (default stdout)")
    p_gen.add_argument(
        "--reference", help="also write the true alignment to this path"
    )

    p_rank = command("rank", help="k-mer rank statistics of a FASTA file")
    p_rank.add_argument("input")
    p_rank.add_argument("-k", type=int, default=4, help="k-mer length")
    p_rank.add_argument(
        "--samples", type=int, default=16, help="sample size for the globalized estimator"
    )

    command("aligners", help="list registered sequential aligners")

    p_eng = command(
        "engines",
        help="list the unified engine registry, execution backends and "
        "distance estimators",
    )
    p_eng.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the registry (engines, backends, distance estimators "
        "with trade-offs) as JSON (to FILE, or stdout when no FILE)",
    )

    p_dist = command(
        "distances",
        help="inspect distance estimators, or compute a FASTA file's "
        "all-pairs distance matrix",
    )
    p_dist.add_argument(
        "input",
        nargs="?",
        help="optional FASTA file; without it the registered estimators "
        "and their trade-offs are listed",
    )
    p_dist.add_argument(
        "--estimator", default="ktuple", metavar="NAME",
        help="distance estimator (default ktuple; see the no-input listing)",
    )
    p_dist.add_argument(
        "-k", type=int, default=None,
        help="k-mer length for the alignment-free estimators",
    )
    p_dist.add_argument(
        "--transform", default=None, choices=["linear", "kimura"],
        help="identity post-transform (identity-based estimators)",
    )
    p_dist.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend for the tiled all-pairs scheduler "
        "('threads' or 'pool'; default: 'threads' for a large compiled "
        "full-dp stage, else serial)",
    )
    p_dist.add_argument(
        "--workers", type=int, default=None,
        help="scheduler ranks (default: usable core count; 1 without "
        "--backend forces the serial stage)",
    )
    p_dist.add_argument(
        "--out", default=None,
        choices=["memory", "condensed", "memmap"],
        help="result placement: 'memory' (dense), 'condensed' (flat "
        "upper triangle; the default) or 'memmap' (disk-backed tile "
        "store, O(tile) resident memory). Values are byte-identical.",
    )
    p_dist.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="tile-store directory for --out memmap (default: a fresh "
        "temporary store, removed after the stage; a fixed DIR resumes: "
        "valid tiles are skipped on re-run)",
    )
    p_dist.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the full matrix as TSV, streamed row by row "
        "(ids in header and first column)",
    )
    p_dist.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit summary stats (and options) as JSON "
        "(to FILE, or stdout when no FILE)",
    )

    p_tree = command(
        "trees",
        help="inspect guide-tree builders, or build a FASTA file's guide "
        "tree (Newick export + merge-schedule stats)",
    )
    p_tree.add_argument(
        "input",
        nargs="?",
        help="optional FASTA file (or Newick file with --from-newick); "
        "without it the registered builders are listed",
    )
    p_tree.add_argument(
        "--builder", default="upgma", metavar="NAME",
        help="tree builder (default upgma; see the no-input listing)",
    )
    p_tree.add_argument(
        "--estimator", default="ktuple", metavar="NAME",
        help="distance estimator feeding the builder (see `repro "
        "distances`)",
    )
    p_tree.add_argument(
        "--anchors", type=int, default=None, metavar="K",
        help="anchor count for --builder anchor (the O(K*N) sampled "
        "guide tree; the distance stage computes only the K anchor "
        "rows, never the full matrix)",
    )
    p_tree.add_argument(
        "--anchor-base", default=None, metavar="NAME",
        help="exact builder run over the anchors (--builder anchor "
        "only; default upgma)",
    )
    p_tree.add_argument(
        "--anchor-seed", type=int, default=None,
        help="anchor-sampling seed (--builder anchor only; default 0)",
    )
    p_tree.add_argument(
        "--from-newick", action="store_true",
        help="treat the input as a Newick file instead of FASTA "
        "(inspect an existing tree's merge schedule)",
    )
    p_tree.add_argument(
        "--branch-lengths", action="store_true",
        help="annotate exported Newick with branch lengths",
    )
    p_tree.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the tree as Newick to FILE",
    )
    p_tree.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the merge-schedule statistics (and options) as JSON "
        "(to FILE, or stdout when no FILE)",
    )

    p_q = command("quality", help="score an alignment vs a reference")
    p_q.add_argument("test", help="gapped FASTA of the test alignment")
    p_q.add_argument("reference", help="gapped FASTA of the reference")

    p_m = command(
        "model", help="performance-model projections for (N, L)"
    )
    p_m.add_argument("-n", "--n-sequences", type=int, default=2000)
    p_m.add_argument("-l", "--mean-length", type=int, default=300)
    p_m.add_argument(
        "-p", "--procs", type=int, nargs="+", default=[1, 4, 8, 16]
    )

    p_plan = command(
        "plan", help="recommend a worker count for a FASTA workload"
    )
    p_plan.add_argument("input", help="FASTA file of ungapped sequences")
    p_plan.add_argument(
        "--max-procs", type=int, default=64, help="largest count considered"
    )
    p_plan.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="also probe this execution backend's measured throughput "
        "('threads' or 'pool') on a workload subsample, and "
        "recommend from the measurement rather than the calibrated "
        "model alone (the model assumes one real core per rank, which "
        "the threads backend cannot honour)",
    )
    p_plan.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the plan as JSON (to FILE, or stdout when no FILE)",
    )

    p_serve = command(
        "serve", help="start the alignment-serving HTTP gateway"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8000, help="0 picks an ephemeral port"
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="requests in flight at once (gateway dispatcher threads and "
        "service threads); in-process computes still run one at a time "
        "per process, so this buys overlap of store I/O and "
        "--backend pool runs, not parallel alignment",
    )
    p_serve.add_argument(
        "--queue-size", type=int, default=256, help="admission-queue bound"
    )
    p_serve.add_argument(
        "--store", metavar="DIR",
        help="directory for the disk-backed result store "
        "(default: in-memory cache only)",
    )
    p_serve.add_argument(
        "--store-budget-mb", type=float, default=256.0,
        help="disk store byte budget in MiB",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=128,
        help="in-memory result-cache entries (when no --store)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=None,
        help="per-client token-bucket rate (req/s; default unlimited)",
    )
    p_serve.add_argument(
        "--burst", type=float, default=None,
        help="per-client token-bucket burst (default 2x rate)",
    )
    p_serve.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="default execution backend for distributed requests that "
        "don't choose one ('threads' or 'pool'; pick 'pool' to serve "
        "Sample-Align-D on real cores, reusing warm workers across "
        "requests)",
    )
    _add_stage_flags(p_serve)

    p_load = command(
        "loadtest", help="drive an in-process gateway with synthetic traffic"
    )
    p_load.add_argument("--requests", type=int, default=500)
    p_load.add_argument("--clients", type=int, default=8)
    p_load.add_argument(
        "--mode", choices=["closed", "open"], default="closed"
    )
    p_load.add_argument(
        "--mix", choices=["uniform", "zipf", "repeat"], default="zipf"
    )
    p_load.add_argument(
        "--pool", type=int, default=24, help="distinct requests in the pool"
    )
    p_load.add_argument(
        "--arrival-rate", type=float, default=200.0,
        help="open-loop Poisson arrival rate (req/s)",
    )
    p_load.add_argument("--engine", default="center-star")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--workers", type=int, default=4, help="gateway dispatcher threads"
    )
    p_load.add_argument(
        "--queue-size", type=int, default=256, help="admission-queue bound"
    )
    p_load.add_argument(
        "--store", metavar="DIR",
        help="back the gateway with a disk result store at DIR",
    )
    p_load.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="default execution backend for distributed requests "
        "('threads' or 'pool')",
    )
    _add_stage_flags(p_load, "--distance", "--distance-backend", "--tree")
    p_load.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable tracing for the run and write every recorded span "
        "as Chrome trace-event JSON to FILE (load at ui.perfetto.dev); "
        "the report additionally gains a stage_breakdown section",
    )
    p_load.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the full report as JSON (to FILE, or stdout when no FILE)",
    )

    p_trace = command(
        "trace",
        help="trace one alignment end to end (Chrome trace + per-stage "
        "breakdown)",
    )
    p_trace.add_argument(
        "input",
        nargs="?",
        help="FASTA file of ungapped sequences (default: a small seeded "
        "synthetic family)",
    )
    p_trace.add_argument(
        "--engine",
        default="clustalw",
        help="engine from the unified registry (default clustalw -- a "
        "guide-tree engine, so the distance/tree/merge stages all appear)",
    )
    p_trace.add_argument(
        "-p", "--procs", type=int, default=4, help="virtual processors"
    )
    _add_stage_flags(p_trace, "--distance", "--distance-backend")
    p_trace.add_argument(
        "-n", "--n-sequences", type=int, default=12,
        help="synthetic family size (no-input mode)",
    )
    p_trace.add_argument(
        "-l", "--mean-length", type=int, default=60,
        help="synthetic family mean length (no-input mode)",
    )
    p_trace.add_argument("-s", "--seed", type=int, default=0)
    p_trace.add_argument(
        "-o", "--output", default="trace.json", metavar="FILE",
        help="Chrome trace-event JSON output (default trace.json)",
    )
    p_trace.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the stage breakdown (and options) as JSON "
        "(to FILE, or stdout when no FILE)",
    )
    return parser


def _align_request(args: argparse.Namespace, engine: str, seqs):
    """The :class:`~repro.engine.AlignRequest` of ``align`` and ``trace``.

    Sample-Align-D hands the stage flags to its per-bucket local
    aligners (through a :class:`~repro.core.config.SampleAlignDConfig`);
    every other engine takes them itself.  ``--local-aligner`` and
    ``--backend``, which ``trace`` does not carry, fall back to the
    config's defaults.  Bad names and stage flags an engine cannot take
    raise ``KeyError`` / ``ValueError`` before anything runs.
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
    engine_kwargs = {}
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
            local_aligner=local_aligner,
            backend=backend,
            local_aligner_kwargs=specs,
        )
    else:
        if backend is not None:
            raise ValueError(
                f"--backend currently applies only to the "
                f"sample-align-d engine, not {engine!r} (the "
                f"parallel-baseline SPMD program is closure-based and "
                f"sequential engines have no ranks to place)"
            )
        engine_kwargs = specs
    request = AlignRequest(
        sequences=tuple(seqs),
        engine=engine,
        n_procs=args.procs,
        seed=args.seed,
        config=config,
        engine_kwargs=engine_kwargs,
    )
    if request.engine_kwargs:
        # Build once up front so bad stage specs error cleanly.
        get_engine(request.engine, **request.engine_kwargs)
    return request


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.engine import AlignmentService
    from repro.seq.fasta import read_fasta

    engine = args.engine or "sample-align-d"

    seqs = read_fasta(args.input)
    # Bad user input (unknown names, empty input) becomes a clean error;
    # failures *inside* an engine run keep their traceback.
    try:
        request = _align_request(args, engine, seqs)
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    # Run through the service so the report carries the serving-layer
    # stats (cache hits/misses/evictions, computed vs served).
    with AlignmentService(max_workers=1) as svc:
        job = svc.submit(request)
        result = job.wait()
        service_stats = svc.stats

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
        report["service"] = service_stats
        # align's `-` goes to stderr: stdout may carry the FASTA.
        _emit_json(report, args.json, dash_stream=sys.stderr)
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


def _cmd_rank(args: argparse.Namespace) -> int:
    from repro.kmer.rank import RankConfig, centralized_rank, globalized_rank
    from repro.metrics.stats import ascii_histogram, deviation_stats, summarize
    from repro.seq.fasta import read_fasta

    seqs = list(read_fasta(args.input))
    cfg = RankConfig(k=args.k)
    central = centralized_rank(seqs, cfg)
    n_samples = min(args.samples, len(seqs))
    step = max(len(seqs) // max(n_samples, 1), 1)
    sample = seqs[::step][:n_samples]
    globalized = globalized_rank(seqs, sample, cfg)
    print("centralized:", summarize(central).row())
    print("globalized :", summarize(globalized).row())
    var, std = deviation_stats(globalized, central)
    print(f"variance w.r.t. centralized = {var:.5f}  (std {std:.5f})")
    print(ascii_histogram(central, label="centralized rank"))
    print(ascii_histogram(globalized, label="globalized rank"))
    return 0


def _cmd_aligners(_args: argparse.Namespace) -> int:
    from repro.msa.registry import available_aligners

    for name in available_aligners():
        print(name)
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.distance import estimator_info
    from repro.engine import available_engines
    from repro.engine.registry import engine_stages
    from repro.parcomp.backends import available_backends
    from repro.tree import builder_info

    if args.json is not None:
        payload = {
            "engines": [
                {
                    "name": name,
                    "kind": kind,
                    "stages": sorted(engine_stages(name)),
                }
                for name, kind in available_engines().items()
            ],
            "execution_backends": available_backends(),
            "distance_estimators": estimator_info(),
            "tree_builders": builder_info(),
        }
        _emit_json(payload, args.json)
        return 0
    for name, kind in available_engines().items():
        seams = "".join(f"+{stage}" for stage in sorted(engine_stages(name)))
        print(f"{name:<20} {kind:<12} {seams}")
    print(
        f"\nexecution backends for distributed engines (--backend): "
        f"{', '.join(available_backends())}"
    )
    print(
        "  threads:   virtual cluster -- ranks run one at a time: wall "
        "about the serial work, modeled-time fidelity"
    )
    print(
        "  pool:      persistent warm worker processes + shared-memory "
        "transport -- wall clock scales with host cores, identical "
        "output; more ranks than pool slots run cold on a one-shot pool"
    )
    print(
        "\ndistance estimators (--distance; engines marked +distance route "
        "their guide-tree stage through repro.distance.all_pairs):"
    )
    for name, desc in estimator_info().items():
        print(f"  {name:<14} {desc}")
    print(
        "\ntree builders (--tree; engines marked +tree route their tree "
        "stage through repro.tree; the progressive merge runs serially "
        "in the engine's own process or rank):"
    )
    for name, desc in builder_info().items():
        print(f"  {name:<14} {desc}")
    return 0


def _cmd_distances(args: argparse.Namespace) -> int:
    import time

    from repro.distance import (
        DistanceConfig,
        all_pairs,
        available_estimators,
        estimator_info,
    )
    from repro.parcomp.backends import available_backends

    if args.input is None:
        if args.json is not None:
            _emit_json(
                {
                    "distance_estimators": estimator_info(),
                    "transforms": ["linear", "kimura"],
                    "execution_backends": available_backends(),
                },
                args.json,
            )
            return 0
        print("distance estimators (speed/accuracy trade-offs):")
        for name, desc in estimator_info().items():
            print(f"  {name:<14} {desc}")
        print(
            "\npost-transforms (--transform): linear (1 - id), kimura "
            "(-ln(1 - D - D^2/5), MUSCLE stage 2)"
        )
        print(
            f"execution backends (--backend): "
            f"{', '.join(available_backends())} -- byte-identical output, "
            "'pool' runs the pair DPs on real cores, reusing warm "
            "workers across calls"
        )
        return 0

    from repro.seq.fasta import read_fasta

    from repro.distance import CondensedMatrix

    seqs = read_fasta(args.input)
    try:
        config = DistanceConfig(
            estimator=args.estimator,
            k=args.k,
            transform=args.transform,
            backend=args.backend,
            workers=args.workers,
            out=args.out,
            store_dir=args.store_dir,
        )
        t0 = time.perf_counter()
        d = all_pairs(
            list(seqs),
            config.make_estimator(),
            backend=config.backend,
            workers=config.workers,
            out=config.out or "condensed",
            store_dir=config.store_dir,
        )
        wall = time.perf_counter() - t0
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2

    n = d.shape[0]
    if isinstance(d, CondensedMatrix):
        # Streamed over the condensed vector (memmap-safe: O(chunk) RAM).
        s = d.offdiag_stats()
        n_pairs = d.condensed.size
        dmin, dmean, dmax = s["min"], s["mean"], s["max"]
    else:
        off = d[np.triu_indices(n, k=1)]
        n_pairs = off.size
        dmin, dmean, dmax = off.min(), off.mean(), off.max()
    stats = {
        "input": args.input,
        "n_sequences": n,
        "n_pairs": int(n_pairs),
        "estimator": config.estimator,
        "transform": config.transform,
        "backend": config.backend,
        "workers": config.workers,
        "out": config.out or "condensed",
        "store_dir": config.store_dir,
        "wall_s": wall,
        "min": float(dmin),
        "mean": float(dmean),
        "max": float(dmax),
    }
    if args.output:
        # Row-by-row streaming: one gathered/dense row resident at a
        # time, so genome-scale exports never balloon RSS.
        ids = [s.id for s in seqs]
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write("\t".join(["id"] + ids) + "\n")
            for i in range(n):
                row = d.row(i) if isinstance(d, CondensedMatrix) else d[i]
                fh.write(
                    "\t".join([ids[i]] + [f"{v:.6f}" for v in row]) + "\n"
                )
    if args.json is not None:
        _emit_json(stats, args.json)
        return 0
    print(
        f"{config.estimator} distances: N={n} pairs={n_pairs} "
        f"wall={wall:.3f}s "
        f"(backend={config.backend or 'serial'}, "
        f"out={config.out or 'condensed'})"
    )
    print(
        f"off-diagonal: min={stats['min']:.4f} mean={stats['mean']:.4f} "
        f"max={stats['max']:.4f}"
    )
    if args.output:
        print(f"matrix written to {args.output}")
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    import time

    from repro.tree import builder_info, get_builder, merge_schedule

    if args.input is None:
        if args.json is not None:
            _emit_json({"tree_builders": builder_info()}, args.json)
            return 0
        print("tree builders (topology trade-offs):")
        for name, desc in builder_info().items():
            print(f"  {name:<14} {desc}")
        print(
            "\nthe progressive merge walks any tree serially in the "
            "engine's own process or rank; parallel-baseline's "
            "cooperative mode splits each schedule level over its ranks "
            "-- byte-identical output"
        )
        return 0

    try:
        if args.from_newick:
            from repro.tree import GuideTree

            with open(args.input, "r", encoding="utf-8") as fh:
                tree = GuideTree.from_newick(fh.read())
            builder_name, estimator, wall = None, None, 0.0
        else:
            from repro.distance import all_pairs
            from repro.seq.fasta import read_fasta

            seqs = read_fasta(args.input)
            builder_kwargs = {}
            if args.anchors is not None:
                builder_kwargs["anchors"] = args.anchors
            if args.anchor_base is not None:
                builder_kwargs["base"] = args.anchor_base
            if args.anchor_seed is not None:
                builder_kwargs["seed"] = args.anchor_seed
            builder = get_builder(args.builder, **builder_kwargs)
            builder_name, estimator = builder.name, args.estimator
            ids = [s.id for s in seqs]
            t0 = time.perf_counter()
            if builder.name == "anchor":
                # The O(K*N) path: compute only the K anchor rows, never
                # the full all-pairs matrix.
                from repro.tree import anchor_guide_tree

                tree = anchor_guide_tree(
                    list(seqs),
                    args.estimator,
                    anchors=builder.anchors,
                    base=builder.base,
                    seed=builder.seed,
                    labels=ids,
                )
            else:
                d = all_pairs(list(seqs), args.estimator, out="condensed")
                tree = builder.build(d, ids)
            wall = time.perf_counter() - t0
        schedule = merge_schedule(tree)
    except (KeyError, ValueError, OSError) as exc:
        # OSError.args[0] is the bare errno; its str() is the message.
        msg = (
            str(exc) if isinstance(exc, OSError)
            else exc.args[0] if exc.args else str(exc)
        )
        print(f"error: {msg}", file=sys.stderr)
        return 2

    stats = {
        "input": args.input,
        "builder": builder_name,
        "estimator": estimator,
        "wall_s": wall,
        "schedule": schedule.to_dict(),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(tree.to_newick(branch_lengths=args.branch_lengths) + "\n")
    if args.json is not None:
        _emit_json(stats, args.json)
        return 0
    sched = schedule.to_dict()
    label = builder_name or "from-newick"
    print(
        f"{label} tree: leaves={sched['n_leaves']} "
        f"merges={sched['n_merges']} wall={wall:.3f}s"
    )
    print(
        f"merge schedule: levels={sched['n_levels']} (critical path) "
        f"max_width={sched['max_width']} "
        f"mean_parallelism={sched['mean_parallelism']:.2f}"
    )
    if args.output:
        print(f"newick written to {args.output}")
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


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.perfmodel import (
        calibrate_kernels,
        optimal_processors,
        predict_sequential_time,
        predict_total_time,
    )

    print("calibrating kernels on this host (a few seconds)...")
    coeffs = calibrate_kernels()
    n, L = args.n_sequences, args.mean_length
    t_seq = predict_sequential_time(n, L, coeffs)
    print(f"\nN={n} L={L}: sequential aligner ~{t_seq:.1f}s")
    print(f"{'p':>4} {'time_s':>10} {'speedup':>8}")
    for p in args.procs:
        t = predict_total_time(n, p, L, coeffs)
        print(f"{p:>4} {t:>10.2f} {t_seq / t:>7.1f}x")
    best = optimal_processors(n, L, coeffs)
    print(f"\nmodel-optimal processor count (<=64): {best}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.perfmodel import (
        calibrate_kernels,
        comm_compute_crossover,
        efficiency_curve,
        measure_backend_throughput,
        optimal_processors,
        predict_sequential_time,
        predict_total_time,
    )
    from repro.seq.fasta import read_fasta

    seqs = read_fasta(args.input)
    if len(seqs) == 0:
        print("error: no sequences in input", file=sys.stderr)
        return 2
    n = len(seqs)
    mean_length = sum(len(s) for s in seqs) / n

    print("calibrating kernels on this host (a few seconds)...",
          file=sys.stderr)
    coeffs = calibrate_kernels()
    best = optimal_processors(n, mean_length, coeffs, max_procs=args.max_procs)
    t_seq = predict_sequential_time(n, mean_length, coeffs)
    t_best = predict_total_time(n, best, mean_length, coeffs)
    sweep = sorted({1, 2, 4, 8, 16, 32, best, args.max_procs})
    sweep = [p for p in sweep if 1 <= p <= args.max_procs]
    eff = efficiency_curve(n, mean_length, sweep, coeffs)
    crossover = comm_compute_crossover(n, mean_length, coeffs)

    probe = None
    if args.backend is not None:
        try:
            print(
                f"probing measured {args.backend!r} throughput on a "
                "workload subsample...",
                file=sys.stderr,
            )
            probe = measure_backend_throughput(
                seqs,
                args.backend,
                procs=[p for p in (1, 2, 4, best) if p <= args.max_procs],
            )
        except (KeyError, ValueError) as exc:
            msg = exc.args[0] if exc.args else str(exc)
            print(f"error: {msg}", file=sys.stderr)
            return 2

    plan = {
        "input": args.input,
        "n_sequences": n,
        "mean_length": mean_length,
        "recommended_procs": best,
        "predicted_sequential_s": t_seq,
        "predicted_parallel_s": t_best,
        "predicted_speedup": t_seq / t_best if t_best > 0 else None,
        "comm_compute_crossover_procs": crossover,
        "efficiency": {
            str(p): float(e) for p, e in zip(sweep, eff)
        },
    }
    if probe is not None:
        # The model assumes one real core per rank; the measurement is
        # the authority on what this backend delivers on this host.
        plan["backend_probe"] = probe
        plan["recommended_procs_model"] = best
        probed = sorted(int(k) for k in probe["wall_s"])
        p_max = probed[-1]
        measured_best = probe["best_procs"]
        if best <= p_max or measured_best < p_max:
            # The model's pick was probed outright, or scaling already
            # flattened inside the probed range: measurement decides.
            plan["recommended_procs"] = measured_best
        else:
            # Still scaling at the probe edge (the subsample cannot
            # host the model's larger pick): trust the model up to the
            # physical core budget the measurement is subject to.
            plan["recommended_procs"] = max(
                measured_best, min(best, probe["host_cores"])
            )
    if args.json is not None:
        _emit_json(plan, args.json)
        return 0
    print(f"workload: N={n} mean_length={mean_length:.0f}")
    print(f"{'p':>4} {'efficiency':>11}")
    for p, e in zip(sweep, eff):
        marker = "  <- model pick" if p == best else ""
        print(f"{p:>4} {e:>11.2f}{marker}")
    print(
        f"\nmodel-recommended workers: {best} "
        f"(~{t_best:.1f}s vs ~{t_seq:.1f}s sequential, "
        f"{t_seq / max(t_best, 1e-12):.1f}x)"
    )
    print(f"communication overtakes compute at p={crossover}")
    if probe is not None:
        walls = ", ".join(
            f"p={p}: {w:.2f}s" for p, w in sorted(
                probe["wall_s"].items(), key=lambda kv: int(kv[0])
            )
        )
        print(
            f"measured {probe['backend']} backend "
            f"(subsample N={probe['n_probe']}, "
            f"{probe['host_cores']} host cores): {walls}"
        )
        print(
            f"recommended workers from measured throughput: "
            f"{plan['recommended_procs']}"
        )
    return 0


def _build_gateway(args: argparse.Namespace):
    """Service + gateway from the shared serve/loadtest options."""
    from repro.engine import (
        AlignmentService,
        MemoryResultCache,
        TieredResultCache,
    )
    from repro.serve import AlignmentGateway, ResultStore

    specs = _stage_specs(args)  # before anything is opened: may raise
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
        max_workers=args.workers,
        cache_size=cache_size,
        cache=cache,
    )
    return AlignmentGateway(
        service,
        n_workers=args.workers,
        max_queue=args.queue_size,
        rate=getattr(args, "rate", None),
        burst=getattr(args, "burst", None),
        default_backend=getattr(args, "backend", None),
        default_distance=specs.get("distance"),
        default_tree=specs.get("tree"),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import create_server

    try:
        gateway = _build_gateway(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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

    try:
        config = WorkloadConfig(
            n_requests=args.requests,
            n_clients=args.clients,
            mode=args.mode,
            mix=args.mix,
            pool_size=args.pool,
            arrival_rate=args.arrival_rate,
            engine=args.engine,
            seed=args.seed,
        )
        gateway = _build_gateway(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def _print_stage_table(nodes, indent: int = 0, file=None) -> None:
    """Render a :func:`repro.obs.tracing.stage_breakdown` tree."""
    for node in nodes:
        pad = "  " * indent
        print(
            f"{pad}{node['stage']:<{max(30 - len(pad), 1)}} "
            f"x{node['count']:<5} {node['total_s'] * 1000:9.2f}ms",
            file=file or sys.stdout,
        )
        _print_stage_table(node.get("children", []), indent + 1, file=file)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.align.dp import kernel
    from repro.obs.tracing import (
        disable_tracing,
        drain_spans,
        enable_tracing,
        stage_breakdown,
        write_chrome_trace,
    )
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
    try:
        request = _align_request(args, args.engine, seqs)
    except (KeyError, ValueError, TypeError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2

    # Through a real gateway, so the trace covers admission and the
    # dispatcher threads -- the same span tree a served request records.
    drain_spans()  # start from a clean process-wide buffer
    enable_tracing()
    gateway = AlignmentGateway(n_workers=1)
    try:
        ticket = gateway.submit(request, client_id="trace")
        result = ticket.wait()
    finally:
        gateway.close()
        disable_tracing()
    records = drain_spans()
    write_chrome_trace(args.output, records)
    breakdown = stage_breakdown(records)

    row_kernel = kernel().describe()
    payload = {
        "input": args.input,
        "engine": args.engine,
        "n_sequences": len(seqs),
        "wall_time_s": result.wall_time,
        "n_spans": len(records),
        "trace_file": args.output,
        "stage_breakdown": breakdown,
        **row_kernel,
    }
    if args.json is not None:
        _emit_json(payload, args.json, dash_stream=sys.stdout)
        return 0
    print(
        f"{args.engine}: N={len(seqs)} wall={result.wall_time:.3f}s "
        f"({len(records)} spans)"
    )
    _print_stage_table(breakdown)
    for key, value in row_kernel.items():
        print(f"{key}: {value}")
    print(f"chrome trace written to {args.output} (load at ui.perfetto.dev)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "align": _cmd_align,
        "generate": _cmd_generate,
        "rank": _cmd_rank,
        "aligners": _cmd_aligners,
        "engines": _cmd_engines,
        "distances": _cmd_distances,
        "trees": _cmd_trees,
        "quality": _cmd_quality,
        "model": _cmd_model,
        "plan": _cmd_plan,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
