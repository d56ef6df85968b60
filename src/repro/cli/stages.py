"""``engines``, ``distances``, ``trees`` and ``rank``: the registry of
what runs, and one pipeline stage at a time on a FASTA file."""

from __future__ import annotations

import argparse

from repro.cli import BACKEND, JSON, _check_backend, _emit_json, user_input


def add_commands(command) -> None:
    p = command("engines", _cmd_engines, parents=[JSON],
                help="list the engines, execution backends, distance "
                "estimators and tree builders")

    p = command("distances", _cmd_distances, parents=[BACKEND, JSON],
                help="compute a FASTA file's all-pairs distance matrix")
    p.add_argument("input", help="FASTA file of ungapped sequences")
    p.add_argument(
        "--estimator", default="ktuple", metavar="NAME",
        help="distance estimator (default ktuple; see `repro engines`)",
    )
    p.add_argument(
        "-k", type=int, default=None,
        help="k-mer length for the alignment-free estimators",
    )
    p.add_argument(
        "--transform", default=None, choices=["linear", "kimura"],
        help="identity post-transform (identity-based estimators)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="scheduler ranks (default: usable core count; 1 without "
        "--backend forces the serial stage)",
    )
    p.add_argument(
        "--out", default=None, choices=["memory", "condensed", "memmap"],
        help="result placement: 'memory' (dense), 'condensed' (flat "
        "upper triangle; the default) or 'memmap' (disk-backed tile "
        "store, O(tile) resident memory). Values are byte-identical.",
    )
    p.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="tile-store directory for --out memmap (default: a fresh "
        "temporary store, removed after the stage; a fixed DIR resumes: "
        "valid tiles are skipped on re-run)",
    )
    p.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the full matrix as TSV, streamed row by row "
        "(ids in header and first column)",
    )

    p = command("trees", _cmd_trees, parents=[JSON],
                help="build a FASTA file's guide tree (Newick export + "
                "merge-schedule stats)")
    p.add_argument("input", help="FASTA file (or Newick with --from-newick)")
    p.add_argument(
        "--builder", default="upgma", metavar="NAME",
        help="tree builder (default upgma; see `repro engines`)",
    )
    p.add_argument(
        "--estimator", default="ktuple", metavar="NAME",
        help="distance estimator feeding the builder",
    )
    p.add_argument(
        "--anchors", type=int, default=None, metavar="K",
        help="anchor count for --builder anchor (the O(K*N) sampled "
        "guide tree; the distance stage computes only the K anchor "
        "rows, never the full matrix)",
    )
    p.add_argument(
        "--anchor-base", default=None, metavar="NAME",
        help="exact builder run over the anchors (--builder anchor "
        "only; default upgma)",
    )
    p.add_argument(
        "--anchor-seed", type=int, default=None,
        help="anchor-sampling seed (--builder anchor only; default 0)",
    )
    p.add_argument(
        "--from-newick", action="store_true",
        help="treat the input as a Newick file instead of FASTA "
        "(inspect an existing tree's merge schedule)",
    )
    p.add_argument(
        "--branch-lengths", action="store_true",
        help="annotate exported Newick with branch lengths",
    )
    p.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the tree as Newick to FILE",
    )

    p = command("rank", _cmd_rank, help="k-mer rank statistics of a FASTA file")
    p.add_argument("input")
    p.add_argument("-k", type=int, default=4, help="k-mer length")
    p.add_argument("--samples", type=int, default=16,
                   help="sample size for the globalized estimator")


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.distance import estimator_info
    from repro.distance.transforms import TRANSFORMS
    from repro.engine import available_engines
    from repro.engine.registry import engine_stages
    from repro.parcomp.backends import available_backends
    from repro.tree import builder_info

    if args.json is not None:
        payload = {
            "engines": [
                {"name": name, "kind": kind,
                 "stages": sorted(engine_stages(name))}
                for name, kind in available_engines().items()
            ],
            "execution_backends": available_backends(),
            "distance_estimators": estimator_info(),
            "transforms": list(TRANSFORMS),
            "tree_builders": builder_info(),
        }
        _emit_json(payload, args.json)
        return 0
    for name, kind in available_engines().items():
        seams = "".join(f"+{stage}" for stage in sorted(engine_stages(name)))
        print(f"{name:<20} {kind:<12} {seams}")
    print(
        f"\nexecution backends for distributed engines (--backend): "
        f"{', '.join(available_backends())}\n"
        "  threads:   virtual cluster -- ranks run one at a time: wall "
        "about the serial work, modeled-time fidelity\n"
        "  pool:      persistent warm worker processes, payloads "
        "pickled onto queues -- wall clock scales with host cores, identical "
        "output; more ranks than workers share them, a block per worker\n"
        "  (unset):   Sample-Align-D on a pool of every usable core from "
        "AUTO_POOL_MIN_CELLS of work (N x mean length^2), else threads\n"
        "\ndistance estimators (--distance; engines marked +distance route "
        "their guide-tree stage through repro.distance.all_pairs):"
    )
    for name, desc in estimator_info().items():
        print(f"  {name:<14} {desc}")
    print(
        "  post-transforms (repro distances --transform): linear (1 - id), "
        "kimura (-ln(1 - D - D^2/5), MUSCLE stage 2)"
    )
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

    import numpy as np

    from repro.distance import CondensedMatrix, DistanceConfig, all_pairs
    from repro.seq.fasta import read_fasta

    seqs = read_fasta(args.input)
    with user_input():
        _check_backend(args.backend)
        config = DistanceConfig(
            estimator=args.estimator, k=args.k, transform=args.transform,
            backend=args.backend, workers=args.workers, out=args.out,
            store_dir=args.store_dir,
        )
        t0 = time.perf_counter()
        d = all_pairs(
            list(seqs), config.make_estimator(), backend=config.backend,
            workers=config.workers, out=config.out or "condensed",
            store_dir=config.store_dir,
        )
        wall = time.perf_counter() - t0

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

    from repro.tree import get_builder, merge_schedule

    with user_input():
        if args.from_newick:
            from repro.tree import GuideTree

            with open(args.input, "r", encoding="utf-8") as fh:
                tree = GuideTree.from_newick(fh.read())
            builder_name, estimator, wall = None, None, 0.0
        else:
            from repro.distance import all_pairs
            from repro.seq.fasta import read_fasta

            seqs = read_fasta(args.input)
            options = dict(anchors=args.anchors, base=args.anchor_base,
                           seed=args.anchor_seed)
            builder = get_builder(args.builder, **{
                k: v for k, v in options.items() if v is not None
            })
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
