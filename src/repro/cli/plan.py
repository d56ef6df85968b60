"""``plan``: size a Sample-Align-D run from the calibrated scalability
model (Figs. 4-5) -- projected time, speedup and efficiency over a
processor sweep and the recommended worker count -- for a FASTA file or
a bare ``-n N -l L`` shape; with ``--backend``, probe and prefer the
backend's *measured* throughput on this host."""

from __future__ import annotations

import argparse
import sys

from repro.cli import BACKEND, JSON, _check_backend, _emit_json, user_input


def add_commands(command) -> None:
    p = command("plan", _cmd_plan, parents=[BACKEND, JSON],
                help="project time/speedup over a processor sweep and "
                "recommend a worker count, for a FASTA file or -n N -l L")
    p.add_argument(
        "input", nargs="?",
        help="FASTA file of ungapped sequences (or give -n and -l)",
    )
    p.add_argument("-n", "--n-sequences", type=int, default=None)
    p.add_argument("-l", "--mean-length", type=int, default=None)
    p.add_argument(
        "--max-procs", type=int, default=64, help="largest count considered"
    )


def _workload(args: argparse.Namespace):
    """``(seqs or None, N, mean length)`` from the FASTA file or -n/-l."""
    shape = (args.n_sequences, args.mean_length)
    _check_backend(args.backend)
    if args.input is None:
        if None in shape:
            raise ValueError("give a FASTA file, or both -n and -l")
        if args.backend is not None:
            raise ValueError("--backend probes a FASTA file's workload")
        return None, shape[0], float(shape[1])
    if shape != (None, None):
        raise ValueError("give a FASTA file or -n/-l, not both")
    from repro.seq.fasta import read_fasta

    seqs = read_fasta(args.input)
    if len(seqs) == 0:
        raise ValueError("no sequences in input")
    return seqs, len(seqs), sum(len(s) for s in seqs) / len(seqs)


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

    with user_input():
        seqs, n, mean_length = _workload(args)

    print("calibrating kernels on this host (a few seconds)...",
          file=sys.stderr)
    coeffs = calibrate_kernels()
    best = optimal_processors(n, mean_length, coeffs, max_procs=args.max_procs)
    t_seq = predict_sequential_time(n, mean_length, coeffs)
    t_best = predict_total_time(n, best, mean_length, coeffs)
    sweep = sorted({1, 2, 4, 8, 16, 32, best, args.max_procs})
    sweep = [p for p in sweep if 1 <= p <= args.max_procs]
    times = [predict_total_time(n, p, mean_length, coeffs) for p in sweep]
    eff = efficiency_curve(n, mean_length, sweep, coeffs)
    crossover = comm_compute_crossover(n, mean_length, coeffs)

    probe = None
    if args.backend is not None:
        print(
            f"probing measured {args.backend!r} throughput on a "
            "workload subsample...",
            file=sys.stderr,
        )
        with user_input():
            probe = measure_backend_throughput(
                seqs,
                args.backend,
                procs=[p for p in (1, 2, 4, best) if p <= args.max_procs],
            )

    plan = {
        "input": args.input,
        "n_sequences": n,
        "mean_length": mean_length,
        "recommended_procs": best,
        "predicted_sequential_s": t_seq,
        "predicted_parallel_s": t_best,
        "predicted_speedup": t_seq / t_best if t_best > 0 else None,
        "comm_compute_crossover_procs": crossover,
        "efficiency": {str(p): float(e) for p, e in zip(sweep, eff)},
        "time_s": {str(p): float(t) for p, t in zip(sweep, times)},
        "speedup": {str(p): float(t_seq / t) for p, t in zip(sweep, times)},
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
    print(f"{'p':>4} {'time_s':>10} {'speedup':>8} {'efficiency':>11}")
    for p, t, e in zip(sweep, times, eff):
        marker = "  <- model pick" if p == best else ""
        print(f"{p:>4} {t:>10.2f} {t_seq / t:>7.1f}x {e:>11.2f}{marker}")
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
