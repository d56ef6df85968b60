"""Merge-stage scaling -- the DAG-scheduled progressive merge vs serial.

Not a paper figure: an entry of the perf trajectory the ROADMAP
asks for (after bench_distance_scaling).
After PR 4 parallelised the all-pairs distance stage, the strictly
post-order progressive merge walk became the remaining serial hot path
of every guide-tree baseline; this bench measures the unified
``repro.tree`` subsystem over a builder x backend x N grid and proves
two things:

- **equivalence** -- serial, ``threads`` and ``pool`` schedules of
  the merge DAG produce *byte-identical* alignments for every
  registered tree builder (the subsystem's determinism contract,
  asserted hard);
- **speed** -- the ``pool`` schedule of the merge DAG beats the
  serial walk wall-clock on any host with >= 2 cores (a single-core
  host can only tie: the pool pays dispatch/pickle overhead with no
  extra compute to spend it on, so the gate is core-conditional like
  the sibling benches').

The report also records each tree's merge-schedule statistics (critical
path, peak width, mean parallelism) -- the numbers that bound the
achievable speedup: a caterpillar (``single-linkage``-style) tree has
mean parallelism ~1 and cannot speed up no matter the backend.

Output: benchmarks/reports/merge_scaling.json (machine-readable, the
perf-tracking artifact) plus the usual text report.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, explicit_pool, fmt_table, write_report

from repro.align.progressive import progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.tree import available_builders, get_builder, merge_schedule

#: backend=None is the serial in-process walk.
BACKENDS = (None, "threads", "pool")
#: upgma gives balanced (wide) DAGs, nj slightly deeper ones.
BUILDERS = ("upgma", "nj")


def _workloads():
    # Merges must be DP-heavy enough that the fork + per-level allgather
    # overhead (~0.1s measured) amortises on a 2-core host.
    sizes = (64, 96) if FULL else (48, 80)
    length = 500 if FULL else 400
    out = {}
    for n in sizes:
        fam = generate_family(
            n_sequences=n,
            mean_length=length,
            relatedness=500,
            seed=23,
            track_alignment=False,
        )
        out[n] = list(fam.sequences)
    return out


def _measure(fn, repeats):
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        best = wall if best is None or wall < best else best
    return best, result


def run_merge_scaling(workers=None, repeats=2):
    cores = os.cpu_count() or 1
    if workers is None:
        # Match ranks to cores (allgather traffic grows with ranks, so
        # idle extra ranks only cost); floor of 2 keeps the schedule
        # genuinely parallel even on 1-core hosts.
        workers = min(4, max(2, cores))
    with explicit_pool(workers):
        return _run_merge_scaling(workers, repeats, cores)


def _run_merge_scaling(workers, repeats, cores):
    workloads = _workloads()

    grid = []  # rows: builder x backend x N
    schedules = {}
    identical = True
    for builder_name in BUILDERS:
        builder = get_builder(builder_name)
        for n, seqs in workloads.items():
            d = all_pairs(seqs, "ktuple")
            tree = builder.build(d, [s.id for s in seqs])
            schedules[f"{builder_name}-N{n}"] = merge_schedule(tree).to_dict()
            outputs = {}
            for backend in BACKENDS:
                label = backend or "serial"
                wall, aln = _measure(
                    lambda b=backend: progressive_align(
                        seqs, tree, backend=b,
                        workers=None if b is None else workers,
                    ),
                    repeats,
                )
                outputs[label] = aln.to_fasta()
                grid.append(
                    {
                        "builder": builder_name,
                        "backend": label,
                        "n": n,
                        "wall_s": wall,
                    }
                )
            same = all(o == outputs["serial"] for o in outputs.values())
            identical = identical and same

    # Every-builder equivalence on the small workload (the hard gate of
    # the subsystem; cheap, so run all registered builders).
    n_small = min(workloads)
    seqs = workloads[n_small]
    d = all_pairs(seqs, "ktuple")
    for builder_name in available_builders():
        tree = get_builder(builder_name).build(d, [s.id for s in seqs])
        serial = progressive_align(seqs, tree).to_fasta()
        for backend in ("threads", "pool"):
            par = progressive_align(
                seqs, tree, backend=backend, workers=2
            ).to_fasta()
            identical = identical and (par == serial)

    # The headline comparison: parallel merge DAG vs the serial walk on
    # the largest workload, widest builder.
    n_head = max(workloads)
    serial_wall = next(
        r["wall_s"] for r in grid
        if r["builder"] == "upgma" and r["backend"] == "serial"
        and r["n"] == n_head
    )
    par_wall = next(
        r["wall_s"] for r in grid
        if r["builder"] == "upgma" and r["backend"] == "pool"
        and r["n"] == n_head
    )
    speedup = serial_wall / par_wall

    rows = [
        [r["builder"], r["backend"], r["n"], f"{r['wall_s']:.3f}"]
        for r in grid
    ]
    table = fmt_table(["builder", "backend", "N", "wall_s"], rows)
    sched_rows = [
        [key, s["n_merges"], s["n_levels"], s["max_width"],
         f"{s['mean_parallelism']:.2f}"]
        for key, s in sorted(schedules.items())
    ]
    sched_table = fmt_table(
        ["tree", "merges", "levels", "max_width", "parallelism"],
        sched_rows,
    )
    text = (
        f"merge scaling: workers={workers} host_cores={cores}\n\n"
        f"{table}\n\nmerge schedules:\n{sched_table}\n\n"
        f"byte-identical alignments across schedules/builders: "
        f"{identical}\n"
        f"upgma N={n_head}: serial walk {serial_wall:.3f}s vs pool "
        f"merge DAG {par_wall:.3f}s -> {speedup:.2f}x "
        f"(>1 means the parallel merge wins; bounded by min(workers, "
        f"host_cores, schedule width))"
    )
    write_report("merge_scaling", text)

    payload = {
        "bench": "merge_scaling",
        "workers": workers,
        "repeats": repeats,
        "host_cores": cores,
        "grid": grid,
        "schedules": schedules,
        "identical_alignments": identical,
        "headline": {
            "builder": "upgma",
            "n": n_head,
            "serial_wall_s": serial_wall,
            "pool_wall_s": par_wall,
            "speedup": speedup,
            "parallel_beats_serial": speedup > 1.0,
        },
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "merge_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_merge_scaling(benchmark):
    from _util import once

    payload = once(benchmark, run_merge_scaling)
    # Hard contract: every schedule of every builder agrees bytewise.
    assert payload["identical_alignments"]
    # Perf claim is core-bound: multi-core hosts must see the parallel
    # merge DAG beat the serial walk; a 1-core host can only tie.
    if payload["host_cores"] >= 2:
        assert payload["headline"]["parallel_beats_serial"]


if __name__ == "__main__":
    result = run_merge_scaling()
    ok = result["identical_alignments"]
    if result["host_cores"] >= 2:
        ok = ok and result["headline"]["parallel_beats_serial"]
        if not result["headline"]["parallel_beats_serial"]:
            print(
                f"FAIL: the parallel merge DAG did not beat the serial "
                f"walk on a {result['host_cores']}-core host "
                f"({result['headline']['speedup']:.2f}x)",
                file=sys.stderr,
            )
    sys.exit(0 if ok else 1)
