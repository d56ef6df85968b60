"""Where an unset backend should run Sample-Align-D: the placement grid.

Not a paper figure: this is the measurement behind
:data:`repro.core.driver.AUTO_POOL_MIN_CELLS`, the work (``N * mean_L **
2``, :func:`repro.core.driver.sad_cells`) from which a job whose backend
is unset runs its ranks M:N on a ``pool`` of every usable core instead
of one at a time on ``threads``.  For every shape ``N x L x p`` of the
grid it times ``sample_align_d`` on both arms, interleaved in this
process on warm workers, checks the two alignments are byte-identical,
and prints the wall of each arm and their ratio next to the shape's
work.  The crossover it prints is the smallest work from which
``pool`` won at every shape and every ``p`` of the grid.

Run it as ``PYTHONPATH=src python benchmarks/bench_placement_grid.py``
(about three minutes on a 2-vCPU host).  Output:
``benchmarks/reports/placement_grid.{json,txt}``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import REPORT_DIR, explicit_pool, fmt_table, write_report

from repro.core.driver import AUTO_POOL_MIN_CELLS, sad_cells, sample_align_d
from repro.datagen.rose import generate_family
from repro.parcomp import usable_cores

SIZES = (8, 16, 32, 64, 96, 128)
LENGTHS = (60, 120, 200)
PROCS = (2, 4, 16)
#: Timed solves per arm and shape, alternating threads / pool.
REPEATS = 5


def _solve(seqs, p, backend):
    t0 = time.perf_counter()
    res = sample_align_d(seqs, n_procs=p, seed=0, backend=backend)
    return time.perf_counter() - t0, res.alignment.to_fasta()


def run_grid(repeats: int = REPEATS):
    rows = []
    with explicit_pool(usable_cores()):
        for n in SIZES:
            for length in LENGTHS:
                seqs = list(generate_family(
                    n_sequences=n, mean_length=length, relatedness=250.0,
                    seed=n * 1000 + length, track_alignment=False,
                ).sequences)
                for p in PROCS:
                    walls = {"threads": [], "pool": []}
                    fasta = {}
                    for arm in walls:  # warm both arms first
                        _, fasta[arm] = _solve(seqs, p, arm)
                    if fasta["threads"] != fasta["pool"]:
                        raise AssertionError(f"bytes differ at {n}x{length}x{p}")
                    for _ in range(repeats):
                        for arm in walls:
                            walls[arm].append(_solve(seqs, p, arm)[0])
                    med = {arm: statistics.median(w) for arm, w in walls.items()}
                    rows.append({
                        "n": n, "length": length, "p": p,
                        "cells": sad_cells(seqs),
                        "threads_s": med["threads"], "pool_s": med["pool"],
                        "ratio": med["pool"] / med["threads"],
                    })
    return rows


def crossover(rows) -> int:
    """The smallest work from which ``pool`` won at every shape and
    every ``p`` (-1: it lost at the largest shape)."""
    losing = [r["cells"] for r in rows if r["ratio"] >= 1.0]
    winning = [r["cells"] for r in rows if r["cells"] > max(losing, default=-1)]
    return min(winning) if winning else -1


def main() -> None:
    rows = sorted(run_grid(), key=lambda r: (r["cells"], r["p"]))
    table = fmt_table(
        ["N", "L", "p", "cells", "threads s", "pool s", "pool/threads"],
        [
            [r["n"], r["length"], r["p"], r["cells"],
             f"{r['threads_s']:.4f}", f"{r['pool_s']:.4f}",
             f"{r['ratio']:.2f}"]
            for r in rows
        ],
    )
    cross = crossover(rows)
    text = (
        f"usable cores: {usable_cores()}; pool workers: {usable_cores()}\n"
        f"{table}\n\npool won at every shape from {cross} cells up; "
        f"AUTO_POOL_MIN_CELLS = {AUTO_POOL_MIN_CELLS}"
    )
    write_report("placement_grid", text)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "placement_grid.json").write_text(
        json.dumps({"rows": rows, "crossover": cross,
                    "usable_cores": usable_cores()}, indent=1) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
