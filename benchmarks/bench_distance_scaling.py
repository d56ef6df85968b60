"""Distance-stage scaling -- the tiled all-pairs scheduler vs serial.

Not a paper figure: an entry of the perf trajectory the ROADMAP
asks for.  The all-pairs distance stage is
the scalability wall of guide-tree MSA; this bench measures the unified
``repro.distance`` subsystem over an estimator x backend x N grid and
proves two things:

- **equivalence** -- serial, ``threads`` and ``pool`` schedules of
  every estimator produce *byte-identical* matrices (the subsystem's
  determinism contract, asserted hard);
- **speed** -- the ``pool`` schedule of the expensive ``full-dp``
  estimator beats the serial ``all_pairs(seqs, "full-dp", workers=1)``
  path wall-clock on any host with >= 2 cores (a single-core host can
  only tie: the pool pays dispatch/pickle overhead with no extra compute
  to spend it on, so the gate is core-conditional);
- **pair routes** -- the 1,128 pairs of N=48 at L = 80 / 250 / 400
  through ``FullDpDistance.pair_identities`` on each DP kernel,
  interleaved in this process: *tile c* (a host with a compiler: one
  compiled call for the whole tile, scores read from the table through
  the residue codes, matched/identical counts out, no alignments) and
  *per-pair numpy* (a compiler-less host: the numpy/python path per
  pair, counted along its maps).  The table is what a host without a
  compiler pays; the only assert is byte-identical identities.

``--grid`` instead runs the schedule grid behind the unset placement's
crossover (:data:`repro.distance.allpairs.AUTO_THREADS_MIN_CELLS`): the
``full-dp`` stage at N in {24, 48, 128, 200} x L in {80, 250}, each
shape run serial (``workers=1``), auto (nothing set), ``threads`` and
``pool`` over the usable cores, arms interleaved, median of
``GRID_ROUNDS``; every arm's matrix must equal the serial one byte for
byte.

Output: benchmarks/reports/distance_scaling.json (machine-readable, the
perf-tracking artifact) plus the usual text report;
``distance_schedule_grid.{json,txt}`` with ``--grid``.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, explicit_pool, fmt_table, write_report

from repro.align import dp
from repro.datagen.rose import generate_family
from repro.distance import FullDpDistance, all_pairs
from repro.distance.allpairs import AUTO_THREADS_MIN_CELLS, dp_cells
from repro.parcomp import usable_cores

#: Placement keywords of each grid arm.  ``serial`` pins one worker;
#: ``auto`` sets nothing, so the stage chooses (serial or ``threads``).
ARMS = {
    "serial": {"workers": 1},
    "auto": {},
    "threads": {"backend": "threads"},
    "pool": {"backend": "pool"},
}
ESTIMATORS = ("ktuple", "full-dp")
#: Row lengths of the pair-route table (N = 48, so 1,128 pairs each):
#: the bench workloads' 80 and 250, and a longer one.
ROUTE_LENGTHS = (80, 250, 400)

#: Passes of the in-process pair-route comparison.  The backend grid
#: takes best-of-``repeats`` instead: a pool call is short now, and an
#: idle second core needs a few of them to come up to speed.
ROUNDS = 3

NUMPY = dp.DPKernel("numpy", "forced")


@contextlib.contextmanager
def on_kernel(kernel):
    """Run the block's in-process DPs on ``kernel``."""
    saved = dp._kernel
    dp._kernel = kernel
    try:
        yield
    finally:
        dp._kernel = saved


def _workloads():
    sizes = (64, 128) if FULL else (24, 48)
    # Long enough that the serial full-dp stage (one compiled call per
    # pair) outweighs the pool's fixed dispatch cost: 0.3 s at N=48.
    length = 250
    out = {}
    for n in sizes:
        fam = generate_family(
            n_sequences=n,
            mean_length=length,
            relatedness=500,
            seed=17,
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


def _family(n, length):
    fam = generate_family(
        n_sequences=n,
        mean_length=length,
        relatedness=250,
        seed=17,
        track_alignment=False,
    )
    return list(fam.sequences)


def _pair_route_comparison(repeats):
    """All pairs of N=48 per route, arms alternating; best of ``repeats``."""
    compiled = dp.kernel()
    full_dp = FullDpDistance()
    rows = []
    for length in ROUTE_LENGTHS:
        seqs = _family(48, length)
        ii, jj = np.triu_indices(len(seqs), 1)

        def staged():
            return full_dp.pair_identities(seqs, ii, jj).tobytes()

        arms = {"per_pair_numpy": (NUMPY, staged)}
        if compiled.name == "c":
            arms = {"tile_c": (compiled, staged), **arms}
        best = dict.fromkeys(arms, float("inf"))
        out = {}
        for timed in range(repeats + 1):  # pass 0 warms pools and imports
            for name, (kernel, fn) in arms.items():
                with on_kernel(kernel):
                    t0 = time.perf_counter()
                    out[name] = fn()
                    wall = time.perf_counter() - t0
                if timed:
                    best[name] = min(best[name], wall)
        first, *rest = out.values()
        rows.append(
            {
                "n": len(seqs),
                "length": length,
                "pairs": len(ii),
                **{f"{name}_s": wall for name, wall in best.items()},
                "fastest": min(best, key=best.get),
                "identical": all(o == first for o in rest),
            }
        )
    return rows


def run_distance_scaling(workers=4, repeats=5):
    with explicit_pool(workers):
        return _run_distance_scaling(workers, repeats)


def _run_distance_scaling(workers, repeats):
    workloads = _workloads()
    cores = usable_cores()

    grid = []  # rows: estimator x backend x N
    identical = True
    for estimator in ESTIMATORS:
        for n, seqs in workloads.items():
            matrices = {}
            for label, placement in ARMS.items():
                if "backend" in placement:
                    placement = {**placement, "workers": workers}
                wall, d = _measure(
                    lambda kw=placement: all_pairs(seqs, estimator, **kw),
                    repeats,
                )
                matrices[label] = d
                grid.append(
                    {
                        "estimator": estimator,
                        "backend": label,
                        "n": n,
                        "wall_s": wall,
                    }
                )
            same = all(
                m.tobytes() == matrices["serial"].tobytes()
                for m in matrices.values()
            )
            identical = identical and same

    routes = _pair_route_comparison(ROUNDS)

    # The headline comparison: parallel all-pairs full-dp vs the legacy
    # serial helper it replaced.
    n_head = max(workloads)
    seqs = workloads[n_head]
    legacy_wall, legacy_d = _measure(
        lambda: all_pairs(seqs, "full-dp", workers=1), repeats
    )
    par_wall = next(
        r["wall_s"]
        for r in grid
        if r["estimator"] == "full-dp"
        and r["backend"] == "pool"
        and r["n"] == n_head
    )
    par_d = all_pairs(seqs, "full-dp", backend="pool", workers=workers)
    speedup = legacy_wall / par_wall
    headline_identical = legacy_d.tobytes() == par_d.tobytes()

    rows = [
        [r["estimator"], r["backend"], r["n"], f"{r['wall_s']:.3f}"]
        for r in grid
    ]
    table = fmt_table(["estimator", "backend", "N", "wall_s"], rows)
    route_arms = [k[:-2] for k in routes[0] if k.endswith("_s")]
    route_table = fmt_table(
        ["L", "pairs", *(f"{a} s" for a in route_arms), "fastest", "identical"],
        [
            [
                r["length"],
                r["pairs"],
                *(f"{r[f'{a}_s']:.3f}" for a in route_arms),
                r["fastest"],
                r["identical"],
            ]
            for r in routes
        ],
    )
    text = (
        f"distance scaling: workers={workers} host_cores={cores}\n\n"
        f"{table}\n\n"
        f"byte-identical matrices across schedules: {identical}\n"
        f"full-dp N={n_head}: serial legacy {legacy_wall:.3f}s vs "
        f"pool all_pairs {par_wall:.3f}s -> {speedup:.2f}x "
        f"(>1 means the parallel path wins; bounded by min(workers, "
        f"host_cores))\n"
        f"all pairs of N=48 by route (best of {ROUNDS}, interleaved; "
        f"full-dp takes the {dp.kernel().name} route on this host):\n\n"
        f"{route_table}"
    )
    write_report("distance_scaling", text)

    payload = {
        "bench": "distance_scaling",
        "workers": workers,
        "repeats": repeats,
        "host_cores": cores,
        "grid": grid,
        "identical_matrices": identical,
        "full_dp": {
            "n": n_head,
            "serial_legacy_wall_s": legacy_wall,
            "pool_wall_s": par_wall,
            "speedup": speedup,
            "identical": headline_identical,
            "parallel_beats_serial": speedup > 1.0,
        },
        "dp_kernel": dp.kernel().name,
        "pair_routes": routes,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "distance_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


#: The schedule grid's shapes (``--grid``) and timed rounds per arm.
GRID_SIZES = (24, 48, 128, 200)
GRID_LENGTHS = (80, 250)
GRID_ROUNDS = 5


def run_schedule_grid(rounds=GRID_ROUNDS):
    """Median wall time of each ``full-dp`` schedule per (N, L) shape,
    arms interleaved round by round after one discarded warm-up round."""
    workers = usable_cores()
    rows = []
    with explicit_pool(max(workers, 2)):
        for n in GRID_SIZES:
            for length in GRID_LENGTHS:
                seqs = _family(n, length)
                walls = {label: [] for label in ARMS}
                out = {}
                for timed in range(rounds + 1):
                    for label, placement in ARMS.items():
                        if "backend" in placement:
                            placement = {**placement, "workers": workers}
                        t0 = time.perf_counter()
                        out[label] = all_pairs(
                            seqs, "full-dp", **placement
                        ).tobytes()
                        if timed:
                            walls[label].append(time.perf_counter() - t0)
                med = {k: float(np.median(v)) for k, v in walls.items()}
                rows.append(
                    {
                        "n": n,
                        "length": length,
                        "cells": dp_cells(seqs),
                        **{f"{k}_s": v for k, v in med.items()},
                        "fastest": min(med, key=med.get),
                        "identical": all(
                            o == out["serial"] for o in out.values()
                        ),
                    }
                )
    table = fmt_table(
        ["N", "L", "cells", *(f"{a} s" for a in ARMS), "fastest",
         "identical"],
        [
            [
                r["n"], r["length"], r["cells"],
                *(f"{r[f'{a}_s']:.4f}" for a in ARMS),
                r["fastest"], r["identical"],
            ]
            for r in rows
        ],
    )
    write_report(
        "distance_schedule_grid",
        f"full-dp schedules: usable cores {workers}, dp kernel "
        f"{dp.kernel().name}, median of {rounds} interleaved rounds, "
        f"auto crossover {AUTO_THREADS_MIN_CELLS} cells\n\n{table}",
    )
    payload = {
        "bench": "distance_schedule_grid",
        "usable_cores": workers,
        "rounds": rounds,
        "dp_kernel": dp.kernel().name,
        "auto_threads_min_cells": AUTO_THREADS_MIN_CELLS,
        "grid": rows,
    }
    (REPORT_DIR / "distance_schedule_grid.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_distance_scaling(benchmark):
    from _util import once

    payload = once(benchmark, run_distance_scaling)
    # Hard contract: every schedule of every estimator agrees bytewise.
    assert payload["identical_matrices"]
    assert payload["full_dp"]["identical"]
    # Perf claim is core-bound: multi-core hosts must see the parallel
    # all-pairs path beat the legacy serial full-DP helper; a 1-core
    # host can only tie.
    if payload["host_cores"] >= 2:
        assert payload["full_dp"]["parallel_beats_serial"]
    # Pair routes: byte-equal identities whichever route ran; the
    # timings are the report (all arms are this host, this run).
    assert all(r["identical"] for r in payload["pair_routes"])


if __name__ == "__main__":
    if "--grid" in sys.argv[1:]:
        grid = run_schedule_grid()
        sys.exit(0 if all(r["identical"] for r in grid["grid"]) else 1)
    result = run_distance_scaling()
    ok = (
        result["identical_matrices"]
        and result["full_dp"]["identical"]
        and all(r["identical"] for r in result["pair_routes"])
    )
    if result["host_cores"] >= 2:
        ok = ok and result["full_dp"]["parallel_beats_serial"]
        if not result["full_dp"]["parallel_beats_serial"]:
            print(
                f"FAIL: parallel full-dp did not beat the serial legacy "
                f"path on a {result['host_cores']}-core host "
                f"({result['full_dp']['speedup']:.2f}x)",
                file=sys.stderr,
            )
    sys.exit(0 if ok else 1)
