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
  estimator beats the serial ``all_pairs(seqs, "full-dp")`` path
  wall-clock on any host with >= 2 cores (a single-core host can only
  tie: the pool pays dispatch/pickle overhead with no extra compute to
  spend it on, so the gate is core-conditional);
- **batching** -- the batched DP kernel (``repro.align.batchdp``, on by
  default) makes even the *serial* full-DP stage >= 3x faster than the
  per-pair kernel (``REPRO_DP_BATCH_PAIRS=0``), measured head-to-head
  in the same run.  On hosts comparable to the one that recorded the
  seed baseline below, the serial wall must also have dropped >= 5x
  against that recorded number.  The ``kband`` estimator rides the same
  contract: its batched band certification + traceback
  (``REPRO_KBAND_BATCH=0`` to disable) must be byte-identical to the
  per-pair loop, with the >= 1.5x end-to-end gate in
  bench_merge_batch.

Output: benchmarks/reports/distance_scaling.json (machine-readable, the
perf-tracking artifact) plus the usual text report.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, explicit_pool, fmt_table, write_report

from repro.datagen.rose import generate_family
from repro.distance import all_pairs

#: backend=None is the serial in-process path.
BACKENDS = (None, "threads", "pool")
ESTIMATORS = ("ktuple", "kband", "full-dp")

#: Serial full-dp N=48 wall recorded by this bench *before* the batched
#: DP kernel landed (same workload, same seed) -- the before/after
#: anchor for the batching speedup.
SEED_FULL_DP_SERIAL_48_S = 1.023


def _workloads():
    sizes = (64, 128) if FULL else (24, 48)
    length = 120 if FULL else 80
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


def run_distance_scaling(workers=4, repeats=2):
    with explicit_pool(workers):
        return _run_distance_scaling(workers, repeats)


def _run_distance_scaling(workers, repeats):
    workloads = _workloads()
    cores = os.cpu_count() or 1

    grid = []  # rows: estimator x backend x N
    identical = True
    for estimator in ESTIMATORS:
        for n, seqs in workloads.items():
            matrices = {}
            for backend in BACKENDS:
                label = backend or "serial"
                wall, d = _measure(
                    lambda b=backend: all_pairs(
                        seqs, estimator, backend=b,
                        workers=None if b is None else workers,
                    ),
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

    # Batched vs per-pair DP kernel, head to head on the serial full-dp
    # stage (same workload as the recorded seed baseline).
    n_batch = 48 if 48 in workloads else max(workloads)
    batch_seqs = workloads[n_batch]
    batched_wall, batched_d = _measure(
        lambda: all_pairs(batch_seqs, "full-dp"), max(repeats, 3)
    )
    os.environ["REPRO_DP_BATCH_PAIRS"] = "0"
    try:
        per_pair_wall, per_pair_d = _measure(
            lambda: all_pairs(batch_seqs, "full-dp"), repeats
        )
    finally:
        del os.environ["REPRO_DP_BATCH_PAIRS"]
    batch_speedup = per_pair_wall / batched_wall
    batch_identical = batched_d.tobytes() == per_pair_d.tobytes()

    # Batched k-band certification (PR 9), head to head on the serial
    # kband estimator: fused adaptive-doubling rounds + batched masked
    # traceback vs the per-pair loop (``REPRO_KBAND_BATCH=0``).
    kband_batched_wall, kband_batched_d = _measure(
        lambda: all_pairs(batch_seqs, "kband"), max(repeats, 3)
    )
    os.environ["REPRO_KBAND_BATCH"] = "0"
    try:
        kband_pp_wall, kband_pp_d = _measure(
            lambda: all_pairs(batch_seqs, "kband"), repeats
        )
    finally:
        del os.environ["REPRO_KBAND_BATCH"]
    kband_speedup = kband_pp_wall / kband_batched_wall
    kband_identical = kband_batched_d.tobytes() == kband_pp_d.tobytes()
    # The seed-baseline gate only means something on hosts comparable to
    # the recorder: require the *per-pair* wall to land within 2x of the
    # recorded number before holding the batched wall to 5x against it.
    seed_comparable = (
        n_batch == 48
        and 0.5 < per_pair_wall / SEED_FULL_DP_SERIAL_48_S < 2.0
    )
    seed_speedup = SEED_FULL_DP_SERIAL_48_S / batched_wall

    # The headline comparison: parallel all-pairs full-dp vs the legacy
    # serial helper it replaced.
    n_head = max(workloads)
    seqs = workloads[n_head]
    legacy_wall, legacy_d = _measure(
        lambda: all_pairs(seqs, "full-dp"), repeats
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
    text = (
        f"distance scaling: workers={workers} host_cores={cores}\n\n"
        f"{table}\n\n"
        f"byte-identical matrices across schedules: {identical}\n"
        f"full-dp N={n_head}: serial legacy {legacy_wall:.3f}s vs "
        f"pool all_pairs {par_wall:.3f}s -> {speedup:.2f}x "
        f"(>1 means the parallel path wins; bounded by min(workers, "
        f"host_cores))\n"
        f"batched DP kernel, serial full-dp N={n_batch}: per-pair "
        f"{per_pair_wall:.3f}s vs batched {batched_wall:.3f}s -> "
        f"{batch_speedup:.2f}x (byte-identical: {batch_identical}); "
        f"vs recorded seed baseline {SEED_FULL_DP_SERIAL_48_S:.3f}s -> "
        f"{seed_speedup:.2f}x\n"
        f"batched k-band certification, serial kband N={n_batch}: "
        f"per-pair {kband_pp_wall:.3f}s vs batched "
        f"{kband_batched_wall:.3f}s -> {kband_speedup:.2f}x "
        f"(byte-identical: {kband_identical})"
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
        "batched_kernel": {
            "n": n_batch,
            "per_pair_wall_s": per_pair_wall,
            "batched_wall_s": batched_wall,
            "speedup": batch_speedup,
            "identical": batch_identical,
            "seed_baseline_wall_s": SEED_FULL_DP_SERIAL_48_S,
            "seed_speedup": seed_speedup,
            "seed_comparable_host": seed_comparable,
        },
        "kband_batch": {
            "n": n_batch,
            "per_pair_wall_s": kband_pp_wall,
            "batched_wall_s": kband_batched_wall,
            "speedup": kband_speedup,
            "identical": kband_identical,
        },
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "distance_scaling.json").write_text(
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
    # Batched DP kernel: exact, and >= 3x over the per-pair kernel on
    # the same host in the same run (host-independent); >= 5x against
    # the recorded seed baseline where that baseline is comparable.
    assert payload["batched_kernel"]["identical"]
    assert payload["batched_kernel"]["speedup"] >= 3.0
    if payload["batched_kernel"]["seed_comparable_host"]:
        assert payload["batched_kernel"]["seed_speedup"] >= 5.0
    # Batched k-band certification: exact; the >= 1.5x end-to-end perf
    # gate lives in bench_merge_batch.
    assert payload["kband_batch"]["identical"]


if __name__ == "__main__":
    result = run_distance_scaling()
    ok = result["identical_matrices"] and result["full_dp"]["identical"]
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
