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
- **batching** -- the batched DP kernel (``repro.align.batchdp``) makes
  even the *serial* full-DP stage >= 3x faster than one scalar
  ``global_align`` per pair, measured head-to-head in the same run with
  byte-identical matrices;
- **score source** -- the 1,128 pairs of the ``guidetree_fulldp`` shape
  (N=48, L=250) through the dense stack (``affine_align_batch`` over
  per-pair ``pair_scores`` matrices, what ``full-dp`` ran before PR 17)
  and through the table gather (``global_align_batch``, what it runs
  now), alternating in this process: identities must be byte-equal and
  the ratio is reported.

Output: benchmarks/reports/distance_scaling.json (machine-readable, the
perf-tracking artifact) plus the usual text report.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, explicit_pool, fmt_table, write_report

from repro.align.batchdp import MAX_BATCH_PAIRS, affine_align_batch
from repro.align.pairwise import PairwiseResult, global_align
from repro.datagen.rose import generate_family
from repro.distance import FullDpDistance, all_pairs

#: backend=None is the serial in-process path.
BACKENDS = (None, "threads", "pool")
ESTIMATORS = ("ktuple", "full-dp")


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


def _per_pair_full_dp(seqs):
    """The ``full-dp`` matrix from one scalar ``global_align`` per pair."""
    n = len(seqs)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = 1.0 - global_align(seqs[i], seqs[j]).identity()
    return d


def _dense_stack_identities(estimator, seqs, ii, jj):
    """``FullDpDistance.pair_identities`` as it ran before the gather:
    one ``pair_scores`` matrix per pair, stacked by the dense entry."""
    matrix, gaps = estimator.matrix, estimator.gaps
    out = np.empty(len(ii), dtype=np.float64)
    for t0 in range(0, len(ii), MAX_BATCH_PAIRS):
        part = slice(t0, t0 + MAX_BATCH_PAIRS)
        pairs = [
            (seqs[int(a)], seqs[int(b)])
            for a, b in zip(ii[part], jj[part])
        ]
        res = affine_align_batch(
            [matrix.pair_scores(x.codes, y.codes) for x, y in pairs],
            gaps.open,
            gaps.extend,
            terminal_factor=gaps.terminal_factor,
        )
        for t, ((x, y), r) in enumerate(zip(pairs, res)):
            out[t0 + t] = PairwiseResult(
                x, y, r.score, r.x_map, r.y_map
            ).identity()
    return out


def _score_source_comparison(rounds):
    """Dense stack vs table gather, alternating, on the same 1,128
    pairs."""
    n, length = (48, 250)
    fam = generate_family(
        n_sequences=n,
        mean_length=length,
        relatedness=250,
        seed=17,
        track_alignment=False,
    )
    seqs = list(fam.sequences)
    ii, jj = np.triu_indices(n, 1)
    full_dp = FullDpDistance()
    arms = {
        "dense": lambda: _dense_stack_identities(full_dp, seqs, ii, jj),
        "gather": lambda: full_dp.pair_identities(seqs, ii, jj),
    }
    walls = {name: [] for name in arms}
    identities = {}
    for r in range(rounds):
        order = list(arms) if r % 2 == 0 else list(arms)[::-1]
        for name in order:
            t0 = time.perf_counter()
            identities[name] = arms[name]()
            walls[name].append(time.perf_counter() - t0)
    med = {name: statistics.median(w) for name, w in walls.items()}
    return {
        "n": n,
        "length": length,
        "pairs": len(ii),
        "rounds": rounds,
        "walls_s": walls,
        "dense_stack_wall_s": med["dense"],
        "gather_wall_s": med["gather"],
        "dense_over_gather": med["dense"] / med["gather"],
        "identical": identities["dense"].tobytes()
        == identities["gather"].tobytes(),
    }


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
    per_pair_wall, per_pair_d = _measure(
        lambda: _per_pair_full_dp(batch_seqs), repeats
    )
    batch_speedup = per_pair_wall / batched_wall
    batch_identical = batched_d.tobytes() == per_pair_d.tobytes()

    source = _score_source_comparison(rounds=max(repeats, 3))

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
        f"{batch_speedup:.2f}x (byte-identical: {batch_identical})\n"
        f"score source, {source['pairs']} pairs of N={source['n']} "
        f"L={source['length']}, median of {source['rounds']} alternating "
        f"rounds: dense stack {source['dense_stack_wall_s']:.3f}s vs "
        f"table gather {source['gather_wall_s']:.3f}s -> "
        f"{source['dense_over_gather']:.2f}x (dense / gather; "
        f"byte-identical identities: {source['identical']})"
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
        },
        "score_source": source,
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
    # the same host in the same run.
    assert payload["batched_kernel"]["identical"]
    assert payload["batched_kernel"]["speedup"] >= 3.0
    # Score source: the gate is byte-equal identities; the ratio is a
    # report, not a gate (both arms are this host, this run).
    assert payload["score_source"]["identical"]


if __name__ == "__main__":
    result = run_distance_scaling()
    ok = (
        result["identical_matrices"]
        and result["full_dp"]["identical"]
        and result["score_source"]["identical"]
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
