"""Pool backend scaling -- what a dispatch onto warm workers costs.

Not a paper figure: this is the perf-trajectory entry for ROADMAP Open
item 2.  One fork-and-pickle startup per call swamps short jobs; the
``pool`` backend amortises that: workers start once, payloads ride
shared memory above a size threshold, and repeated calls dispatch onto
warm processes.

Three measurements:

- **dispatch overhead** -- a no-op SPMD program repeated R times per
  backend; the per-call mean isolates pure dispatch cost (threads stays
  fastest here -- no process boundary at all -- which is exactly the
  point of recording it).
- **stage grids** -- the all-pairs distance stage and the progressive
  merge DAG, repeated per backend, each verified byte-identical to the
  serial stage.
- **transport split** -- shm vs pickle message/byte counts from the
  pool's own accounting, showing the batch fan-out actually rode
  segments.

Output: benchmarks/reports/pool_scaling.json plus the text report.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, explicit_pool, fmt_table, write_report

from repro.align.progressive import progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.parcomp import run_spmd
from repro.pool.shm import shm_dir_segments
from repro.tree import get_builder

BACKENDS = ("threads", "pool")


def _noop_rank(comm):
    return comm.rank


def _workload():
    n, length = (96, 200) if FULL else (48, 120)
    fam = generate_family(
        n_sequences=n,
        mean_length=length,
        relatedness=800,
        seed=42,
        track_alignment=False,
    )
    return list(fam.sequences)


def _per_call(fn, repeats):
    """Mean per-call wall time over ``repeats`` calls (first call warm)."""
    fn()  # prime: imports, pool spin-up, numpy warmup
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def run_pool_scaling(workers=2, repeats=None):
    if repeats is None:
        repeats = 10 if FULL else 6
    seqs = _workload()
    cores = os.cpu_count() or 1
    with explicit_pool(max(workers, 2)) as pool:
        # -- pure dispatch: a no-op SPMD program, repeated ------------------
        dispatch = {
            b: _per_call(
                lambda b=b: run_spmd(workers, _noop_rank, backend=b),
                repeats,
            )
            for b in BACKENDS
        }

        # -- the distance stage ---------------------------------------------
        serial_d = all_pairs(seqs, "ktuple")
        distance_wall, distance_ok = {}, {}
        for b in BACKENDS:
            distance_wall[b] = _per_call(
                lambda b=b: all_pairs(
                    seqs, "ktuple", backend=b, workers=workers
                ),
                repeats,
            )
            d = all_pairs(seqs, "ktuple", backend=b, workers=workers)
            distance_ok[b] = bool(np.array_equal(serial_d, d))

        # -- the progressive merge DAG --------------------------------------
        tree = get_builder("upgma").build(serial_d, [s.id for s in seqs])
        serial_m = progressive_align(seqs, tree).to_fasta()
        merge_wall, merge_ok = {}, {}
        for b in BACKENDS:
            merge_wall[b] = _per_call(
                lambda b=b: progressive_align(
                    seqs, tree, backend=b, workers=workers
                ),
                repeats,
            )
            aln = progressive_align(seqs, tree, backend=b, workers=workers)
            merge_ok[b] = aln.to_fasta() == serial_m

        stats = pool.stats()
        transport = stats["transport"]
    leaked = shm_dir_segments(pool.name)

    rows = [
        [
            b,
            f"{dispatch[b] * 1e3:.2f}",
            f"{distance_wall[b] * 1e3:.1f}",
            f"{merge_wall[b] * 1e3:.1f}",
            distance_ok[b] and merge_ok[b],
        ]
        for b in BACKENDS
    ]
    table = fmt_table(
        ["backend", "dispatch_ms", "distance_ms", "merge_ms",
         "matches_serial"],
        rows,
    )
    text = (
        f"Pool backend scaling: N={len(seqs)} workers={workers} "
        f"repeats={repeats} host_cores={cores}\n\n{table}\n\n"
        f"pool transport: {transport['shm_msgs']} shm msgs "
        f"({transport['shm_bytes']} B) vs {transport['pickle_msgs']} "
        f"pickle msgs ({transport['pickle_bytes']} B)\n"
        f"runs={stats['runs']} respawns={stats['respawns']} "
        f"leaked_segments={len(leaked)}"
    )
    write_report("pool_scaling", text)

    payload = {
        "bench": "pool_scaling",
        "workload": {
            "n_sequences": len(seqs),
            "workers": workers,
            "repeats": repeats,
        },
        "host_cores": cores,
        "dispatch_per_call_s": dispatch,
        "distance_per_call_s": distance_wall,
        "merge_per_call_s": merge_wall,
        "matches_serial": {
            b: distance_ok[b] and merge_ok[b] for b in BACKENDS
        },
        "pool_runs": stats["runs"],
        "pool_respawns": stats["respawns"],
        "transport": transport,
        "leaked_segments": len(leaked),
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "pool_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def _gate(payload):
    """The bench's hard claims (shared by pytest and __main__)."""
    ok = all(payload["matches_serial"].values())
    ok = ok and payload["transport"]["shm_msgs"] > 0
    ok = ok and payload["leaked_segments"] == 0
    ok = ok and payload["pool_respawns"] == 0
    return ok


def test_pool_scaling(benchmark):
    from _util import once

    payload = once(benchmark, run_pool_scaling)
    assert all(payload["matches_serial"].values())
    assert payload["transport"]["shm_msgs"] > 0
    assert payload["leaked_segments"] == 0
    assert payload["pool_respawns"] == 0


if __name__ == "__main__":
    result = run_pool_scaling()
    if not _gate(result):
        print("FAIL: pool scaling gate not met", file=sys.stderr)
    sys.exit(0 if _gate(result) else 1)
