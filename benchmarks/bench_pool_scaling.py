"""Pool backend scaling -- what a dispatch onto warm workers costs.

Not a paper figure: this is the perf-trajectory entry for ROADMAP Open
item 2.  One fork-and-pickle startup per call swamps short jobs; the
``pool`` backend amortises that: workers start once and repeated calls
dispatch onto warm processes, each payload pickled once onto a queue.

Three measurements:

- **dispatch overhead** -- a no-op SPMD program repeated R times per
  backend; the per-call mean isolates pure dispatch cost (threads stays
  fastest here -- no process boundary at all -- which is exactly the
  point of recording it).
- **stage grid** -- the all-pairs distance stage, repeated per
  backend, verified byte-identical to the serial stage.
- **transport** -- the message and byte counts of the pool's own
  accounting.

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

from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.parcomp import run_spmd

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
        distance_wall, matches = {}, {}
        for b in BACKENDS:
            distance_wall[b] = _per_call(
                lambda b=b: all_pairs(
                    seqs, "ktuple", backend=b, workers=workers
                ),
                repeats,
            )
            d = all_pairs(seqs, "ktuple", backend=b, workers=workers)
            matches[b] = bool(np.array_equal(serial_d, d))

        stats = pool.stats()
        transport = stats["transport"]

    rows = [
        [
            b,
            f"{dispatch[b] * 1e3:.2f}",
            f"{distance_wall[b] * 1e3:.1f}",
            matches[b],
        ]
        for b in BACKENDS
    ]
    table = fmt_table(
        ["backend", "dispatch_ms", "distance_ms", "matches_serial"], rows
    )
    text = (
        f"Pool backend scaling: N={len(seqs)} workers={workers} "
        f"repeats={repeats} host_cores={cores}\n\n{table}\n\n"
        f"pool transport: {transport['msgs']} msgs "
        f"({transport['bytes']} B)\n"
        f"runs={stats['runs']} respawns={stats['respawns']}"
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
        "matches_serial": matches,
        "pool_runs": stats["runs"],
        "pool_respawns": stats["respawns"],
        "transport": transport,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "pool_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def _gate(payload):
    """The bench's hard claims (shared by pytest and __main__)."""
    return (
        all(payload["matches_serial"].values())
        and payload["pool_respawns"] == 0
    )


def test_pool_scaling(benchmark):
    from _util import once

    payload = once(benchmark, run_pool_scaling)
    assert all(payload["matches_serial"].values())
    assert payload["pool_respawns"] == 0


if __name__ == "__main__":
    result = run_pool_scaling()
    if not _gate(result):
        print("FAIL: pool scaling gate not met", file=sys.stderr)
    sys.exit(0 if _gate(result) else 1)
