"""Execution-backend scaling -- threads vs processes on real cores.

Not a paper figure: this is the first entry of the perf trajectory the
ROADMAP asks for.  The same Sample-Align-D workload runs on the
``threads`` backend (the virtual cluster -- ranks run one at a time, so
its wall clock is about the serial work on one core) and on the
``processes`` backend (one OS process per rank -- compute can spread
over host cores, at the price of starting p processes and pickling every
payload on each call).  The report records per-backend wall clock, the
ratio of the two, and proof that both backends produced the *same
alignment bytes* -- the backend contract, and the only thing gated.

Reading the numbers: the ratio is reported, not asserted.  What
processes gains is bounded by min(p, host_cores) on the compute phase
and what it pays is per call, so which side wins depends on the host and
the size of the job: at N=128, p=4 on a 2-core host processes measured
0.37x of threads (1.71 s against 0.63 s).  The JSON records
``host_cores`` next to every timing.

Output: benchmarks/reports/backend_scaling.json (machine-readable, the
perf-tracking artifact) plus the usual text report.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, fmt_table, write_report

from repro.core.config import SampleAlignDConfig
from repro.core.driver import sample_align_d
from repro.datagen.rose import generate_family

BACKENDS = ("threads", "processes")


def _workload():
    n, length = (320, 300) if FULL else (128, 200)
    fam = generate_family(
        n_sequences=n,
        mean_length=length,
        relatedness=800,
        seed=42,
        track_alignment=False,
    )
    return fam.sequences


def _measure(seqs, backend, n_procs, repeats):
    """Best-of-``repeats`` wall time plus the run's fingerprint."""
    best = None
    fingerprint = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = sample_align_d(seqs, n_procs=n_procs, backend=backend)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
        fingerprint = {
            "fasta": res.alignment.to_fasta(),
            "sp": res.sp,
            "modeled": res.modeled_time,
            "bytes": int(res.ledger.total_bytes()),
            "messages": int(res.ledger.n_messages()),
        }
    return best, fingerprint


def run_backend_scaling(n_procs=4, repeats=2):
    seqs = _workload()
    cores = os.cpu_count() or 1

    walls, prints = {}, {}
    for backend in BACKENDS:
        walls[backend], prints[backend] = _measure(
            seqs, backend, n_procs, repeats
        )

    identical = (
        prints["threads"]["fasta"] == prints["processes"]["fasta"]
        and prints["threads"]["sp"] == prints["processes"]["sp"]
    )
    speedup = walls["threads"] / walls["processes"]

    rows = [
        [
            backend,
            f"{walls[backend]:.2f}",
            f"{prints[backend]['modeled']:.3f}",
            f"{prints[backend]['sp']:.1f}",
            prints[backend]["messages"],
        ]
        for backend in BACKENDS
    ]
    table = fmt_table(
        ["backend", "wall_s", "modeled_s", "sp", "messages"], rows
    )
    text = (
        f"Sample-Align-D backend scaling: N={len(seqs)} p={n_procs} "
        f"host_cores={cores}\n\n{table}\n\n"
        f"identical alignments: {identical}\n"
        f"processes speedup over threads: {speedup:.2f}x "
        f"(>1 means processes wins; reported, not gated)"
    )
    write_report("backend_scaling", text)

    payload = {
        "bench": "backend_scaling",
        "workload": {
            "n_sequences": len(seqs),
            "n_procs": n_procs,
            "repeats": repeats,
        },
        "host_cores": cores,
        "wall_s": {b: walls[b] for b in BACKENDS},
        "sp": {b: prints[b]["sp"] for b in BACKENDS},
        "modeled_s": {b: prints[b]["modeled"] for b in BACKENDS},
        "comm_bytes": {b: prints[b]["bytes"] for b in BACKENDS},
        "n_messages": {b: prints[b]["messages"] for b in BACKENDS},
        "identical_alignments": identical,
        "processes_speedup_over_threads": speedup,
        "processes_beat_threads": speedup > 1.0,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "backend_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_backend_scaling(benchmark):
    from _util import once

    payload = once(benchmark, run_backend_scaling)
    # The hard contract: backends must agree on the bytes.
    assert payload["identical_alignments"]


if __name__ == "__main__":
    result = run_backend_scaling()
    # Same gate as the pytest entry.
    sys.exit(0 if result["identical_alignments"] else 1)
