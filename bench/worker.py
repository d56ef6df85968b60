"""One workload, one run, in a fresh process (started by ``bench.run``).

Prints human-readable statistics, then the contract's result object as
the last line of standard output.  ``--probe`` is the set-up launch the
run times from outside: start, import, inputs, stack, one small request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# ``import repro`` alone is lazy; the imports below pull in every layer
# a workload touches, so together they are the program's import cost.
_t0 = time.perf_counter()
import repro  # noqa: E402,F401
from bench import layers  # noqa: E402
from bench.host import host_facts, vm_hwm_mib  # noqa: E402
from bench.session import PROBE_TIMEOUT_S, Session  # noqa: E402
from bench.stats import best_tenth, summarize  # noqa: E402
from bench.trace import Recorder  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Stack,
    Workload,
    probe_request,
)

IMPORT_S = time.perf_counter() - _t0
OUT = ROOT / "bench" / "out"
#: Rounds of (set-up launch, solves, warm passes), so that every metric
#: is sampled across the whole run and one burst of the host cannot own it.
ROUNDS = 5
#: Warm throughput swings by 15 % from second to second (thread hand-offs
#: under the GIL and the host's wake-up latency), so it is sampled in many
#: short passes and the best tenth of them is reported.
WARM_PASSES_PER_ROUND = 8


def probe(workload: Workload, seed: int, tmp: Path) -> None:
    request = probe_request(workload, seed)
    stack = Stack(workload, str(tmp / "store"), Recorder(enabled=False))
    try:
        stack.gateway.run(request, timeout=PROBE_TIMEOUT_S)
        print(json.dumps({"ready_unix": time.time(), "import_s": IMPORT_S}))
    finally:
        stack.close()


def end_to_end(session: Session, seconds: float):
    """The untraced protocol; returns (metrics, timing summaries)."""
    workload = session.workload
    setup_s: List[float] = []
    solve_s: List[float] = []
    warm_rps: List[float] = []
    warm_latency: List[float] = []
    # Warm-up, discarded: one submission through the gateway, which also
    # fills the store the warm passes read, then one direct solve (the DP
    # scratch buffers are per thread).
    session.cold_submission()
    if not workload.serves:
        session.solve(0)

    solve_budget = seconds * workload.solve_share
    pass_seconds = (seconds - solve_budget) / (ROUNDS * WARM_PASSES_PER_ROUND)
    spent = 0.0
    for r in range(ROUNDS):
        launched = session.launch_probe()
        if launched:
            setup_s.append(launched["setup_s"])
        round_budget = (solve_budget - spent) / (ROUNDS - r)
        round_spent = 0.0
        # Every round solves at least once, unless the budget is already
        # overdrawn (a slow hour on the serve workload's 4 s passes) and
        # three samples exist.
        while round_budget > 0 or len(solve_s) < 3:
            # Two families a round, alternating: a second solve of one
            # must repeat the first byte for byte.
            k = len(solve_s)
            solved = session.solve((2 * r + k % 2) % workload.n_families)
            if solved is None:
                break
            solve_s.append(solved[0])
            round_spent += solved[0]
            if round_spent >= round_budget:
                break
        spent += round_spent
        for _ in range(WARM_PASSES_PER_ROUND):
            driven = session.warm_pass(pass_seconds)
            warm_rps.append(driven.completed / driven.elapsed)
            warm_latency.extend(driven.latencies)

    computed = session.stack.gateway.metrics()["service"]["computed"]
    distinct = len({i for s in session.inputs.streams for i in s})
    if computed != distinct:
        session.fail(
            f"warm passes recomputed: {computed} engine runs for "
            f"{distinct} distinct requests"
        )
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_rss += sum(vm_hwm_mib(pid) for pid in session.stack.worker_pids())

    timings = {
        "setup_s": summarize(setup_s),
        "solve_wall_s": summarize(solve_s),
        "warm_rps": summarize(warm_rps),
        "warm_request_s": summarize(warm_latency),
    }
    metrics = {
        "setup_s": (timings["setup_s"]["median"], "s"),
        "solve_wall_s": (timings["solve_wall_s"]["median"], "s"),
        "warm_rps": (best_tenth(warm_rps), "1/s"),
        "quality_q": (statistics.fmean(session.quality.values()), "score"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    return metrics, timings


def run(workload: Workload, seed: int, seconds: float, trace: int, tmp: Path):
    """One run; returns (session, metrics, timing summaries)."""
    rec = Recorder(enabled=bool(trace))
    session = Session(workload, seed, tmp, rec)
    try:
        if trace:
            metrics = layers.metrics(layers.measure(session, seconds))
            timings: Dict[str, Any] = {}
        else:
            metrics, timings = end_to_end(session, seconds)
    finally:
        session.close()
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        rec.write(
            str(OUT / f"trace_{workload.name}.json"),
            workload=workload.name, seed=seed,
        )
    return session, metrics, timings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tmp = OUT / "tmp" / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe:
            probe(workload, args.seed, tmp)
            return 0
        load_start = os.getloadavg()
        t0 = time.perf_counter()
        session, metrics, timings = run(
            workload, args.seed, args.seconds, args.trace, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, stats in timings.items():
        tail = (
            f" p{stats['tail_percentile']:g}={stats['tail_value']:.4f}"
            if stats["tail_percentile"] else ""
        )
        print(
            f"{workload.name} {name}: median={stats['median']:.4f} "
            f"iqr={stats['iqr']:.4f} n={stats['n']}{tail}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for reason in session.failures[:20]:
        print(f"{workload.name} FAILED: {reason}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": session.inputs.sha256,
        "benchmark_sha256": hashlib.sha256(
            (ROOT / "BENCHMARK.json").read_bytes()
        ).hexdigest(),
        "host": host_facts(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "run_wall_s": time.perf_counter() - t0,
        "timings": timings,
        "failures": session.failures,
    }
    print("fingerprint " + json.dumps(record, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "run"
    with open(OUT / f"{kind}_record_{workload.name}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
