"""The benchmark's one command.

    python3 -m bench.run [--workload NAME] [--seed S] [--seconds T]
                         [--trace 0|1 | --traced] [--aa]

Each workload runs in a fresh child process (``bench.worker``) with the
BLAS thread pools pinned to one thread and a fixed hash seed.  The last
line of standard output is the result object ``BENCHMARK.json``'s
contract asks for; the lines before it give every timing as median,
inter-quartile range, sample count and supported tail percentile, and a
fingerprint of the inputs and the host.  Without ``--workload`` every
workload runs in turn.  ``--aa`` runs every workload twice, alternating,
and fails if the two runs of the same code disagree by more than a
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
#: The contract lets a run take 180 s; stop a stuck child before that.
CHILD_TIMEOUT_S = 170.0

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(
    name: str, seed: int, seconds: float, trace: int
) -> Dict[str, Any]:
    """Run one workload in a child; echo its output; return its result."""
    child = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # so a stuck child dies with its workers
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        raise SystemExit(f"{name}: worker exited with {child.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def aa_check(spec: Dict[str, Any], seed: int, seconds: float) -> int:
    """Same code twice, workloads alternating: the bounds must hold."""
    names = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for _ in range(2):
        for name in names:
            runs[name].append(run_workload(name, seed, seconds, 0))
    rows = []
    n_apart = 0
    for name in names:
        first, second = (r["metrics"] for r in runs[name])
        failed = sum(r["failed"] for r in runs[name])
        for metric in spec["end_to_end"]:
            a = first[metric["name"]]["value"]
            b = second[metric["name"]]["value"]
            apart = abs(b - a) / abs(a)
            ok = apart <= metric["bound"] and not failed
            n_apart += not ok
            rows.append({
                "workload": name, "metric": metric["name"], "first": a,
                "second": b, "apart": apart, "bound": metric["bound"],
                "ok": ok,
            })
            print(
                f"{name:22s} {metric['name']:14s} {a:12.5g} {b:12.5g} "
                f"{apart:7.2%} (bound {metric['bound']:.0%}) "
                f"{'ok' if ok else 'APART'}"
            )
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "aa.json", "w") as fh:
        json.dump(rows, fh, indent=1)
    return 1 if n_apart else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    if args.aa:
        return aa_check(spec, args.seed, seconds)
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
