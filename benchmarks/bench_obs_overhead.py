"""Observability overhead -- tracing must be ~free off and cheap on.

The obs layer instruments the hottest paths in the repo (DP kernel
calls, distance tiles, merge nodes), so its cost discipline is a
contract, not an aspiration:

- **disabled** (the default): ``span(...)`` is one global-flag check
  returning a shared no-op singleton.  A realistic end-to-end alignment
  workload must run within noise of the same build with the obs calls
  in place -- and a microbenchmark pins the per-call cost in
  nanoseconds.
- **enabled**: full span recording (clock reads, record allocation,
  buffer appends) must stay under 5% of end-to-end wall time on a
  guide-tree alignment workload, because the spans sit at stage
  granularity, not per-cell.

Output: benchmarks/reports/obs_overhead.{json,txt}.  The JSON carries
the <5% assertion's inputs so CI regressions are diagnosable.
"""

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, fmt_table, write_report

from repro.datagen.rose import generate_family
from repro.engine import AlignRequest, get_engine
from repro.obs.tracing import (
    disable_tracing,
    drain_spans,
    enable_tracing,
    span,
)

#: Enabled-tracing overhead budget on the end-to-end workload.
MAX_TRACED_OVERHEAD = 0.05
#: Disabled spans must cost well under a microsecond each.
MAX_DISABLED_NS_PER_CALL = 5_000


def _workload():
    # Long sequences, few merges: one solve takes about 0.12 s compiled
    # (a solve of a few ms is dominated by the host's scheduling noise),
    # at the stage granularity the spans are meant for -- three per merge.
    n, length = (48, 800) if FULL else (32, 800)
    fam = generate_family(
        n_sequences=n,
        mean_length=length,
        relatedness=500,
        seed=13,
        track_alignment=False,
    )
    return AlignRequest(sequences=tuple(fam.sequences), engine="clustalw")


def _one_wall(engine, request):
    t0 = time.perf_counter()
    engine.run(request)
    return time.perf_counter() - t0


def _disabled_span_ns(calls=100_000):
    disable_tracing()
    t0 = time.perf_counter()
    for _ in range(calls):
        with span("noop", k=1):
            pass
    return (time.perf_counter() - t0) / calls * 1e9


def run_obs_overhead(pairs=None):
    if pairs is None:
        pairs = 101 if FULL else 81
    request = _workload()
    engine = get_engine("clustalw")

    disable_tracing()
    drain_spans()
    for _ in range(2):  # warm numpy/caches outside the measurement
        _one_wall(engine, request)

    # One traced and one untraced solve per pair, back to back, the
    # first mode alternating: a burst of the host hits both halves of a
    # pair alike, and the median of the per-pair ratios ignores the
    # pairs it split.
    ratios, walls_off, walls_on = [], [], []
    n_spans = 0
    for i in range(pairs):
        wall = {}
        for traced in (i % 2 == 1, i % 2 == 0):
            (enable_tracing if traced else disable_tracing)()
            drain_spans()
            wall[traced] = _one_wall(engine, request)
            if traced:
                n_spans += len(drain_spans())
        walls_off.append(wall[False])
        walls_on.append(wall[True])
        ratios.append(wall[True] / wall[False])
    disable_tracing()

    q1, median_ratio, q3 = statistics.quantiles(ratios, n=4)
    overhead = median_ratio - 1.0
    noop_ns = _disabled_span_ns()

    payload = {
        "workload": {
            "engine": "clustalw",
            "n_sequences": len(request.sequences),
            "pairs": pairs,
        },
        "wall_off_s": statistics.median(walls_off),
        "wall_on_s": statistics.median(walls_on),
        "traced_overhead_fraction": overhead,
        "traced_ratio_quartiles": [q1, q3],
        "max_traced_overhead": MAX_TRACED_OVERHEAD,
        "spans_per_run": n_spans // pairs,
        "disabled_span_ns_per_call": noop_ns,
        "max_disabled_span_ns_per_call": MAX_DISABLED_NS_PER_CALL,
        "traced_within_budget": overhead < MAX_TRACED_OVERHEAD,
        "disabled_is_noop": noop_ns < MAX_DISABLED_NS_PER_CALL,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "obs_overhead.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    table = fmt_table(
        ["mode", "wall_s", "note"],
        [
            ["tracing off", f"{payload['wall_off_s']:.4f}",
             f"median of {pairs} (no-op spans)"],
            ["tracing on", f"{payload['wall_on_s']:.4f}",
             f"{overhead * 100:+.1f}% median of per-pair ratios, quartiles "
             f"{(q1 - 1) * 100:+.1f}% / {(q3 - 1) * 100:+.1f}% "
             f"({payload['spans_per_run']} spans/run)"],
            ["disabled span", f"{noop_ns:.0f}ns/call",
             f"budget {MAX_DISABLED_NS_PER_CALL}ns"],
        ],
    )
    write_report("obs_overhead", table)
    return payload


def test_obs_overhead(benchmark):
    from _util import once

    payload = once(benchmark, run_obs_overhead)
    # The contract: stage-granular tracing costs <5% on a real
    # workload, and the disabled path is a no-op.
    assert payload["traced_within_budget"], payload
    assert payload["disabled_is_noop"], payload


if __name__ == "__main__":
    result = run_obs_overhead()
    ok = result["traced_within_budget"] and result["disabled_is_noop"]
    if not ok:
        print(
            f"FAIL: traced overhead "
            f"{result['traced_overhead_fraction'] * 100:.1f}% "
            f"(budget {MAX_TRACED_OVERHEAD * 100:.0f}%), disabled span "
            f"{result['disabled_span_ns_per_call']:.0f}ns/call "
            f"(budget {MAX_DISABLED_NS_PER_CALL}ns)",
            file=sys.stderr,
        )
    sys.exit(0 if ok else 1)
