"""Profile merges three ways: per-pair compiled, per-pair numpy, fused.

``align_profiles_batch`` has one routing decision -- fuse a level's
independent pair DPs into ``affine_align_batch`` passes, or run them
pair by pair through the scalar ``align_profiles`` -- and makes it from
the scalar row kernel the process loaded (``repro.align.dp.kernel``):
fusing exists to amortise numpy's per-row dispatch cost, which the
compiled row loop does not have.  This bench is the measurement behind
that rule.  Over a K (pairs in a level) x L (columns) grid it times

- **per-pair c**: K scalar calls on the compiled row kernel,
- **per-pair numpy**: K scalar calls on the numpy row loop,
- **fused**: one ``align_profiles_batch`` call on the numpy kernel with
  the K >= ``_MIN_BATCH_PAIRS`` floor lifted, so narrow levels are
  really fused too,

interleaved in one process (best of ``repeats``, arms alternating, so a
load spike hits all three alike), then a whole serial progressive merge
the same three ways (per-node walk on each kernel, level walk fusing as
shipped under numpy).  The only assert is *byte identity* of every arm's
maps, scores and FASTA; the crossover table is the output.

Output: benchmarks/reports/merge_batch.json plus the text report.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, fmt_table, write_report

from repro.align import dp, profile_align
from repro.align.profile import Profile
from repro.align.profile_align import (
    ProfileAlignConfig,
    align_profiles,
    align_profiles_batch,
)
from repro.align.progressive import progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.tree import get_builder

GRID_K = (2, 4, 8, 16, 32, 64, 128)
#: 80 / 200 / 300 are the benchmark workloads' row lengths; 40 is there
#: to show where the rule stops being right (short rows, wide levels).
GRID_L = (40, 80, 200, 300)
#: Same workload family as bench_merge_scaling.
MERGE_SIZES = (48, 96) if FULL else (48, 80)

NUMPY = dp.DPKernel("numpy", "forced")


@contextlib.contextmanager
def arm(kernel, min_batch_pairs=None):
    """Run the block on ``kernel``, optionally with the fuse floor moved."""
    saved = dp._kernel, profile_align._MIN_BATCH_PAIRS
    dp._kernel = kernel
    if min_batch_pairs is not None:
        profile_align._MIN_BATCH_PAIRS = min_batch_pairs
    try:
        yield
    finally:
        dp._kernel, profile_align._MIN_BATCH_PAIRS = saved


def _interleaved(arms, repeats):
    """Best-of-``repeats`` wall and last result per arm, alternating."""
    for fn in arms.values():  # warm-up: pooled tables, lazy imports
        fn()
    best = dict.fromkeys(arms, float("inf"))
    out = {}
    for _ in range(repeats):
        for name, fn in arms.items():
            t0 = time.perf_counter()
            out[name] = fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best, out


def _three_arms(compiled, per_pair, level, fuse_floor=None):
    """``per_pair`` under each scalar kernel, ``level`` fused on numpy
    (from ``fuse_floor`` pairs up; ``None`` = the shipped floor)."""

    def on(kernel, fn, **floor):
        def run():
            with arm(kernel, **floor):
                return fn()
        return run

    return {
        "per_pair_c": on(compiled, per_pair),
        "per_pair_numpy": on(NUMPY, per_pair),
        "fused": on(NUMPY, level, min_batch_pairs=fuse_floor),
    }


def _row(best, out, **shape):
    first, *rest = out.values()
    return {
        **shape,
        **{f"{name}_s": wall for name, wall in best.items()},
        "fastest": min(best, key=best.get),
        "identical": all(o == first for o in rest),
    }


def _grid_rows(compiled, repeats):
    cfg = ProfileAlignConfig()

    def bytes_of(results):
        return [
            (res.score, res.x_map.tobytes(), res.y_map.tobytes())
            for _merged, res in results
        ]

    rows = []
    for L in GRID_L:
        fam = generate_family(
            n_sequences=max(GRID_K) + 1, mean_length=L, relatedness=500,
            seed=23, track_alignment=False,
        )
        leaves = [Profile.from_sequence(s) for s in fam.sequences]
        for K in GRID_K:
            pairs = [(leaves[i], leaves[i + 1]) for i in range(K)]
            best, out = _interleaved(
                _three_arms(
                    compiled,
                    lambda: bytes_of(
                        [align_profiles(px, py, cfg) for px, py in pairs]
                    ),
                    lambda: bytes_of(align_profiles_batch(pairs, cfg)),
                    fuse_floor=1,
                ),
                repeats,
            )
            rows.append(_row(best, out, L=L, K=K))
    return rows


def _walk_rows(compiled, repeats):
    cfg = ProfileAlignConfig()

    def scalar_merge(pa, pb):
        return align_profiles(pa, pb, cfg)[0]

    rows = []
    for n in MERGE_SIZES:
        fam = generate_family(
            n_sequences=n, mean_length=400, relatedness=500, seed=23,
            track_alignment=False,
        )
        seqs = list(fam.sequences)
        d = all_pairs(seqs, "ktuple")
        tree = get_builder("upgma").build(d, [s.id for s in seqs])
        best, out = _interleaved(
            _three_arms(
                compiled,
                lambda: progressive_align(
                    seqs, tree, cfg, merge_fn=scalar_merge
                ).to_fasta(),
                lambda: progressive_align(seqs, tree, cfg).to_fasta(),
            ),
            repeats,
        )
        rows.append(_row(best, out, n=n))
    return rows


def _table(rows, shape_keys):
    arms = ("per_pair_c", "per_pair_numpy", "fused")
    return fmt_table(
        [*shape_keys, *(f"{a} ms" for a in arms), "fused / c", "identical"],
        [
            [
                *(r[k] for k in shape_keys),
                *(f"{r[f'{a}_s'] * 1e3:.2f}" for a in arms),
                f"{r['fused_s'] / r['per_pair_c_s']:.2f}x",
                r["identical"],
            ]
            for r in rows
        ],
    )


def run_merge_batch(repeats=5):
    compiled = dp.kernel()
    if compiled.name != "c":
        raise SystemExit(
            f"no compiled row kernel on this host ({compiled.fallback}): "
            "nothing to compare the fused path against"
        )
    grid = _grid_rows(compiled, repeats)
    walks = _walk_rows(compiled, repeats)
    c_wins = sum(r["fastest"] == "per_pair_c" for r in grid)
    write_report(
        "merge_batch",
        f"K independent profile pairs of ~L columns, three ways "
        f"(best of {repeats}, interleaved in one process)\n\n"
        f"{_table(grid, ('L', 'K'))}\n\n"
        f"per-pair c is the fastest arm in {c_wins} of {len(grid)} cells; "
        f"align_profiles_batch fuses only under the numpy kernel.\n\n"
        f"whole serial progressive merge of N sequences (L ~ 400): "
        f"per-node walk on each kernel vs the level-fused walk\n\n"
        f"{_table(walks, ('n',))}",
    )
    payload = {
        "bench": "merge_batch",
        "repeats": repeats,
        "grid": grid,
        "merge": walks,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "merge_batch.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def _all_identical(payload):
    return all(r["identical"] for r in payload["grid"] + payload["merge"])


def test_merge_batch(benchmark):
    from _util import once

    assert _all_identical(once(benchmark, run_merge_batch))


if __name__ == "__main__":
    sys.exit(0 if _all_identical(run_merge_batch()) else 1)
