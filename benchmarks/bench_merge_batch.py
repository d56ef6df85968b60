"""Level-batched progressive merges vs the per-node walk.

The serial progressive-merge walk groups each guide-tree DAG level into
one ``align_profiles_batch`` call.  The per-node arm is the same walk
with an opaque ``merge_fn`` that calls the scalar ``align_profiles`` --
the executor never level-batches a ``merge_fn``.  Both arms run
interleaved (best-of-``repeats``, alternating) on the same host so load
spikes hit both alike; the speedup is reported, and the only assert is
*byte-identical* FASTA.

Output: benchmarks/reports/merge_batch.json plus the text report.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, fmt_table, write_report

from repro.align.profile_align import ProfileAlignConfig, align_profiles
from repro.align.progressive import progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.tree import get_builder

#: Same workload family as bench_merge_scaling.
MERGE_SIZES = (48, 96) if FULL else (48, 80)


def _interleaved(fn_a, fn_b, repeats):
    """Best-of-``repeats`` for both arms, measurements alternating."""
    fn_a(), fn_b()  # warmup both: pooled buffers, lazy imports
    best_a = best_b = None
    res_a = res_b = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res_a = fn_a()
        wall = time.perf_counter() - t0
        best_a = wall if best_a is None or wall < best_a else best_a
        t0 = time.perf_counter()
        res_b = fn_b()
        wall = time.perf_counter() - t0
        best_b = wall if best_b is None or wall < best_b else best_b
    return best_a, res_a, best_b, res_b


def _merge_rows(repeats):
    cfg = ProfileAlignConfig()

    def scalar_merge(pa, pb):
        return align_profiles(pa, pb, cfg)[0]

    rows = []
    for n in MERGE_SIZES:
        fam = generate_family(
            n_sequences=n,
            mean_length=400,
            relatedness=500,
            seed=23,
            track_alignment=False,
        )
        seqs = list(fam.sequences)
        d = all_pairs(seqs, "ktuple")
        tree = get_builder("upgma").build(d, [s.id for s in seqs])

        def per_node():
            return progressive_align(
                seqs, tree, cfg, merge_fn=scalar_merge
            ).to_fasta()

        def batched():
            return progressive_align(seqs, tree, cfg).to_fasta()

        wall_pn, fasta_pn, wall_b, fasta_b = _interleaved(
            per_node, batched, repeats
        )
        rows.append(
            {
                "n": n,
                "per_node_wall_s": wall_pn,
                "batched_wall_s": wall_b,
                "speedup": wall_pn / wall_b,
                "identical": fasta_pn == fasta_b,
            }
        )
    return rows


def run_merge_batch(repeats=5):
    merge_rows = _merge_rows(repeats)
    table = fmt_table(
        ["N", "per-node s", "batched s", "speedup", "identical"],
        [
            [
                r["n"],
                f"{r['per_node_wall_s']:.3f}",
                f"{r['batched_wall_s']:.3f}",
                f"{r['speedup']:.2f}x",
                r["identical"],
            ]
            for r in merge_rows
        ],
    )
    write_report(
        "merge_batch",
        f"level-batched serial merge vs per-node (merge_fn) walk "
        f"(best of {repeats}, interleaved)\n\n{table}",
    )

    payload = {
        "bench": "merge_batch",
        "repeats": repeats,
        "merge": merge_rows,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "merge_batch.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_merge_batch(benchmark):
    from _util import once

    payload = once(benchmark, run_merge_batch)
    assert all(r["identical"] for r in payload["merge"])


if __name__ == "__main__":
    result = run_merge_batch()
    sys.exit(0 if all(r["identical"] for r in result["merge"]) else 1)
