"""External-memory distances + anchored guide trees at genome scale.

The perf-trajectory entry for PR 10.  The dense all-pairs stage holds
the full ``(n, n)`` float64 matrix in RAM -- 3.2 GB at N=20,000 before
a single worker starts, which is the hard wall ROADMAP item 4(b) calls
the genome-scale gap.  This bench certifies the external-memory path
through four gates:

- **genome scale under a RAM cap** -- ``all_pairs(..., out="memmap")``
  with the ktuple estimator at N=20,000 (199,990,000 pairs, a 1.6 GB
  condensed vector on disk) must finish with peak RSS under 1 GiB,
  measured by ``resource.getrusage`` in a subprocess so the parent's
  allocations cannot pollute the number;
- **placement equivalence** -- at a checkable N the memmap store holds
  byte-identical values to the in-RAM matrix across all four schedules
  (serial / threads / pool / cooperative SPMD);
- **anchored trees end-to-end** -- ``anchor_guide_tree`` builds a guide
  tree straight from the sequences at N=20,000 through the O(K*N)
  rectangle, never touching O(N^2) work or memory (the exact path is
  memory-gated at this N by the cap above);
- **sampled-tree quality** -- at a small N with a rose ground truth,
  aligning with the anchor tree scores within a stated qscore tolerance
  of the exact-tree alignment.

Output: benchmarks/reports/external_scaling.json (the machine-readable
perf artifact the CI bigscale-smoke job uploads) plus the text report.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import REPORT_DIR, explicit_pool, fmt_table, write_report

#: The headline scale and the RAM cap it must respect.
GENOME_N = int(os.environ.get("REPRO_EXTERNAL_N", "20000"))
GENOME_LEN = 50
RSS_CAP_MIB = 1024

#: Large tiles amortise per-file overhead at 2e8 pairs (191 tiles of
#: 8 MiB instead of ~49k of 32 KiB); values are tiling-invariant.
GENOME_TILE_PAIRS = 1 << 20

EQUIV_N = 64
ANCHORS = 64
QUALITY_N = 160
QSCORE_TOLERANCE = 0.15

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def _random_seqs(n, length, seed=0):
    """Uniform random protein sequences -- homology-free is fine for
    memory/throughput gates (quality gates use rose families)."""
    import numpy as np

    from repro.seq.sequence import Sequence

    rng = np.random.default_rng(seed)
    alpha = np.array(list(AMINO))
    return [
        Sequence(f"s{i}", "".join(rng.choice(alpha, length)))
        for i in range(n)
    ]


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Child workloads: each runs in its own process so the reported peak RSS
# is the workload's own high-water mark.


def _child_genome(n, store_dir):
    from repro.distance import all_pairs
    from repro.distance.tilestore import TileStore, condensed_size

    t0 = time.perf_counter()
    seqs = _random_seqs(n, GENOME_LEN)
    gen_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    d = all_pairs(
        seqs, "ktuple", k=3,
        out="memmap", store_dir=store_dir,
        tile_pairs=GENOME_TILE_PAIRS,
    )
    dist_wall = time.perf_counter() - t0
    stats = TileStore(store_dir).stats()
    n_pairs = condensed_size(n)
    # Spot-check the store without paging the whole file back in.
    sample = float(d[0, 1]) + float(d[n - 2, n - 1])
    return {
        "n": n,
        "n_pairs": n_pairs,
        "condensed_bytes": stats["condensed_bytes"],
        "complete": stats["complete"],
        "generate_wall_s": gen_wall,
        "distance_wall_s": dist_wall,
        "pairs_per_s": n_pairs / dist_wall,
        "sample_ok": 0.0 <= sample <= 2.0,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _child_anchored(n):
    from repro.tree import anchor_guide_tree

    t0 = time.perf_counter()
    seqs = _random_seqs(n, GENOME_LEN, seed=1)
    gen_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    tree = anchor_guide_tree(seqs, "ktuple", k=3, anchors=ANCHORS)
    tree_wall = time.perf_counter() - t0
    leaves = tree.merges[tree.merges < n]
    return {
        "n": n,
        "anchors": ANCHORS,
        "generate_wall_s": gen_wall,
        "tree_wall_s": tree_wall,
        "n_merges": int(tree.merges.shape[0]),
        "every_leaf_once": sorted(int(x) for x in leaves) == list(range(n)),
        "peak_rss_mib": _peak_rss_mib(),
    }


def _run_child(mode, *args):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode,
         *map(str, args)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {mode} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# In-process gates (small N; RSS is not the subject here).


def _equivalence(n):
    import numpy as np

    from repro.distance import all_pairs
    from repro.parcomp.launcher import run_spmd

    seqs = _random_seqs(n, 40, seed=2)
    dense = all_pairs(seqs, "ktuple")
    ii, jj = np.triu_indices(n, k=1)
    expected = dense[ii, jj].tobytes()

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        results["serial"] = all_pairs(
            seqs, "ktuple", out="memmap", store_dir=tmp / "serial"
        )
        with explicit_pool(3):
            for backend in ("threads", "pool"):
                results[backend] = all_pairs(
                    seqs, "ktuple", backend=backend, workers=3,
                    out="memmap", store_dir=tmp / backend,
                )

        root = tmp / "spmd"

        def program(comm):
            return all_pairs(
                seqs, "ktuple", comm=comm, out="memmap", store_dir=root
            )

        results["spmd"] = run_spmd(3, program).results[0]
        identical = {
            mode: m.condensed.tobytes() == expected
            for mode, m in results.items()
        }
    return {"n": n, "identical": identical, "all": all(identical.values())}


def _quality(n):
    from repro.align.profile_align import ProfileAlignConfig
    from repro.align.progressive import progressive_align
    from repro.datagen.rose import generate_family
    from repro.distance import all_pairs
    from repro.metrics import qscore
    from repro.tree import AnchorTreeBuilder, get_builder

    fam = generate_family(
        n_sequences=n, mean_length=100, relatedness=400, seed=29
    )
    seqs = list(fam.sequences)
    ids = [s.id for s in seqs]
    d = all_pairs(seqs, "ktuple", out="condensed")
    scoring = ProfileAlignConfig()

    exact_tree = get_builder("upgma").build(d, ids)
    exact_aln = progressive_align(seqs, exact_tree, scoring)
    exact_q = qscore(exact_aln, fam.reference)

    anchor_tree = AnchorTreeBuilder(anchors=24, seed=0).build(d, ids)
    anchor_aln = progressive_align(seqs, anchor_tree, scoring)
    anchor_q = qscore(anchor_aln, fam.reference)

    return {
        "n": n,
        "anchors": 24,
        "qscore_exact_tree": exact_q,
        "qscore_anchor_tree": anchor_q,
        "tolerance": QSCORE_TOLERANCE,
        "within_tolerance": anchor_q >= exact_q - QSCORE_TOLERANCE,
    }


def run_external_scaling():
    cores = os.cpu_count() or 1
    store_dir = Path(tempfile.mkdtemp(prefix="repro-external-bench-"))
    try:
        genome = _run_child("genome", GENOME_N, store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    anchored = _run_child("anchored", GENOME_N)
    equivalence = _equivalence(EQUIV_N)
    quality = _quality(QUALITY_N)

    dense_gib = GENOME_N * GENOME_N * 8 / (1 << 30)
    genome["rss_cap_mib"] = RSS_CAP_MIB
    genome["under_cap"] = genome["peak_rss_mib"] < RSS_CAP_MIB

    rows = [
        ["memmap distances", genome["n"],
         f"{genome['distance_wall_s']:.1f}",
         f"{genome['peak_rss_mib']:.0f}"],
        ["anchored tree", anchored["n"],
         f"{anchored['tree_wall_s']:.1f}",
         f"{anchored['peak_rss_mib']:.0f}"],
    ]
    table = fmt_table(["stage", "N", "wall_s", "peak_rss_mib"], rows)
    text = (
        f"external-memory scaling: host_cores={cores}\n\n"
        f"{table}\n\n"
        f"memmap ktuple all_pairs N={genome['n']}: "
        f"{genome['n_pairs']:,} pairs "
        f"({genome['condensed_bytes'] / (1 << 30):.2f} GiB condensed on "
        f"disk; dense in-RAM would be {dense_gib:.1f} GiB), peak RSS "
        f"{genome['peak_rss_mib']:.0f} MiB < {RSS_CAP_MIB} MiB cap: "
        f"{genome['under_cap']}\n"
        f"anchored guide tree N={anchored['n']} K={anchored['anchors']}: "
        f"{anchored['tree_wall_s']:.1f}s via the O(K*N) rectangle "
        f"(every leaf exactly once: {anchored['every_leaf_once']})\n"
        f"placement equivalence N={equivalence['n']}: memmap bytes == "
        f"in-RAM bytes on {sorted(equivalence['identical'])}: "
        f"{equivalence['all']}\n"
        f"sampled-tree quality N={quality['n']} K={quality['anchors']}: "
        f"qscore {quality['qscore_anchor_tree']:.3f} (anchor) vs "
        f"{quality['qscore_exact_tree']:.3f} (exact), tolerance "
        f"{QSCORE_TOLERANCE}: {quality['within_tolerance']}"
    )
    write_report("external_scaling", text)

    payload = {
        "bench": "external_scaling",
        "host_cores": cores,
        "genome": genome,
        "anchored": anchored,
        "equivalence": equivalence,
        "quality": quality,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "external_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_external_scaling(benchmark):
    from _util import once

    payload = once(benchmark, run_external_scaling)
    assert payload["genome"]["complete"]
    assert payload["genome"]["under_cap"], payload["genome"]
    assert payload["anchored"]["every_leaf_once"]
    assert payload["equivalence"]["all"], payload["equivalence"]
    assert payload["quality"]["within_tolerance"], payload["quality"]


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--child":
        mode = sys.argv[2]
        if mode == "genome":
            out = _child_genome(int(sys.argv[3]), sys.argv[4])
        elif mode == "anchored":
            out = _child_anchored(int(sys.argv[3]))
        else:
            raise SystemExit(f"unknown child mode {mode!r}")
        print(json.dumps(out))
        return 0

    payload = run_external_scaling()
    ok = (
        payload["genome"]["complete"]
        and payload["genome"]["under_cap"]
        and payload["anchored"]["every_leaf_once"]
        and payload["equivalence"]["all"]
        and payload["quality"]["within_tolerance"]
    )
    if not ok:
        print("FAIL: see report above", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
