"""Table 2 -- PREFAB Q-scores of Sample-Align-D and the comparators.

Paper values:
    Sample-Align-D 0.544 | MUSCLE 0.645 | MUSCLE-p 0.634 | T-Coffee 0.615
    NWNSI 0.615 | FFTNSI 0.591 | CLUSTALW 0.563

Protocol (PREFAB): every case is a small set (paper: 20-30 sequences) of
varying divergence with a trusted reference pair; Q is measured on that
pair.  Sample-Align-D runs on a 4-rank virtual cluster, as in the paper.
Absolute values differ from the published binaries (different reference
construction, simplified engines); the claim reproduced is the *ordering
band*: consistency/iterative methods on top, Sample-Align-D comparable
to CLUSTALW near the bottom of the pack.
"""

import numpy as np

from _util import FULL, fmt_table, once, write_report

from repro import AlignRequest, AlignmentService
from repro.core.config import SampleAlignDConfig
from repro.datagen.prefab import make_prefab_like
from repro.metrics import qscore_pair

PAPER = {
    "sample-align-d": 0.544,
    "muscle": 0.645,
    "muscle-p": 0.634,
    "tcoffee": 0.615,
    "mafft-nwnsi": 0.615,
    "mafft-fftnsi": 0.591,
    "clustalw": 0.563,
    # Extension: ProbCons is cited by the paper (ref. [29]) but not in
    # its Table 2; included here for completeness of the comparator set.
    "probcons": None,
}


def run_benchmark_suite():
    n_cases = 24 if FULL else 10
    cases = make_prefab_like(
        n_cases=n_cases,
        seqs_per_case=(12, 18) if not FULL else (20, 30),
        mean_length=100,
        relatedness_values=(200.0, 400.0, 600.0, 800.0),
        seed=3,
    )
    methods = [
        "muscle", "muscle-p", "tcoffee", "mafft-nwnsi", "mafft-fftnsi",
        "clustalw", "probcons",
    ]
    # Every method -- sequential comparators and Sample-Align-D alike --
    # is one AlignRequest through the unified engine registry; the
    # service executes the whole table as a single batch.
    sad_config = SampleAlignDConfig(local_aligner="muscle-p")
    requests, labels = [], []
    for case in cases:
        for m in methods:
            requests.append(AlignRequest(tuple(case.sequences), engine=m))
            labels.append((case, m))
        requests.append(
            AlignRequest(
                tuple(case.sequences), engine="sample-align-d",
                n_procs=4, config=sad_config,
            )
        )
        labels.append((case, "sample-align-d"))

    results = AlignmentService().results(requests)

    scores = {m: [] for m in methods + ["sample-align-d"]}
    for (case, m), result in zip(labels, results):
        a, b = case.ref_pair
        scores[m].append(qscore_pair(result.alignment, case.reference, a, b))
    return cases, {m: float(np.mean(v)) for m, v in scores.items()}


def test_table2_prefab_quality(benchmark):
    cases, means = once(benchmark, run_benchmark_suite)

    order = sorted(means, key=means.get, reverse=True)
    rows = [
        [
            m,
            f"{means[m]:.3f}",
            f"{PAPER[m]:.3f}" if PAPER[m] is not None else "n/a (ext.)",
        ]
        for m in order
    ]
    report = "\n".join(
        [
            f"Table 2: PREFAB-like Q scores over {len(cases)} cases "
            f"(divergence sweep {sorted({c.relatedness for c in cases})})",
            "",
            fmt_table(["method", "Q (measured)", "Q (paper)"], rows),
            "",
            "Reproduction target: ordering band, not absolute values --",
            "consistency/iterative methods lead; Sample-Align-D lands in",
            "the CLUSTALW band below the sequential engine it wraps.",
        ]
    )
    write_report("table2_prefab_quality", report)

    # Band assertions from the paper's table.
    assert means["muscle"] >= means["muscle-p"] - 0.02
    assert means["muscle"] > means["sample-align-d"]
    assert means["sample-align-d"] > 0.3
    # Sample-Align-D within reach of CLUSTALW (paper: 0.544 vs 0.563).
    assert abs(means["sample-align-d"] - means["clustalw"]) < 0.2
