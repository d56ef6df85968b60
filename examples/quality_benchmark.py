"""Table-2 style quality comparison on a PREFAB-like benchmark.

Builds reference-aligned benchmark cases of varying divergence, runs
every method -- sequential systems and Sample-Align-D alike -- through
the unified engine API as one :class:`AlignmentService` batch (run in
order on this thread), and prints mean Q scores on the reference pairs (the paper's
Table 2 protocol).  The service's result cache means repeated requests
(re-runs, overlapping sweeps) cost nothing.

Run:  python examples/quality_benchmark.py
"""

import numpy as np

from repro import AlignmentService, AlignRequest, SampleAlignDConfig
from repro.datagen.prefab import make_prefab_like
from repro.metrics import qscore_pair

METHODS = ["muscle", "muscle-p", "tcoffee", "mafft-nwnsi", "clustalw",
           "center-star"]

def main() -> None:
    cases = make_prefab_like(
        n_cases=6, seqs_per_case=(10, 14), mean_length=90, seed=1
    )
    print(f"{len(cases)} benchmark cases, divergence sweep "
          f"{sorted({c.relatedness for c in cases})}\n")

    # One request per (case, method): a flat batch over the unified API.
    sad_config = SampleAlignDConfig(local_aligner="muscle-p")
    requests, labels = [], []
    for case in cases:
        for m in METHODS:
            requests.append(AlignRequest(tuple(case.sequences), engine=m))
            labels.append((case, m))
        requests.append(
            AlignRequest(
                tuple(case.sequences), engine="sample-align-d",
                n_procs=4, config=sad_config,
            )
        )
        labels.append((case, "sample-align-d"))

    svc = AlignmentService()
    results = svc.results(requests)
    print(f"service stats after batch: {svc.stats}\n")

    scores = {m: [] for m in METHODS + ["sample-align-d"]}
    for (case, m), result in zip(labels, results):
        a, b = case.ref_pair
        scores[m].append(qscore_pair(result.alignment, case.reference, a, b))

    print(f"{'method':<16} {'mean Q':>7}")
    for m, vals in sorted(scores.items(), key=lambda kv: -np.mean(kv[1])):
        print(f"{m:<16} {np.mean(vals):>7.3f}")

if __name__ == "__main__":
    main()
