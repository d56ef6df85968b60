"""Ablation -- k and compressed-alphabet choice for the k-mer statistics.

Edgar (2004) showed k-mer match fractions over compressed alphabets
correlate with true fractional identity; the rank inherits that.  This
bench sweeps (k, alphabet) and measures the correlation between the
k-mer match fraction and the true alignment identity over *homologous*
(within-family) pairs -- the regime where fractional identity is the
quantity being estimated.
"""

import numpy as np

from _util import fmt_table, once, write_report

from repro.datagen.rose import generate_family
from repro.distance import alignment_identity_matrix
from repro.kmer.counting import KmerCounter
from repro.kmer import kmer_match_fraction_matrix
from repro.seq.alphabet import DAYHOFF6, MURPHY10, PROTEIN, SE_B14


def build_pairs():
    """Pool within-family pairs across four divergence levels."""
    seqs = []
    ii, jj, truth = [], [], []
    offset = 0
    for i, rel in enumerate((150, 400, 700, 950)):
        fam = generate_family(
            n_sequences=10, mean_length=150, relatedness=rel, seed=i,
            id_prefix=f"f{i}_",
        )
        n = len(fam.sequences)
        ident = alignment_identity_matrix(fam.reference)
        a, b = np.triu_indices(n, k=1)
        ii.extend((offset + a).tolist())
        jj.extend((offset + b).tolist())
        truth.extend(ident[a, b].tolist())
        seqs.extend(fam.sequences)
        offset += n
    return seqs, np.array(ii), np.array(jj), np.array(truth)


def correlation_for(seqs, ii, jj, truth, k, alphabet):
    counter = KmerCounter(k=k, alphabet=alphabet)
    frac = kmer_match_fraction_matrix(seqs, None, counter)
    return float(np.corrcoef(frac[ii, jj], truth)[0, 1])


def test_ablation_kmer(benchmark):
    seqs, ii, jj, truth = build_pairs()

    combos = [
        (k, alpha)
        for k in (2, 3, 4, 5, 6)
        for alpha in (DAYHOFF6, MURPHY10, SE_B14)
    ] + [(3, PROTEIN), (4, PROTEIN)]

    results = {}
    for k, alpha in combos[:-1]:
        results[(k, alpha.name)] = correlation_for(
            seqs, ii, jj, truth, k, alpha
        )
    k, alpha = combos[-1]
    results[(k, alpha.name)] = once(
        benchmark, correlation_for, seqs, ii, jj, truth, k, alpha
    )

    rows = [
        [k, name, f"{corr:.3f}"]
        for (k, name), corr in sorted(results.items(), key=lambda kv: -kv[1])
    ]
    report = "\n".join(
        [
            "Ablation: k-mer length x alphabet vs correlation with true "
            "fractional identity",
            f"({len(ii)} homologous pairs across 4 divergence levels)",
            "",
            fmt_table(["k", "alphabet", "corr(match fraction, identity)"],
                      rows),
            "",
            "Edgar's result reproduced: short k-mers over compressed",
            "alphabets track fractional identity almost as well as the",
            "full alphabet while shrinking the k-mer space by orders of",
            "magnitude (dense counting stays cheap).",
        ]
    )
    write_report("ablation_kmer", report)

    default = results[(4, "dayhoff6")]
    assert default > 0.6
    # Compression must not be catastrophically worse than the raw alphabet.
    assert default > results[(4, "protein")] - 0.15
    # Mid-range k beats very short k for the compressed alphabets.
    assert results[(4, "dayhoff6")] > results[(2, "dayhoff6")]
