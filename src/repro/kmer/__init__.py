"""k-mer statistics: counting, Edgar's match fraction, and the k-mer rank.

The Sample-Align-D decomposition is driven entirely by k-mer statistics:

- :mod:`repro.kmer.counting` -- radix-encoded k-mer extraction and count
  vectors over (optionally compressed) alphabets, and the one
  implementation of the k-mer match fraction of Edgar (2004) (the
  paper's ``r_ij``; square and sequence-vs-sample matrices).  The
  ``ktuple`` / ``kmer-fraction`` distance estimators of
  :mod:`repro.distance` use its kernels over pair lists.
- :mod:`repro.kmer.rank` -- the scalar *k-mer rank* ``R_i`` used to sort,
  sample and redistribute sequences (centralized and globalized variants;
  paper sections 2 and 2.3.1).
"""

from repro.kmer.counting import (
    KmerCounter,
    kmer_codes,
    kmer_match_fraction_matrix,
)
from repro.kmer.rank import (
    RankConfig,
    centralized_rank,
    globalized_rank,
    rank_from_fractions,
)

__all__ = [
    "KmerCounter",
    "RankConfig",
    "centralized_rank",
    "globalized_rank",
    "kmer_codes",
    "kmer_match_fraction_matrix",
    "rank_from_fractions",
]
