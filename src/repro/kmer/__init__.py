"""k-mer statistics: counting, Edgar distance, and the k-mer rank.

The Sample-Align-D decomposition is driven entirely by k-mer statistics:

- :mod:`repro.kmer.counting` -- radix-encoded k-mer extraction and count
  vectors over (optionally compressed) alphabets.
- :mod:`repro.kmer.distance` -- the k-mer match fraction of Edgar (2004)
  (the paper's ``r_ij``), its distance form, and rectangular
  sequence-vs-sample variants.
- :mod:`repro.kmer.rank` -- the scalar *k-mer rank* ``R_i`` used to sort,
  sample and redistribute sequences (centralized and globalized variants;
  paper sections 2 and 2.3.1).
"""

from repro.kmer.counting import KmerCounter, kmer_codes
from repro.kmer.distance import (
    kmer_match_fraction_matrix,
    kmer_distance_matrix,
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
    "kmer_distance_matrix",
    "kmer_match_fraction_matrix",
    "rank_from_fractions",
]
