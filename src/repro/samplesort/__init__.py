"""Sample-sort machinery (regular sampling / PSRS).

The paper's redistribution step is exactly Parallel Sorting by Regular
Sampling (Shi & Schaeffer 1992) applied with k-mer ranks as keys:

- :mod:`repro.samplesort.regular_sampling` -- evenly spaced local samples,
  root-side pivot selection, bucket assignment, and the 2N/p occupancy
  bound the paper leans on in section 3.
"""

from repro.samplesort.regular_sampling import (
    bucket_assignments,
    choose_pivots,
    max_bucket_bound,
    regular_sample,
)

__all__ = [
    "bucket_assignments",
    "choose_pivots",
    "max_bucket_bound",
    "regular_sample",
]
