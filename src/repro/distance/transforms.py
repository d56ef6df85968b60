"""Identity/distance post-transforms shared by every estimator.

These are the *single* home of the identity-to-distance math (Kimura,
and the calibrated fractional-identity map the ``kmer-fraction``
estimator applies to the k-mer match fraction).

Two transforms are registered:

- ``"linear"`` -- ``d = 1 - id`` (CLUSTALW's fractional-identity
  distance; the default everywhere).
- ``"kimura"`` -- Kimura's (1983) correction ``d = -ln(1 - D - D^2/5)``
  with ``D = 1 - id`` (MUSCLE stage 2), saturated for very divergent
  pairs exactly as MUSCLE does.
"""

from __future__ import annotations

import numpy as np

from repro.seq.alignment import Alignment

__all__ = [
    "TRANSFORMS",
    "alignment_identity_matrix",
    "fractional_identity_estimate",
    "identity_to_distance",
    "kimura_distance",
]

#: Registered identity-to-distance transform names.
TRANSFORMS = ("linear", "kimura")


def kimura_distance(identity: np.ndarray) -> np.ndarray:
    """Kimura's (1983) correction of fractional identity to an additive
    evolutionary distance: ``d = -ln(1 - D - D^2/5)`` with ``D = 1 - id``.

    Saturates (clamps) for very divergent pairs exactly as MUSCLE does.
    Accepts matrices (diagonal re-zeroed) or flat per-pair arrays.
    """
    D = 1.0 - np.asarray(identity, dtype=np.float64)
    arg = 1.0 - D - D * D / 5.0
    arg = np.maximum(arg, 0.05)  # clamp: d <= ~3.0 for near-random pairs
    d = -np.log(arg)
    np.fill_diagonal(d, 0.0) if d.ndim == 2 else None
    return d


def fractional_identity_estimate(match_fraction: np.ndarray) -> np.ndarray:
    """Estimate fractional identity from the k-mer match fraction.

    Edgar (NAR 2004) showed the k-mer match fraction over compressed
    alphabets correlates linearly with fractional identity over the useful
    range; we use the simple calibrated affine map ``id ~= 0.02 + 0.95 * F``
    clipped to ``[0, 1]``.  Only the monotone relationship matters for tree
    building and rank-based bucketing.
    """
    return np.clip(0.02 + 0.95 * np.asarray(match_fraction), 0.0, 1.0)


def identity_to_distance(
    identity: np.ndarray, transform: str = "linear"
) -> np.ndarray:
    """Convert fractional identities to distances via a named transform."""
    if transform == "linear":
        return 1.0 - np.asarray(identity, dtype=np.float64)
    if transform == "kimura":
        return kimura_distance(identity)
    raise ValueError(
        f"unknown identity transform {transform!r}; one of {list(TRANSFORMS)}"
    )


def alignment_identity_matrix(aln: Alignment) -> np.ndarray:
    """Pairwise fractional identity induced by an existing MSA.

    Identity of rows (i, j) = identical residue pairs / columns where both
    rows are non-gap (0 when they never overlap).  Counted with one
    matrix product per residue present: ``onehot_a @ onehot_a.T`` is the
    number of columns where both rows carry residue ``a``, and
    ``nongap @ nongap.T`` the number where both carry any -- sums of
    0/1 products, so exact in float64 -- in O(N^2) memory beside the
    input.  This is MUSCLE's stage-2 re-estimate; feed the result to
    :func:`kimura_distance` (or :func:`identity_to_distance` with
    ``transform="kimura"``) for the stage-2 tree distances.
    """
    n, _L = aln.matrix.shape
    if n == 0:
        return np.zeros((0, 0))
    codes = aln.matrix
    nongap = codes != aln.alphabet.gap_code
    occupied = nongap.astype(np.float64)
    overlap = occupied @ occupied.T
    matches = np.zeros((n, n))
    for residue in np.unique(codes[nongap]):
        onehot = (codes == residue).astype(np.float64)
        matches += onehot @ onehot.T
    ident = np.where(overlap > 0, matches / np.maximum(overlap, 1), 0.0)
    np.fill_diagonal(ident, 1.0)
    return ident
