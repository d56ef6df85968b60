"""Edgar's k-mer match fraction and distance.

The paper (section 2) defines, for sequences ``x_i`` and ``x_j``::

    r_ij = sum_tau min(n_xi(tau), n_xj(tau)) / (min(|x_i|, |x_j|) - k + 1)

i.e. the fraction of the shorter sequence's k-mers that are shared
(counting multiplicity).  ``r_ij`` is a *similarity* in ``[0, 1]``; Edgar's
k-mer distance is ``1 - r_ij``.  Both forms are provided, as square
(all-vs-all) and rectangular (sequences-vs-sample) matrices -- the latter
is what the *globalized* rank of section 2.3.1 needs.

Implementation notes (hpc-parallel guide: vectorise the inner loops):

- Small k-mer spaces use dense count matrices and the *layer decomposition*
  ``min(a, b) = sum_{t>=1} [a >= t][b >= t]``, which turns the min-sum into
  a handful of BLAS matmuls, each over the columns that layer can touch.
- Large spaces fall back to occurrence-decorated sorted codes and exact
  multiset intersections per pair.
"""

from __future__ import annotations

from typing import List, Sequence as TSequence

import numpy as np

from repro.kmer.counting import KmerCounter
from repro.seq.sequence import Sequence

__all__ = [
    "kmer_match_fraction_matrix",
    "kmer_distance_matrix",
]


def _min_sum_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``M[i, j] = sum_t min(a[i, t], b[j, t])`` for count matrices.

    The layer decomposition ``min(x, y) = sum_{t>=1} [x >= t][y >= t]``,
    one 0/1 matmul per layer.  Layer ``t`` is non-zero only in the
    columns where *both* sides reach ``t`` in some row, so each layer is
    restricted to those: the first covers the k-mers the two sides
    share, the deep ones (a k-mer one sequence repeats nine times) a
    handful of columns, and the number of layers is the depth both
    sides reach, not the largest count on either.

    The sums are small integers, so float32 holds them exactly while a
    row's k-mer total stays below 2**24 (no entry, and no partial sum
    on the way to it, exceeds the smaller row total); beyond that the
    layers are float64.
    """
    same = b is a
    rows_a = a.sum(axis=1, dtype=np.int64).max(initial=0)
    rows_b = rows_a if same else b.sum(axis=1, dtype=np.int64).max(initial=0)
    dtype = np.float32 if min(rows_a, rows_b) < 1 << 24 else np.float64
    reach_a = a.max(axis=0, initial=0)
    reach = reach_a if same else np.minimum(reach_a, b.max(axis=0, initial=0))
    out = np.zeros((a.shape[0], b.shape[0]), dtype=dtype)
    for t in range(1, int(reach.max(initial=0)) + 1):
        keep = reach >= t  # a subset of the previous layer's columns
        reach = reach[keep]
        a = a[:, keep]
        b = a if same else b[:, keep]
        la = (a >= t).astype(dtype)
        lb = la if same else (b >= t).astype(dtype)
        out += la @ lb.T
    return np.rint(out).astype(np.int64)


def _min_sum_sparse(
    dec_a: List[np.ndarray], dec_b: List[np.ndarray]
) -> np.ndarray:
    """Pairwise multiset intersection sizes from decorated k-mer arrays."""
    out = np.empty((len(dec_a), len(dec_b)), dtype=np.int64)
    for i, da in enumerate(dec_a):
        for j, db in enumerate(dec_b):
            out[i, j] = np.intersect1d(da, db, assume_unique=True).size
    return out


def _shared_kmer_counts(
    seqs_a: TSequence[Sequence],
    seqs_b: TSequence[Sequence],
    counter: KmerCounter,
) -> np.ndarray:
    if counter.dense_ok:
        ca = counter.count_matrix(seqs_a)
        cb = ca if seqs_b is seqs_a else counter.count_matrix(seqs_b)
        return _min_sum_dense(ca, cb)
    da = [counter.decorated_kmers(s) for s in seqs_a]
    db = da if seqs_b is seqs_a else [counter.decorated_kmers(s) for s in seqs_b]
    return _min_sum_sparse(da, db)


def kmer_match_fraction_matrix(
    seqs_a: TSequence[Sequence],
    seqs_b: TSequence[Sequence] | None = None,
    counter: KmerCounter | None = None,
) -> np.ndarray:
    """The paper's ``r_ij`` for every pair in ``seqs_a x seqs_b``.

    With ``seqs_b=None`` the matrix is square over ``seqs_a`` (all-vs-all,
    used by the centralized rank); otherwise rectangular ``(len(a),
    len(b))`` (sequences vs sample, used by the globalized rank).
    Values lie in ``[0, 1]``; pairs where either sequence is shorter than
    ``k`` get 0.
    """
    counter = counter or KmerCounter()
    seqs_a = list(seqs_a)
    same = seqs_b is None
    seqs_b_l = seqs_a if same else list(seqs_b)
    if not seqs_a or not seqs_b_l:
        return np.zeros((len(seqs_a), len(seqs_b_l)))
    shared = _shared_kmer_counts(seqs_a, seqs_a if same else seqs_b_l, counter)
    na = np.array([counter.n_kmers(s) for s in seqs_a], dtype=np.float64)
    nb = na if same else np.array(
        [counter.n_kmers(s) for s in seqs_b_l], dtype=np.float64
    )
    denom = np.minimum(na[:, None], nb[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom > 0, shared / denom, 0.0)
    return np.clip(frac, 0.0, 1.0)


def kmer_distance_matrix(
    seqs_a: TSequence[Sequence],
    seqs_b: TSequence[Sequence] | None = None,
    counter: KmerCounter | None = None,
) -> np.ndarray:
    """Edgar's k-mer distance ``1 - r_ij`` (square or rectangular)."""
    return 1.0 - kmer_match_fraction_matrix(seqs_a, seqs_b, counter)
