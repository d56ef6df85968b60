"""k-mer extraction, counting and Edgar's k-mer match fraction.

k-mers are radix-encoded into integers over an (optionally compressed)
alphabet so that counting is a single ``np.bincount`` and batch similarity
reduces to dense linear algebra.  Compressed alphabets (Dayhoff-6 by
default) keep the k-mer space ``A**k`` small enough for dense count
matrices, exactly the trick MUSCLE and Edgar (2004) use for speed.

The paper (section 2) defines, for sequences ``x_i`` and ``x_j``::

    r_ij = sum_tau min(n_xi(tau), n_xj(tau)) / (min(|x_i|, |x_j|) - k + 1)

i.e. the fraction of the shorter sequence's k-mers that are shared
(counting multiplicity).  This module holds its one implementation:

- :meth:`KmerCounter.table` -- the one dense/sparse decision
  (:attr:`KmerCounter.dense_ok`): a dense count matrix for small k-mer
  spaces, occurrence-decorated sorted codes otherwise.
- :func:`min_sum_dense` / :func:`min_sum_sparse` -- the numerator, one
  kernel per representation.
- :func:`match_fraction` -- the quotient.
- :func:`kmer_match_fraction_matrix` -- the square (all-vs-all) or
  rectangular (sequences-vs-sample) matrix the k-mer rank needs; the
  ``ktuple`` and ``kmer-fraction`` distance estimators take the same
  pieces over pair lists.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence as TSequence, Union

import numpy as np

from repro.seq.alphabet import Alphabet, CompressedAlphabet, DAYHOFF6
from repro.seq.sequence import Sequence

__all__ = [
    "KmerCounter",
    "kmer_codes",
    "kmer_match_fraction_matrix",
    "match_fraction",
    "min_sum_dense",
    "min_sum_sparse",
]

#: Largest k-mer space for which dense count matrices are built.
DENSE_SPACE_LIMIT = 1 << 17


def kmer_codes(codes: np.ndarray, k: int, alphabet_size: int) -> np.ndarray:
    """Radix-encode every overlapping k-mer of a code array.

    Parameters
    ----------
    codes:
        Residue codes (< ``alphabet_size``), shape ``(L,)``.
    k:
        k-mer length (>= 1).
    alphabet_size:
        Radix ``A``; returned values lie in ``[0, A**k)``.

    Returns
    -------
    ``int64`` array of length ``max(L - k + 1, 0)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and int(codes.max()) >= alphabet_size:
        raise ValueError("residue code out of range for alphabet_size")
    n = codes.size - k + 1
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    powers = alphabet_size ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    return windows @ powers


class KmerCounter:
    """Counts k-mers of sequences over a target (possibly compressed) alphabet.

    Parameters
    ----------
    k:
        k-mer length; the paper follows MUSCLE/Edgar and uses short k-mers
        over compressed alphabets.  Default ``k=4``.
    alphabet:
        Target alphabet.  When it is a :class:`CompressedAlphabet` the
        counter accepts sequences encoded in the *parent* alphabet and
        projects them (vectorised table lookup).
    """

    def __init__(self, k: int = 4, alphabet: Alphabet = DAYHOFF6) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.alphabet = alphabet
        self.space_size = alphabet.size ** k

    def __repr__(self) -> str:
        return f"KmerCounter(k={self.k}, alphabet={self.alphabet.name!r})"

    @property
    def dense_ok(self) -> bool:
        """Whether dense (N, A**k) count matrices are permitted."""
        return self.space_size <= DENSE_SPACE_LIMIT

    # -- encoding ------------------------------------------------------------

    def _target_codes(self, seq: Sequence) -> np.ndarray:
        alpha = self.alphabet
        if isinstance(alpha, CompressedAlphabet) and seq.alphabet == alpha.parent:
            return alpha.project(seq.codes)
        return seq.encoded(alpha)

    def sequence_kmers(self, seq: Sequence) -> np.ndarray:
        """Radix codes of every k-mer of ``seq`` (length ``L - k + 1``)."""
        return kmer_codes(self._target_codes(seq), self.k, self.alphabet.size)

    def n_kmers(self, seq: Sequence) -> int:
        """Number of k-mers in ``seq`` (``max(L - k + 1, 0)``)."""
        return max(len(seq) - self.k + 1, 0)

    def n_kmers_array(self, seqs: TSequence[Sequence]) -> np.ndarray:
        """:meth:`n_kmers` of every sequence, as an int64 array."""
        return np.fromiter(
            (self.n_kmers(s) for s in seqs), np.int64, len(seqs)
        )

    def table(
        self, seqs: TSequence[Sequence]
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """What the min-sum kernels take: the dense count matrix
        (:meth:`count_matrix`) when :attr:`dense_ok`, else one
        :meth:`decorated_kmers` array per sequence."""
        if self.dense_ok:
            return self.count_matrix(seqs)
        return [self.decorated_kmers(s) for s in seqs]

    # -- counting -------------------------------------------------------------

    def count_vector(self, seq: Sequence) -> np.ndarray:
        """Dense count vector of shape ``(A**k,)`` (requires small space)."""
        return self.count_matrix([seq])[0]

    def count_matrix(self, seqs: Iterable[Sequence]) -> np.ndarray:
        """Dense int32 ``(N, A**k)`` count matrix (rows follow input order).

        One pass over all sequences: the projected codes are
        concatenated, every window is radix-encoded at once, windows
        that run across a sequence boundary are masked out, and the
        surviving ``(row, k-mer)`` cells are counted straight into the
        matrix -- sorted, so no dense 64-bit ``N * A**k`` scratch array
        is built.
        """
        seqs = list(seqs)
        if not self.dense_ok:
            raise ValueError(
                f"k-mer space {self.space_size} too large for dense counts; "
                "use sorted_kmers/decorated_kmers instead"
            )
        k, alpha = self.k, self.alphabet
        out = np.zeros((len(seqs), self.space_size), dtype=np.int32)
        if not seqs:
            return out
        if isinstance(alpha, CompressedAlphabet) and all(
            s.alphabet == alpha.parent for s in seqs
        ):
            # One projection for all rows instead of one per row.
            codes = alpha.project(np.concatenate([s.codes for s in seqs]))
        else:
            codes = np.concatenate([self._target_codes(s) for s in seqs])
        # Every window of the concatenation (kmer_codes also checks the
        # codes' range), including the ones that straddle two rows.
        kmers = kmer_codes(codes, k, alpha.size)
        n_windows = kmers.size
        if n_windows == 0:
            return out
        lengths = np.fromiter((len(s) for s in seqs), np.int64, len(seqs))
        row = np.repeat(np.arange(len(seqs)), lengths)[:n_windows]
        # A window belongs to the row of its first residue and is real
        # only when it also ends inside that row.
        inside = np.arange(k, n_windows + k) <= np.cumsum(lengths)[row]
        cells, counts = np.unique(
            row[inside] * self.space_size + kmers[inside], return_counts=True
        )
        out.reshape(-1)[cells] = counts
        return out

    # -- sparse representations (large k-mer spaces) ----------------------------

    def sorted_kmers(self, seq: Sequence) -> np.ndarray:
        """Sorted k-mer codes, duplicates retained (multiset as array)."""
        km = self.sequence_kmers(seq)
        km.sort()
        return km

    #: Occurrence radix shared by all decorated arrays; bounds the
    #: multiplicity of any single k-mer (i.e. the sequence length).
    OCC_RADIX = np.int64(1) << 21

    def decorated_kmers(self, seq: Sequence) -> np.ndarray:
        """Occurrence-decorated sorted k-mer codes.

        Each code ``c`` occurring ``m`` times becomes ``c * OCC_RADIX + 0 ..
        c * OCC_RADIX + (m-1)``, making the decorated arrays duplicate-free
        while keeping them comparable across sequences (the radix is a class
        constant).  Multiset intersection size of two sequences then equals
        ``len(np.intersect1d(d1, d2, assume_unique=True))`` -- the exact
        ``sum_t min(n_x(t), n_y(t))`` of the paper's ``r_ij`` numerator,
        usable for arbitrarily large k-mer spaces.
        """
        km = self.sorted_kmers(seq)
        if km.size == 0:
            return km
        if km.size >= int(self.OCC_RADIX):
            raise ValueError("sequence too long for occurrence decoration")
        if self.space_size > (np.iinfo(np.int64).max // int(self.OCC_RADIX)):
            raise ValueError("k-mer space too large for occurrence decoration")
        # Rank of each element within its run of equal codes.
        change = np.empty(km.size, dtype=bool)
        change[0] = True
        np.not_equal(km[1:], km[:-1], out=change[1:])
        run_starts = np.flatnonzero(change)
        occ = np.arange(km.size, dtype=np.int64)
        occ -= np.repeat(run_starts, np.diff(np.append(run_starts, km.size)))
        return km * self.OCC_RADIX + occ


def min_sum_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``M[i, j] = sum_t min(a[i, t], b[j, t])`` for count matrices.

    The layer decomposition ``min(x, y) = sum_{t>=1} [x >= t][y >= t]``,
    one 0/1 matmul per layer.  Layer ``t`` is non-zero only in the
    columns where *both* sides reach ``t`` in some row, so each layer is
    restricted to those: the first covers the k-mers the two sides
    share, the deep ones (a k-mer one sequence repeats nine times) a
    handful of columns, and the number of layers is the depth both
    sides reach, not the largest count on either.  ``b is a`` computes
    each layer once.

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


def min_sum_sparse(
    dec_a: TSequence[np.ndarray],
    dec_b: TSequence[np.ndarray],
    ii: np.ndarray,
    jj: np.ndarray,
) -> np.ndarray:
    """Shared k-mer counts of the pairs ``(dec_a[ii[t]], dec_b[jj[t]])``
    of decorated arrays (:meth:`KmerCounter.decorated_kmers`): multiset
    intersection sizes, as int64."""
    out = np.empty(len(ii), dtype=np.int64)
    for t, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        out[t] = np.intersect1d(dec_a[i], dec_b[j], assume_unique=True).size
    return out


def match_fraction(
    shared: np.ndarray, n_a: np.ndarray, n_b: np.ndarray
) -> np.ndarray:
    """``r = shared / min(n_a, n_b)`` in ``[0, 1]`` (broadcasting), and 0
    where either side has no k-mer."""
    denom = np.minimum(n_a, n_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom > 0, shared / denom, 0.0)
    return np.clip(frac, 0.0, 1.0)


def kmer_match_fraction_matrix(
    seqs_a: TSequence[Sequence],
    seqs_b: TSequence[Sequence] | None = None,
    counter: KmerCounter | None = None,
) -> np.ndarray:
    """The paper's ``r_ij`` for every pair in ``seqs_a x seqs_b``.

    With ``seqs_b=None`` the matrix is square over ``seqs_a`` (all-vs-all,
    used by the centralized rank; the table is built once); otherwise
    rectangular ``(len(a), len(b))`` (sequences vs sample, used by the
    globalized rank).  Pairs where either sequence is shorter than ``k``
    get 0.
    """
    counter = counter or KmerCounter()
    seqs_a = list(seqs_a)
    seqs_b = seqs_a if seqs_b is None else list(seqs_b)
    if not seqs_a or not seqs_b:
        return np.zeros((len(seqs_a), len(seqs_b)))
    table_a = counter.table(seqs_a)
    table_b = table_a if seqs_b is seqs_a else counter.table(seqs_b)
    if counter.dense_ok:
        shared = min_sum_dense(table_a, table_b)
    else:
        ii, jj = np.divmod(np.arange(len(seqs_a) * len(seqs_b)), len(seqs_b))
        shared = min_sum_sparse(table_a, table_b, ii, jj).reshape(
            len(seqs_a), len(seqs_b)
        )
    n_a = counter.n_kmers_array(seqs_a)
    n_b = n_a if seqs_b is seqs_a else counter.n_kmers_array(seqs_b)
    return match_fraction(shared, n_a[:, None], n_b[None, :])
