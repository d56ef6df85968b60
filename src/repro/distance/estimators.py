"""Pairwise-distance estimators behind one table of names.

The all-pairs distance stage is the scalability wall of guide-tree MSA
(it is *why* Sample-Align-D exists), and before this module every
aligner hard-wired its own copy of the math.  Now each estimator is a
small frozen dataclass with one job -- distances for an arbitrary array
of sequence pairs -- which is exactly the unit the tiled
:func:`repro.distance.all_pairs` scheduler parallelises over the
execution backends.

The estimators (speed/accuracy trade-offs):

``ktuple``
    Edgar's k-mer distance ``1 - r_ij`` over a compressed alphabet.
    Alignment-free, O(L) per sequence to prepare and a handful of
    vectorised integer ops per pair -- the fast default (MUSCLE stage 1,
    MAFFT, CLUSTALW "quick" mode).
``kmer-fraction``
    The calibrated fractional-identity estimate from the k-mer match
    fraction (``id ~= 0.02 + 0.95 F``), optionally Kimura-corrected.
    Same cost as ``ktuple``; distances live on an identity scale, so
    they compose with the ``kimura`` post-transform.
``full-dp``
    ``1 - fractional identity`` of the optimal global (Gotoh) alignment.
    O(L^2) per pair -- the expensive, accurate distance stage of
    CLUSTALW; the one worth parallelising over real cores.

Every identity-based estimator (``full-dp``, ``kmer-fraction``)
accepts ``transform="linear"|"kimura"`` -- the shared
post-transform of :mod:`repro.distance.transforms`.  The table of names
is fixed; a caller with its own estimator passes the instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence as TSequence, Union

import numpy as np

from repro.distance.transforms import (
    TRANSFORMS,
    fractional_identity_estimate,
    identity_to_distance,
)
from repro.kmer.counting import (
    KmerCounter,
    match_fraction,
    min_sum_dense,
    min_sum_sparse,
)
from repro.seq.alphabet import Alphabet, DAYHOFF6
from repro.seq.matrices import BLOSUM62, GapPenalties, SubstitutionMatrix
from repro.seq.sequence import Sequence

__all__ = [
    "DistanceEstimator",
    "FullDpDistance",
    "KmerFractionDistance",
    "KtupleDistance",
    "available_estimators",
    "estimator_info",
    "get_estimator",
    "DEFAULT_ESTIMATOR",
]

#: The estimator used when a caller does not choose one.
DEFAULT_ESTIMATOR = "ktuple"


class DistanceEstimator(ABC):
    """Distances for arbitrary pair-index arrays of a sequence list.

    The contract that makes the tiled scheduler deterministic: the value
    of pair ``(i, j)`` depends only on ``seqs[i]`` and ``seqs[j]`` (plus
    the estimator's own configuration), never on which other pairs share
    the call -- so any tiling of the upper triangle, on any execution
    backend, merges into the byte-identical matrix.

    Instances are small frozen dataclasses: hashable, picklable (they
    cross the process-backend boundary), and stateless -- per-run
    precomputation lives in the ``state`` object returned by
    :meth:`prepare`.
    """

    #: Registry name of the estimator.
    name: str = "abstract"

    def prepare(self, seqs: TSequence[Sequence]) -> Any:
        """Per-run shared precomputation (e.g. k-mer count matrices).

        Called once per rank, not once per tile; the returned state is
        passed back to every :meth:`pair_distances` call.
        """
        return None

    @abstractmethod
    def pair_distances(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        """``float64`` distances of pairs ``(ii[t], jj[t])``."""

    def matrix(self, seqs: TSequence[Sequence]) -> np.ndarray:
        """Full symmetric distance matrix (:func:`all_pairs` placed by
        default)."""
        from repro.distance.allpairs import all_pairs

        return all_pairs(seqs, self)


def _check_transform(transform: str) -> None:
    if transform not in TRANSFORMS:
        raise ValueError(
            f"unknown identity transform {transform!r}; "
            f"one of {list(TRANSFORMS)}"
        )


@dataclass(frozen=True)
class KtupleDistance(DistanceEstimator):
    """Edgar's alignment-free k-mer distance ``1 - r_ij``.

    ``r_ij`` is the fraction of the shorter sequence's k-mers shared with
    the longer one, counting multiplicity (paper section 2); pairs where
    either sequence is shorter than ``k`` get distance 1.
    """

    k: int = 4
    alphabet: Alphabet = field(default=DAYHOFF6, repr=False)

    name = "ktuple"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def counter(self) -> KmerCounter:
        return KmerCounter(k=self.k, alphabet=self.alphabet)

    def prepare(self, seqs: TSequence[Sequence]) -> Any:
        """The k-mer table (:meth:`KmerCounter.table`) and k-mer totals."""
        counter = self.counter()
        return counter.table(seqs), counter.n_kmers_array(seqs)

    def _shared_counts(
        self, state: Any, ii: np.ndarray, jj: np.ndarray
    ) -> np.ndarray:
        table = state[0]
        if not self.counter().dense_ok:
            return min_sum_sparse(table, table, ii, jj)
        # The min-sum over a (unique-rows x unique-cols) rectangle -- for
        # the contiguous condensed-triangle tiles the scheduler produces,
        # the rectangle is barely larger than the pair list, and both
        # paths yield the same exact integer counts (so schedules stay
        # byte-identical).
        ui, inv_i = np.unique(ii, return_inverse=True)
        uj, inv_j = np.unique(jj, return_inverse=True)
        if ui.size * uj.size <= max(4 * len(ii), 1 << 12):
            return min_sum_dense(table[ui], table[uj])[inv_i, inv_j]
        # Degenerate scattered pair lists: blocked per-pair gather
        # bounds the (pairs, A**k) scratch instead.
        shared = np.empty(len(ii), dtype=np.int64)
        block = max(1, (1 << 22) // max(table.shape[1], 1))
        for t0 in range(0, len(ii), block):
            a = table[ii[t0 : t0 + block]]
            b = table[jj[t0 : t0 + block]]
            shared[t0 : t0 + block] = np.minimum(a, b).sum(
                axis=1, dtype=np.int64
            )
        return shared

    def match_fractions(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        """The paper's ``r_ij`` for pairs ``(ii[t], jj[t])`` in [0, 1]."""
        state = self.prepare(seqs) if state is None else state
        n_kmers = state[1]
        return match_fraction(
            self._shared_counts(state, ii, jj), n_kmers[ii], n_kmers[jj]
        )

    def pair_distances(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        return 1.0 - self.match_fractions(seqs, ii, jj, state)


@dataclass(frozen=True)
class KmerFractionDistance(DistanceEstimator):
    """Calibrated fractional identity from the k-mer match fraction.

    Same alignment-free cost as :class:`KtupleDistance`, but the match
    fraction is mapped onto an identity scale first
    (:func:`~repro.distance.transforms.fractional_identity_estimate`),
    so the ``kimura`` post-transform applies.
    """

    k: int = 4
    alphabet: Alphabet = field(default=DAYHOFF6, repr=False)
    transform: str = "linear"

    name = "kmer-fraction"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        _check_transform(self.transform)

    def _base(self) -> KtupleDistance:
        return KtupleDistance(k=self.k, alphabet=self.alphabet)

    def prepare(self, seqs: TSequence[Sequence]) -> Any:
        return self._base().prepare(seqs)

    def pair_identities(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        frac = self._base().match_fractions(seqs, ii, jj, state)
        return fractional_identity_estimate(frac)

    def pair_distances(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        return identity_to_distance(
            self.pair_identities(seqs, ii, jj, state), self.transform
        )


@dataclass(frozen=True)
class FullDpDistance(DistanceEstimator):
    """``1 - fractional identity`` from optimal global pairwise alignments.

    O(L^2) per pair -- the expensive, accurate distance stage of
    CLUSTALW.  This is the estimator the tiled scheduler exists for:
    its per-pair DPs parallelise embarrassingly over the ``pool``
    backend.
    """

    matrix: SubstitutionMatrix = field(default=BLOSUM62, repr=False)
    gaps: GapPenalties = field(default_factory=GapPenalties, repr=False)
    transform: str = "linear"

    name = "full-dp"

    def __post_init__(self) -> None:
        _check_transform(self.transform)

    def prepare(self, seqs: TSequence[Sequence]) -> Any:
        """Every sequence's residue codes, concatenated, and their
        ``offsets``; ``ValueError`` for an alphabet that is not the
        matrix's."""
        if any(s.alphabet != self.matrix.alphabet for s in seqs):
            raise ValueError(
                "sequence alphabets must match the substitution matrix "
                "alphabet"
            )
        parts = [s.codes for s in seqs]
        offsets = np.cumsum([0] + [len(c) for c in parts], dtype=np.int64)
        return np.concatenate([np.zeros(0, np.uint8), *parts]), offsets

    def pair_identities(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        """Fractional identity of each pair's optimal global alignment:
        identical over matched residues along its path (0.0 with none
        matched), bit for bit ``global_align(x, y).identity()``.  The
        tile is one :func:`repro.align.dp.identity_code_pairs` call;
        a residue code outside the matrix is an ``IndexError`` before
        any pair is aligned."""
        from repro.align.dp import identity_code_pairs

        codes, offsets = self.prepare(seqs) if state is None else state
        counts = identity_code_pairs(
            self.matrix.matrix, codes, offsets, ii, jj,
            self.gaps.open, self.gaps.extend, self.gaps.terminal_factor,
        )
        matched, identical = counts[:, 0], counts[:, 1]
        return np.divide(
            identical, matched, out=np.zeros(len(counts)), where=matched > 0
        )

    def pair_distances(
        self,
        seqs: TSequence[Sequence],
        ii: np.ndarray,
        jj: np.ndarray,
        state: Any = None,
    ) -> np.ndarray:
        return identity_to_distance(
            self.pair_identities(seqs, ii, jj, state), self.transform
        )


# ---------------------------------------------------------------------------
# Selection by name.


@dataclass(frozen=True)
class _EstimatorEntry:
    name: str
    factory: Callable[..., DistanceEstimator]
    description: str


#: The estimators by name, a fixed table.
_ESTIMATORS: Dict[str, _EstimatorEntry] = {
    entry.name: entry
    for entry in (
        _EstimatorEntry(
            "ktuple",
            KtupleDistance,
            "Edgar k-mer distance 1 - r_ij over a compressed alphabet; "
            "alignment-free, fastest (MUSCLE stage 1 / MAFFT / CLUSTALW "
            "quick)",
        ),
        _EstimatorEntry(
            "kmer-fraction",
            KmerFractionDistance,
            "calibrated fractional-identity estimate from the k-mer match "
            "fraction (id ~= 0.02 + 0.95 F); alignment-free, "
            "kimura-composable",
        ),
        _EstimatorEntry(
            "full-dp",
            FullDpDistance,
            "1 - identity of the optimal global (Gotoh) alignment; O(L^2) "
            "per pair, most accurate (CLUSTALW accurate mode) -- "
            "parallelise it",
        ),
    )
}


def available_estimators() -> List[str]:
    """Sorted names of the distance estimators."""
    return sorted(_ESTIMATORS)


def estimator_info() -> Dict[str, str]:
    """``{name: one-line speed/accuracy description}``, name-sorted."""
    return {
        name: _ESTIMATORS[name].description for name in sorted(_ESTIMATORS)
    }


def get_estimator(
    estimator: Union[str, DistanceEstimator, None] = None, **kwargs: Any
) -> DistanceEstimator:
    """Resolve an estimator selection to an instance.

    ``None`` means :data:`DEFAULT_ESTIMATOR`; a name resolves through
    the fixed table (``kwargs`` feed the constructor); a
    :class:`DistanceEstimator` instance passes through (``kwargs`` must
    then be empty).
    """
    if isinstance(estimator, DistanceEstimator):
        if kwargs:
            raise ValueError(
                "cannot combine an estimator instance with constructor "
                f"kwargs {sorted(kwargs)}"
            )
        return estimator
    if estimator is None:
        estimator = DEFAULT_ESTIMATOR
    try:
        entry = _ESTIMATORS[str(estimator).lower()]
    except KeyError:
        raise KeyError(
            f"unknown distance estimator {estimator!r}; "
            f"available: {available_estimators()}"
        ) from None
    try:
        return entry.factory(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"bad options for distance estimator {entry.name!r}: {exc}"
        ) from None
