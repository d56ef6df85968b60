"""The k-mer rank: the scalar similarity index driving the decomposition.

Paper, section 2:

    ``D_i = (1/N) * sum_j r_ij``  (average k-mer match fraction of ``x_i``
    against a reference set), and the *k-mer rank* ``R_i = log(0.1 + D_i)``.

Reconstruction note.  Taken literally, ``log(0.1 + D_i)`` with ``D_i`` in
``[0, 1]`` lies in ``[-2.30, 0.095]``, which cannot produce the rank values
the paper reports (Table 1: min 0.0, max ~1.46, averages 0.72/1.11).  Those
values are matched exactly by ``R_i = max(0, -ln(0.1 + D_i))``: divergent
sequences (small average match fraction) get large ranks approaching
``-ln(0.1) = 2.30``, and near-duplicates approach 0.  We therefore default
to the ``neglog`` transform (clipped at 0) and keep the literal ``log``
form available for the ablation bench.

Two estimators are provided, mirroring section 2.3.1:

- :func:`centralized_rank` -- ``D_i`` over *all* N sequences (the reference
  the paper compares against; O(N^2) work).
- :func:`globalized_rank`  -- ``D_i`` over a small sample of ``k*p``
  sequences gathered from all processors (the scalable estimator the
  algorithm actually uses; O(N * k * p) work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence as TSequence

import numpy as np

from repro.kmer.counting import KmerCounter, kmer_match_fraction_matrix
from repro.seq.alphabet import Alphabet, DAYHOFF6
from repro.seq.sequence import Sequence

__all__ = [
    "RankConfig",
    "rank_from_fractions",
    "centralized_rank",
    "globalized_rank",
]


@dataclass(frozen=True)
class RankConfig:
    """Parameters of the k-mer rank estimator.

    Attributes
    ----------
    k:
        k-mer length.
    alphabet:
        Counting alphabet (compressed by default).
    offset:
        The ``0.1`` inside the log of the paper's formula.
    transform:
        ``"neglog"`` (default; matches the paper's reported rank values) or
        ``"log"`` (the literal formula) -- see the module docstring.
    include_self:
        Whether a sequence present in the reference set contributes its own
        (perfect) match fraction to its average.  The paper's ``D_i``
        averages over *all* sequences including ``x_i`` itself (divide by
        N); keep True for fidelity.
    """

    k: int = 4
    alphabet: Alphabet = field(default=DAYHOFF6)
    offset: float = 0.1
    transform: str = "neglog"
    include_self: bool = True

    def __post_init__(self) -> None:
        if self.offset <= 0:
            raise ValueError("offset must be positive")
        if self.transform not in ("neglog", "log"):
            raise ValueError("transform must be 'neglog' or 'log'")

    def counter(self) -> KmerCounter:
        return KmerCounter(k=self.k, alphabet=self.alphabet)

    def to_dict(self) -> dict:
        """JSON-able form (alphabet by name); inverse of :meth:`from_dict`."""
        return {
            "k": self.k,
            "alphabet": self.alphabet.name,
            "offset": self.offset,
            "transform": self.transform,
            "include_self": self.include_self,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankConfig":
        from repro.seq.alphabet import get_alphabet

        kwargs = dict(data)
        kwargs["alphabet"] = get_alphabet(kwargs["alphabet"])
        return cls(**kwargs)


def rank_from_fractions(
    mean_fraction: np.ndarray, config: RankConfig | None = None
) -> np.ndarray:
    """Apply the rank transform ``R_i = f(0.1 + D_i)`` to mean fractions."""
    config = config or RankConfig()
    d = np.asarray(mean_fraction, dtype=np.float64)
    if d.size and (d.min() < -1e-9 or d.max() > 1.0 + 1e-9):
        raise ValueError("mean match fractions must lie in [0, 1]")
    shifted = config.offset + np.clip(d, 0.0, 1.0)
    if config.transform == "neglog":
        return np.maximum(-np.log(shifted), 0.0)
    return np.log(shifted)


def _mean_fraction(
    frac: np.ndarray, self_indices: np.ndarray | None, include_self: bool
) -> np.ndarray:
    """Row means of a match-fraction matrix, optionally excluding self."""
    n_ref = frac.shape[1]
    total = frac.sum(axis=1)
    if include_self or self_indices is None:
        return total / max(n_ref, 1)
    # Remove each row's own column before averaging.
    rows = np.arange(frac.shape[0])
    own = np.zeros(frac.shape[0])
    valid = self_indices >= 0
    own[valid] = frac[rows[valid], self_indices[valid]]
    denom = np.where(valid, n_ref - 1, n_ref)
    return (total - own) / np.maximum(denom, 1)


def centralized_rank(
    seqs: TSequence[Sequence], config: RankConfig | None = None
) -> np.ndarray:
    """Rank of every sequence against the *full* set (O(N^2) reference).

    This is the "central system" of the paper's Fig. 1 / Table 1: the
    quantity the globalized estimator is validated against.
    """
    config = config or RankConfig()
    seqs = list(seqs)
    frac = kmer_match_fraction_matrix(seqs, None, config.counter())
    self_idx = np.arange(len(seqs))
    d = _mean_fraction(frac, self_idx, config.include_self)
    return rank_from_fractions(d, config)


def globalized_rank(
    seqs: TSequence[Sequence],
    sample: TSequence[Sequence],
    config: RankConfig | None = None,
) -> np.ndarray:
    """Rank of every sequence against a representative *sample*.

    ``sample`` is the gathered ``k*p`` sample of section 2.3.1; each
    sequence's ``D_i`` is its average match fraction against the sample
    only, making the estimator's cost independent of N per sequence.
    """
    config = config or RankConfig()
    seqs = list(seqs)
    sample = list(sample)
    if not sample:
        raise ValueError("sample must be non-empty")
    frac = kmer_match_fraction_matrix(seqs, sample, config.counter())
    # Match sequences to their own position in the sample (if present) so
    # include_self=False can exclude the self column.
    sample_pos = {s.id: j for j, s in enumerate(sample)}
    self_idx = np.array([sample_pos.get(s.id, -1) for s in seqs], dtype=np.int64)
    d = _mean_fraction(frac, self_idx, config.include_self)
    return rank_from_fractions(d, config)
