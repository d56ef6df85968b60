"""Common interface of the sequential MSA systems, and the one
distance -> tree -> merge pipeline the guide-tree baselines share."""

from __future__ import annotations

import abc
from typing import Sequence as TSequence

from repro.distance import (
    KtupleDistance,
    all_pairs,
    resolve_distance_stage,
    scoring_estimator_defaults,
)
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence, SequenceSet
from repro.tree import get_builder, resolve_tree_stage

__all__ = ["GuideTreeStages", "SequentialMsaAligner"]


class SequentialMsaAligner(abc.ABC):
    """A sequential multiple-sequence aligner.

    Implementations must be deterministic for a fixed configuration and
    must return an alignment whose rows, once ungapped, reproduce the
    input sequences exactly and in input order.
    """

    #: Short registry name, overridden by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        """Align ``seqs`` into a single MSA (rows in input order)."""

    def __call__(self, seqs: TSequence[Sequence]) -> Alignment:
        return self.align(seqs)

    def _validate_input(self, seqs: TSequence[Sequence]) -> SequenceSet:
        sset = seqs if isinstance(seqs, SequenceSet) else SequenceSet(seqs)
        if len(sset) == 0:
            raise ValueError(f"{self.name}: no sequences to align")
        alphabets = {s.alphabet for s in sset}
        if len(alphabets) != 1:
            raise ValueError(f"{self.name}: sequences mix alphabets")
        return sset

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GuideTreeStages:
    """The configurable stages of a guide-tree aligner (mixin).

    A guide-tree baseline has exactly two pipeline fields, ``distance``
    and ``tree``: each ``None`` (the aligner's historical stage, run
    serially), a registry name, a :class:`~repro.distance.DistanceConfig`
    / :class:`~repro.tree.TreeConfig` (or its dict form) saying what
    runs (and, for distances, where: ``backend``, ``workers``, ``out``,
    ``store_dir``), or a ready estimator / builder instance.  Execution
    backends produce byte-identical output; the progressive merge runs
    serially in the calling process.

    The host dataclass also provides ``scoring`` and ``kmer_k`` (named
    estimators pick them up as defaults) and names its historical
    stages through :meth:`_default_estimator` / ``default_builder``.
    """

    #: Registry name of the historical tree builder; ``None`` when the
    #: aligner derives its own merge order unless ``tree`` names one.
    default_builder = "upgma"

    def __post_init__(self) -> None:
        # Fail fast on bad stage specs.
        self._distance_stage()
        self._tree_builder()

    def _default_estimator(self):
        return KtupleDistance(k=self.kmer_k)

    def _distance_stage(self):
        """``(estimator, DistanceConfig)`` of the ``distance`` field."""
        return resolve_distance_stage(
            self.distance,
            default=self._default_estimator,
            estimator_defaults=scoring_estimator_defaults(
                self.scoring.matrix, self.scoring.gaps, self.kmer_k
            ),
        )

    def _tree_builder(self):
        """The builder of the ``tree`` field (``None``: the aligner
        derives its own merge order)."""
        name = self.default_builder
        return resolve_tree_stage(
            self.tree, default=lambda: get_builder(name) if name else None
        )[0]

    def _distances(self, seqs, comm=None):
        """Run the all-pairs stage where the ``distance`` spec places it
        (condensed by default: the tree builders read it natively, so
        the dense matrix is never materialised)."""
        est, cfg = self._distance_stage()
        return all_pairs(
            seqs, est, backend=cfg.backend, workers=cfg.workers, comm=comm,
            out=cfg.out or "condensed", store_dir=cfg.store_dir,
        )
