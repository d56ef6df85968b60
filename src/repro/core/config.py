"""Configuration of a Sample-Align-D run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.align.profile_align import ProfileAlignConfig
from repro.kmer.rank import RankConfig

__all__ = ["SampleAlignDConfig"]


@dataclass(frozen=True)
class SampleAlignDConfig:
    """Knobs of the distributed pipeline.

    Attributes
    ----------
    rank_config:
        k-mer rank estimator parameters (k, alphabet, transform).
    samples_per_proc:
        ``k`` of the algorithm -- sample sequences contributed by each
        rank to the global sample.  ``None`` uses ``p - 1`` (the paper's
        default choice, tying the sample size to the processor count).
    local_aligner:
        Registry name of the sequential MSA system run on each bucket
        (paper: "any sequential multiple alignment system"; MUSCLE there).
    local_aligner_kwargs:
        Extra keyword arguments for the local aligner factory.  A
        ``distance`` stage spec in here (or in ``root_aligner_kwargs``)
        may not carry a ``backend`` / ``workers`` choice: the ranks
        place the work.  A ``tree`` stage spec there is validated too;
        it has no placement (each bucket's merge walk runs serially on
        its rank).
    root_aligner:
        Aligner used at the root on the ``p`` local ancestors (defaults to
        the local aligner).
    scoring:
        Profile-profile scoring used by the ancestor tweak step.
    ancestor_min_occupancy:
        Occupancy threshold of consensus (ancestor) extraction.
    tweak:
        Run the global-ancestor constrained realignment (step 9).  Off
        switches the pipeline to pure independent bucket alignments
        (the ablation the paper's Fig. 2 motivates against).
    sampling:
        Pivot sampling strategy: ``"regular"`` (the paper's choice, with
        the 2N/p occupancy guarantee) or ``"random"`` (the Huang-&-Chow
        style alternative the paper argues against; ablation only).
    globalize_rank:
        Re-rank against the gathered k*p sample (section 2.3.1).  Off
        keeps the purely local rank estimate -- the paper's earlier
        Sample-Align [34], which misbuckets diverse inputs (ablation).
    sampling_seed:
        Seed of the ``"random"`` sampling strategy.
    ancestor_reduction:
        How the global ancestor is computed from the local ones:
        ``"root"`` gathers all p ancestors and aligns them at the root
        with the sequential MSA system (the paper's step 8, O(p^2 L) at
        the root), ``"tree"`` folds them pairwise up a binomial reduction
        tree (profile-align two ancestors, take the consensus; O(log p)
        rounds, root cost O(L^2) -- a scalability extension).
    refine_local_rounds:
        Rounds of rank-local iterative refinement of each bucket
        alignment before the tweak (the parallelised half of the paper's
        section-5 future work; 0 = off).
    post_refine_rounds:
        Rounds of root-side bucket-level restricted partitioning after
        the glue (the other half; 0 = off).

    Where the ranks run is not a knob of the pipeline: it is the
    ``backend`` of :func:`~repro.core.driver.sample_align_d`, spelled
    ``engine_kwargs={"backend": ...}`` on a request.
    """

    rank_config: RankConfig = field(default_factory=RankConfig)
    samples_per_proc: Optional[int] = None
    local_aligner: str = "muscle-p"
    local_aligner_kwargs: Dict[str, Any] = field(default_factory=dict)
    root_aligner: Optional[str] = None
    root_aligner_kwargs: Dict[str, Any] = field(default_factory=dict)
    scoring: ProfileAlignConfig = field(default_factory=ProfileAlignConfig)
    ancestor_min_occupancy: float = 0.5
    tweak: bool = True
    sampling: str = "regular"
    globalize_rank: bool = True
    sampling_seed: int = 0
    ancestor_reduction: str = "root"
    refine_local_rounds: int = 0
    post_refine_rounds: int = 0

    def __post_init__(self) -> None:
        if self.samples_per_proc is not None and self.samples_per_proc < 1:
            raise ValueError("samples_per_proc must be >= 1 (or None)")
        if not 0.0 <= self.ancestor_min_occupancy <= 1.0:
            raise ValueError("ancestor_min_occupancy must lie in [0, 1]")
        if self.sampling not in ("regular", "random"):
            raise ValueError("sampling must be 'regular' or 'random'")
        if self.refine_local_rounds < 0 or self.post_refine_rounds < 0:
            raise ValueError("refinement rounds must be non-negative")
        if self.ancestor_reduction not in ("root", "tree"):
            raise ValueError("ancestor_reduction must be 'root' or 'tree'")
        # Fail fast on a bad aligner name here, not deep inside the SPMD run.
        from repro.msa.registry import available_aligners

        names = available_aligners()
        for role, name in (
            ("local_aligner", self.local_aligner),
            ("root_aligner", self.root_aligner),
        ):
            if name is not None and name.lower() not in names:
                raise ValueError(
                    f"{role} {name!r} is not a registered sequential "
                    f"aligner; available: {names}"
                )
        # Likewise for a bad stage spec, and for a distance stage that
        # places itself on a second execution backend: the ranks may not
        # nest one.
        from repro.distance.config import DistanceConfig
        from repro.engine.registry import engine_stages
        from repro.tree import TreeConfig

        for name, kwargs in (
            (self.local_aligner, self.local_aligner_kwargs),
            (self.root_aligner or self.local_aligner, self.root_aligner_kwargs),
        ):
            stages = engine_stages(name) & kwargs.keys()
            if "tree" in stages:
                TreeConfig.coerce(kwargs["tree"])
            if "distance" in stages:
                DistanceConfig.coerce(kwargs["distance"]).require_unplaced(
                    "sample-align-d"
                )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`.

        Nested configs serialize through their own ``to_dict`` (alphabets
        and matrices by registry name), so the round-trip is exact for any
        bundled alphabet/matrix.
        """
        return {
            "rank_config": self.rank_config.to_dict(),
            "samples_per_proc": self.samples_per_proc,
            "local_aligner": self.local_aligner,
            "local_aligner_kwargs": dict(self.local_aligner_kwargs),
            "root_aligner": self.root_aligner,
            "root_aligner_kwargs": dict(self.root_aligner_kwargs),
            "scoring": self.scoring.to_dict(),
            "ancestor_min_occupancy": self.ancestor_min_occupancy,
            "tweak": self.tweak,
            "sampling": self.sampling,
            "globalize_rank": self.globalize_rank,
            "sampling_seed": self.sampling_seed,
            "ancestor_reduction": self.ancestor_reduction,
            "refine_local_rounds": self.refine_local_rounds,
            "post_refine_rounds": self.post_refine_rounds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SampleAlignDConfig":
        from repro.align.profile_align import ProfileAlignConfig as PAC
        from repro.kmer.rank import RankConfig as RC

        kwargs = dict(data)
        if "rank_config" in kwargs:
            kwargs["rank_config"] = RC.from_dict(kwargs["rank_config"])
        if "scoring" in kwargs:
            kwargs["scoring"] = PAC.from_dict(kwargs["scoring"])
        return cls(**kwargs)

    def make_local_aligner(self):
        from repro.msa.registry import get_aligner

        return get_aligner(self.local_aligner, **self.local_aligner_kwargs)

    def make_root_aligner(self):
        from repro.msa.registry import get_aligner

        name = self.root_aligner or self.local_aligner
        kwargs = (
            self.root_aligner_kwargs
            if self.root_aligner is not None
            else self.local_aligner_kwargs
        )
        return get_aligner(name, **kwargs)
