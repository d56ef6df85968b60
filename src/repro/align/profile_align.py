"""Profile-profile alignment (PSP scoring with occupancy-scaled gaps).

The column-pair score is the *profile sum of pairs* (PSP) function MUSCLE
popularised::

    S(i, j) = f_i^T  M  g_j

where ``f_i``/``g_j`` are the residue-frequency vectors of the two columns
(normalised by row count, so gappy columns carry less weight) and ``M`` is
the substitution matrix.  The full score matrix is one matmul:
``Fx @ M @ Fy.T``.  Gap penalties are scaled per position by column
occupancy (skipping an already-gappy column is cheap), which is what makes
progressive alignment respect previously introduced gaps ("once a gap,
always a gap" softened into a cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.align.dp import AffineDPResult, affine_align, affine_score, kernel
from repro.align.profile import Clade, Profile, merge_profiles
from repro.obs.tracing import span
from repro.seq.matrices import BLOSUM62, GapPenalties, SubstitutionMatrix

__all__ = [
    "ProfileAlignConfig",
    "profile_score_matrix",
    "align_profiles",
    "profile_path",
    "score_profiles",
]


@dataclass(frozen=True)
class ProfileAlignConfig:
    """Scoring configuration shared by every profile alignment in a run.

    Attributes
    ----------
    matrix:
        Substitution matrix (defines the alphabet).
    gaps:
        Base affine gap penalties.
    occupancy_scaled_gaps:
        Scale gap open/extend per position by column occupancy.
    min_gap_scale:
        Floor for the occupancy scaling factor, keeping penalties positive
        even for almost-all-gap columns.
    clustalw_gap_modifiers:
        Additionally apply CLUSTALW's residue-specific and
        hydrophilic-run open-penalty modification
        (:mod:`repro.align.gapmod`).
    """

    matrix: SubstitutionMatrix = field(default=BLOSUM62)
    gaps: GapPenalties = field(default_factory=GapPenalties)
    occupancy_scaled_gaps: bool = True
    min_gap_scale: float = 0.1
    clustalw_gap_modifiers: bool = False

    def gap_vectors(self, profile: Profile):
        """Per-position (open, extend) penalty vectors for gaps consuming
        this profile's columns."""
        if not self.occupancy_scaled_gaps and not self.clustalw_gap_modifiers:
            return self.gaps.open, self.gaps.extend
        scale = (
            np.maximum(profile.occupancy, self.min_gap_scale)
            if self.occupancy_scaled_gaps
            else np.ones(profile.n_columns)
        )
        open_scale = scale
        if self.clustalw_gap_modifiers:
            from repro.align.gapmod import position_specific_open_factors

            open_scale = scale * position_specific_open_factors(profile)
        return self.gaps.open * open_scale, self.gaps.extend * scale

    def to_dict(self) -> dict:
        """JSON-able form (matrix by registry name); inverse of
        :meth:`from_dict`."""
        return {
            "matrix": self.matrix.name,
            "gaps": self.gaps.to_dict(),
            "occupancy_scaled_gaps": self.occupancy_scaled_gaps,
            "min_gap_scale": self.min_gap_scale,
            "clustalw_gap_modifiers": self.clustalw_gap_modifiers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileAlignConfig":
        from repro.seq.matrices import get_matrix

        kwargs = dict(data)
        kwargs["matrix"] = get_matrix(kwargs["matrix"])
        kwargs["gaps"] = GapPenalties.from_dict(kwargs["gaps"])
        return cls(**kwargs)


def _one_hot_codes(profile: Profile):
    """The residue codes of an exactly one-hot profile, else ``None``.

    A leaf profile (one ungapped row, unreweighted) has one-hot
    frequency rows, for which the PSP matmuls reduce to row/column
    gathers of the substitution matrix: every product against a 0.0
    vanishes and the single 1.0 selects the stored entry, so the gather
    result equals the matmul result.  The check is exact (``== 1.0`` and
    an exact row-sum count), so reweighted or merged profiles fall back
    to the matmul path.  The codes are read from the counts, so a
    profile built from counts alone qualifies too; a leaf
    :class:`~repro.align.profile.Clade` that was not reweighted is its
    one ungapped row of codes.
    """
    if profile.n_sequences != 1:
        return None
    if isinstance(profile, Clade) and not profile.weighted:
        return None if profile.counts[:, -1].any() else profile.codes[0]
    counts = profile.counts
    m = counts.shape[0]
    freq = profile.frequencies
    if m == 0 or freq.shape[0] != m:
        return None
    if counts[:, -1].any():  # a gap in the one row
        return None
    codes = counts.argmax(axis=1)  # the gap column is all zero here
    if freq.sum() != float(m):
        return None
    if not (freq[np.arange(m), codes] == 1.0).all():
        return None
    return codes


def _left_product(profile: Profile, M: np.ndarray) -> np.ndarray:
    """``profile.frequencies @ M``, cached on the profile.

    The left factor of the PSP matmul depends only on one profile, so a
    caller aligning the same profile against several others (the
    center-star fold-in, refinement) should pay for it once.  The cache
    is keyed by object identity of both the frequency array and ``M``:
    every code path that changes a profile's frequencies *assigns a new
    array* (the reweighting paths included), which invalidates the entry
    for free.  Values are unchanged -- ``Fx @ M @ Fy.T`` already
    evaluates left to right, so caching the left product reuses the
    exact same intermediate.
    """
    cached = getattr(profile, "_psp_left", None)
    if (
        cached is not None
        and cached[0] is M
        and cached[1] is profile.frequencies
    ):
        return cached[2]
    codes = _one_hot_codes(profile)
    if codes is not None:
        left = M[codes]  # == frequencies @ M for one-hot rows, exactly
    else:
        left = profile.frequencies @ M
    profile._psp_left = (M, profile.frequencies, left)
    return left


def profile_score_matrix(
    px: Profile, py: Profile, config: ProfileAlignConfig
) -> np.ndarray:
    """Dense PSP column-pair score matrix, shape ``(px.n_cols, py.n_cols)``."""
    if px.alphabet != config.matrix.alphabet or py.alphabet != config.matrix.alphabet:
        raise ValueError("profile alphabets must match the matrix alphabet")
    M = config.matrix.residue_part
    left = _left_product(px, M)
    codes_y = _one_hot_codes(py)
    if codes_y is not None:
        # One-hot right factor: the matmul is exactly a column gather.
        # ``take`` writes a C-contiguous result, so the DP kernels'
        # ascontiguousarray pass-through stays a no-op.
        return left.take(codes_y, axis=1)
    return left @ py.frequencies.T


def profile_path(
    px: Profile, py: Profile, config: ProfileAlignConfig
) -> AffineDPResult:
    """The optimal DP path between two profiles, without merging them.

    The first half of :func:`align_profiles`, for callers that decide
    from the path whether the merge is worth building (iterative
    refinement); profiles from :meth:`Profile.from_counts` are enough.
    """
    with span(
        "dp.profile_align",
        x_cols=px.n_columns,
        y_cols=py.n_columns,
        kernel=kernel().name,
    ):
        S = profile_score_matrix(px, py, config)
        open_x, ext_x = config.gap_vectors(px)
        open_y, ext_y = config.gap_vectors(py)
        return affine_align(
            S,
            open_x,
            ext_x,
            gap_open_y=open_y,
            gap_extend_y=ext_y,
            terminal_factor=config.gaps.terminal_factor,
        )


def align_profiles(
    px: Profile, py: Profile, config: ProfileAlignConfig | None = None
) -> tuple[Profile, AffineDPResult]:
    """Optimally align two profiles; returns the merged profile + DP result."""
    res = profile_path(px, py, config or ProfileAlignConfig())
    return merge_profiles(px, py, res.x_map, res.y_map), res


def score_profiles(
    px: Profile, py: Profile, config: ProfileAlignConfig | None = None
) -> float:
    """Optimal profile-profile alignment score only (linear memory)."""
    config = config or ProfileAlignConfig()
    S = profile_score_matrix(px, py, config)
    open_x, ext_x = config.gap_vectors(px)
    open_y, ext_y = config.gap_vectors(py)
    return affine_score(
        S,
        open_x,
        ext_x,
        gap_open_y=open_y,
        gap_extend_y=ext_y,
        terminal_factor=config.gaps.terminal_factor,
    )
