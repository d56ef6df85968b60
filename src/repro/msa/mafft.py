"""MAFFT-like aligner (Katoh et al. 2002): FFT anchoring + iterative NSI.

Two modes, matching the scripts the paper cites:

- ``nwnsi``  -- 6-mer distances, NJ guide tree, full-DP progressive
  alignment, tree-dependent iterative refinement ("NW-NS-i").
- ``fftnsi`` -- identical pipeline, but each profile-profile alignment is
  *anchored*: amino-acid property signals (volatility and polarity) of the
  two profiles are cross-correlated with an FFT, high-correlation diagonal
  segments become forced anchors, and the DP runs only in the rectangles
  between consecutive anchors ("FFT-NS-i").  This reproduces MAFFT's
  signature time/accuracy trade (slightly lower Q, large speedups on long
  profiles).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Sequence as TSequence, Tuple

import numpy as np

from repro.align.dp import affine_align
from repro.align.profile import Profile
from repro.align.profile_align import ProfileAlignConfig, profile_path
from repro.align.progressive import progressive_align
from repro.align.refine import refine_alignment
from repro.msa.base import GuideTreeStages, SequentialMsaAligner
from repro.seq.alignment import Alignment
from repro.seq.alphabet import PROTEIN
from repro.seq.sequence import Sequence

__all__ = ["MafftLike", "fft_anchor_segments"]

# Amino-acid property scales (Grantham-style polarity; Katoh's volatility
# stand-in uses normalised hydrophobicity).  Indexed by PROTEIN code order
# "ARNDCQEGHILKMFPSTWYVX"; X gets the neutral mean.
_POLARITY = np.array(
    [8.1, 10.5, 11.6, 13.0, 5.5, 10.5, 12.3, 9.0, 10.4, 5.2, 4.9, 11.3,
     5.7, 5.2, 8.0, 9.2, 8.6, 5.4, 6.2, 5.9, 8.3]
)
_VOLUME = np.array(
    [31.0, 124.0, 56.0, 54.0, 55.0, 85.0, 83.0, 3.0, 96.0, 111.0, 111.0,
     119.0, 105.0, 132.0, 32.5, 32.0, 61.0, 170.0, 136.0, 84.0, 88.0]
)


def _normalised_property_signals(profile: Profile) -> np.ndarray:
    """(2, L) standardised property signals of a profile."""
    freq = profile.frequencies  # (L, A); A == 21 for proteins
    signals = []
    for prop in (_POLARITY[: freq.shape[1]], _VOLUME[: freq.shape[1]]):
        centred = prop - prop.mean()
        scale = centred.std() or 1.0
        signals.append(freq @ (centred / scale))
    return np.vstack(signals)


def _fft_correlation(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Cross-correlation of two multi-channel signals via FFT.

    Returns ``corr[d]`` for offsets ``d = j - i`` in ``[-(m-1), n-1]``
    (index ``d + m - 1``).
    """
    m, n = sx.shape[1], sy.shape[1]
    size = 1 << int(np.ceil(np.log2(m + n)))
    fx = np.fft.rfft(sx[:, ::-1], size, axis=1)
    fy = np.fft.rfft(sy, size, axis=1)
    corr = np.fft.irfft(fx * fy, size, axis=1).sum(axis=0)
    return corr[: m + n - 1]


def fft_anchor_segments(
    px: Profile,
    py: Profile,
    config: ProfileAlignConfig,
    n_offsets: int = 12,
    min_run: int = 8,
    score_floor: float = 0.0,
) -> List[Tuple[int, int, int]]:
    """Anchor segments ``(i_start, j_start, length)`` from FFT correlation.

    Candidate diagonal offsets are the strongest peaks of the property
    cross-correlation; along each candidate diagonal the exact PSP column
    scores are computed (cheap: one diagonal, not the full matrix) and
    maximal runs of better-than-``score_floor`` windows of at least
    ``min_run`` columns become anchors.  A consistency chain (strictly
    increasing in both coordinates, selected by weighted LIS) is returned.
    """
    m, n = px.n_columns, py.n_columns
    if m < min_run or n < min_run:
        return []
    corr = _fft_correlation(
        _normalised_property_signals(px), _normalised_property_signals(py)
    )
    order = np.argsort(corr)[::-1]
    offsets = []
    for idx in order[: 4 * n_offsets]:
        d = int(idx) - (m - 1)
        if all(abs(d - o) >= min_run // 2 for o in offsets):
            offsets.append(d)
        if len(offsets) >= n_offsets:
            break

    M = config.matrix.residue_part
    fxM = px.frequencies @ M
    fy = py.frequencies
    segments: List[Tuple[int, int, int, float]] = []
    for d in offsets:
        i0, i1 = max(0, -d), min(m, n - d)
        if i1 - i0 < min_run:
            continue
        diag = np.einsum("ia,ia->i", fxM[i0:i1], fy[i0 + d : i1 + d])
        good = diag > score_floor
        padded = np.concatenate(([False], good, [False]))
        delta = np.diff(padded.astype(np.int8))
        starts = np.flatnonzero(delta == 1)
        ends = np.flatnonzero(delta == -1)
        for s, e in zip(starts, ends):
            if e - s >= min_run:
                weight = float(diag[s:e].sum())
                segments.append((i0 + int(s), i0 + int(s) + d, int(e - s), weight))

    if not segments:
        return []
    # Weighted LIS over segments: chain must be strictly increasing in both
    # coordinates with no overlap.
    segments.sort(key=lambda t: (t[0], t[1]))
    k = len(segments)
    best = [seg[3] for seg in segments]
    prev = [-1] * k
    for b in range(k):
        ib, jb, _lb, wb = segments[b]
        for a in range(b):
            ia, ja, la, _wa = segments[a]
            if ia + la <= ib and ja + la <= jb:
                if best[a] + wb > best[b]:
                    best[b] = best[a] + wb
                    prev[b] = a
    end = int(np.argmax(best))
    chain: List[Tuple[int, int, int]] = []
    while end >= 0:
        i, j, length, _w = segments[end]
        chain.append((i, j, length))
        end = prev[end]
    return chain[::-1]


def anchored_path(
    px: Profile, py: Profile, config: ProfileAlignConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Profile-profile alignment restricted to rectangles between
    anchors: the path ``(x_map, y_map)``, for
    :func:`~repro.align.profile.merge_profiles` or a progressive walk's
    ``merge_fn``.

    Falls back to the exact full DP when no anchors are found.
    """
    anchors = fft_anchor_segments(px, py, config)
    if not anchors:
        res = profile_path(px, py, config)
        return res.x_map, res.y_map

    M = config.matrix.residue_part
    open_x, ext_x = config.gap_vectors(px)
    open_y, ext_y = config.gap_vectors(py)
    open_x = np.broadcast_to(np.asarray(open_x, float), (px.n_columns,))
    ext_x = np.broadcast_to(np.asarray(ext_x, float), (px.n_columns,))
    open_y = np.broadcast_to(np.asarray(open_y, float), (py.n_columns,))
    ext_y = np.broadcast_to(np.asarray(ext_y, float), (py.n_columns,))

    x_parts: List[np.ndarray] = []
    y_parts: List[np.ndarray] = []

    def dp_block(ax: int, bx: int, ay: int, by: int) -> None:
        """Align px[ax:bx] against py[ay:by] with the exact DP."""
        if bx <= ax and by <= ay:
            return
        S = px.frequencies[ax:bx] @ M @ py.frequencies[ay:by].T
        res = affine_align(
            S,
            open_x[ax:bx],
            ext_x[ax:bx],
            gap_open_y=open_y[ay:by],
            gap_extend_y=ext_y[ay:by],
            terminal_factor=config.gaps.terminal_factor,
        )
        xm = np.where(res.x_map >= 0, res.x_map + ax, -1)
        ym = np.where(res.y_map >= 0, res.y_map + ay, -1)
        x_parts.append(xm)
        y_parts.append(ym)

    cx, cy = 0, 0
    for i, j, length in anchors:
        dp_block(cx, i, cy, j)
        idx = np.arange(length)
        x_parts.append(i + idx)
        y_parts.append(j + idx)
        cx, cy = i + length, j + length
    dp_block(cx, px.n_columns, cy, py.n_columns)

    x_map = np.concatenate(x_parts) if x_parts else np.zeros(0, dtype=np.int64)
    y_map = np.concatenate(y_parts) if y_parts else np.zeros(0, dtype=np.int64)
    return x_map, y_map


@dataclass
class MafftLike(GuideTreeStages, SequentialMsaAligner):
    """MAFFT-architecture aligner.

    Parameters
    ----------
    mode:
        ``"nwnsi"`` (exact DP) or ``"fftnsi"`` (FFT-anchored DP).
    scoring:
        Profile scoring configuration.
    kmer_k:
        k of the distance stage (MAFFT uses 6-mers).
    iterations:
        Rounds of tree-dependent iterative refinement (the "i" in NSI).
    seed:
        Refinement visit-order seed.
    distance:
        Distance stage (see :class:`~repro.msa.base.GuideTreeStages`;
        default: MAFFT's 6-mer ``ktuple`` distance).
    tree:
        Guide-tree stage (default: MAFFT's neighbour joining).
    """

    mode: str = "nwnsi"
    scoring: ProfileAlignConfig = field(default_factory=ProfileAlignConfig)
    kmer_k: int = 6
    iterations: int = 2
    seed: int | None = 0
    distance: object = None
    tree: object = None

    default_builder = "nj"

    def __post_init__(self) -> None:
        if self.mode not in ("nwnsi", "fftnsi"):
            raise ValueError("mode must be 'nwnsi' or 'fftnsi'")
        self.name = f"mafft-{self.mode}"
        super().__post_init__()

    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        sset = self._validate_input(seqs)
        if len(sset) == 1:
            return Alignment.from_single(sset[0])
        ids = sset.ids
        builder = self._tree_builder()
        tree = builder.build(self._distances(list(sset)), ids)
        merge_fn = None
        if self.mode == "fftnsi":
            merge_fn = functools.partial(anchored_path, config=self.scoring)
        aln = progressive_align(list(sset), tree, self.scoring,
                                merge_fn=merge_fn)
        if self.iterations > 0 and len(sset) > 2:
            rng = None if self.seed is None else np.random.default_rng(self.seed)
            aln = refine_alignment(
                aln, tree, self.scoring, max_rounds=self.iterations, rng=rng
            ).alignment
        return aln.select_rows(ids)
