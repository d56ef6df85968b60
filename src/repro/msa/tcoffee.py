"""T-Coffee-like consistency-based aligner (Notredame et al. 2000).

The characteristic pipeline:

1. **Primary library** -- for every sequence pair, residue pairs from the
   optimal global alignment (and optionally the best local alignment),
   weighted by the pair's percent identity.
2. **Library extension** -- triplet consistency: a residue pair (a in i,
   b in j) gains ``min(w(i,k), w(k,j))`` for every third sequence k whose
   alignments route a onto b, making pairwise evidence globally coherent.
3. **Progressive alignment scored by the extended library** instead of a
   substitution matrix (gap penalties ~0: the library already encodes
   gap placement evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence as TSequence, Tuple

import numpy as np

from repro.align.dp import affine_align
from repro.align.pairwise import global_align, local_align
from repro.align.profile import Profile, merge_profiles
from repro.msa.base import SequentialMsaAligner
from repro.seq.alignment import Alignment
from repro.seq.matrices import BLOSUM62, GapPenalties, SubstitutionMatrix
from repro.seq.sequence import Sequence
from repro.tree.builders import NeighborJoiningBuilder

__all__ = ["TCoffeeLike"]

Coo = Tuple[np.ndarray, np.ndarray, np.ndarray]  # (a_idx, b_idx, weight)


def _dedupe_coo(a: np.ndarray, b: np.ndarray, w: np.ndarray, nb: int) -> Coo:
    """Sum duplicate (a, b) entries of a sparse pair-weight list."""
    if a.size == 0:
        return a, b, w
    key = a.astype(np.int64) * nb + b
    order = np.argsort(key, kind="stable")
    key, a, b, w = key[order], a[order], b[order], w[order]
    first = np.concatenate(([True], key[1:] != key[:-1]))
    idx = np.flatnonzero(first)
    sums = np.add.reduceat(w, idx)
    return a[idx], b[idx], sums


@dataclass
class TCoffeeLike(SequentialMsaAligner):
    """Consistency-library progressive aligner.

    Parameters
    ----------
    matrix, gaps:
        Scoring of the pairwise alignments that seed the library.
    use_local:
        Also add the best Smith-Waterman alignment of each pair to the
        primary library (T-Coffee's ClustalW+Lalign recipe).
    extend:
        Apply triplet extension (disable only for ablations).
    gap_open, gap_extend:
        Gap penalties of the library-scored progressive stage (near zero
        by design).
    """

    matrix: SubstitutionMatrix = field(default=BLOSUM62)
    gaps: GapPenalties = field(default_factory=GapPenalties)
    use_local: bool = True
    extend: bool = True
    gap_open: float = 0.05
    gap_extend: float = 0.01

    name = "tcoffee"

    # -- library construction -------------------------------------------------

    def _build_library(
        self, seqs: List[Sequence]
    ) -> Tuple[Dict[Tuple[int, int], Coo], np.ndarray]:
        """Primary library + the identity matrix used for the guide tree."""
        n = len(seqs)
        ident = np.eye(n)
        maps: Dict[Tuple[int, int], np.ndarray] = {}
        weights: Dict[Tuple[int, int], float] = {}
        library: Dict[Tuple[int, int], Coo] = {}
        for i in range(n):
            for j in range(i + 1, n):
                res = global_align(seqs[i], seqs[j], self.matrix, self.gaps)
                xi, yi = res.matched_pairs()
                w = max(res.identity(), 1e-3)
                ident[i, j] = ident[j, i] = res.identity()
                # Residue map of i onto j (global alignment), used by the
                # triplet extension.
                m = np.full(len(seqs[i]), -1, dtype=np.int64)
                m[xi] = yi
                maps[(i, j)] = m
                weights[(i, j)] = w
                a, b = xi, yi
                wts = np.full(a.size, w)
                if self.use_local:
                    loc = local_align(seqs[i], seqs[j], self.matrix, self.gaps)
                    lx, ly = loc.matched_pairs()
                    lw = max(loc.identity(), 1e-3)
                    a = np.concatenate([a, lx])
                    b = np.concatenate([b, ly])
                    wts = np.concatenate([wts, np.full(lx.size, lw)])
                library[(i, j)] = _dedupe_coo(a, b, wts, len(seqs[j]))
        if self.extend:
            library = self._extend_library(seqs, library, maps, weights)
        return library, ident

    def _extend_library(
        self,
        seqs: List[Sequence],
        library: Dict[Tuple[int, int], Coo],
        maps: Dict[Tuple[int, int], np.ndarray],
        weights: Dict[Tuple[int, int], float],
    ) -> Dict[Tuple[int, int], Coo]:
        """Triplet extension over the global-alignment residue maps."""
        n = len(seqs)

        def map_between(u: int, v: int) -> np.ndarray:
            """Residue map u -> v (inverting the stored i<j map if needed)."""
            if (u, v) in maps:
                return maps[(u, v)]
            m = maps[(v, u)]
            inv = np.full(len(seqs[u]), -1, dtype=np.int64)
            ok = m >= 0
            inv[m[ok]] = np.flatnonzero(ok)
            return inv

        out: Dict[Tuple[int, int], Coo] = {}
        for i in range(n):
            for j in range(i + 1, n):
                a0, b0, w0 = library[(i, j)]
                parts_a = [a0]
                parts_b = [b0]
                parts_w = [w0]
                for k in range(n):
                    if k in (i, j):
                        continue
                    mik = map_between(i, k)
                    mkj = map_between(k, j)
                    a = np.flatnonzero(mik >= 0)
                    c = mik[a]
                    b = mkj[c]
                    ok = b >= 0
                    if not ok.any():
                        continue
                    wik = weights[(min(i, k), max(i, k))]
                    wkj = weights[(min(k, j), max(k, j))]
                    parts_a.append(a[ok])
                    parts_b.append(b[ok])
                    parts_w.append(np.full(int(ok.sum()), min(wik, wkj)))
                out[(i, j)] = _dedupe_coo(
                    np.concatenate(parts_a),
                    np.concatenate(parts_b),
                    np.concatenate(parts_w),
                    len(seqs[j]),
                )
        return out

    # -- library-scored progressive alignment -------------------------------------

    @staticmethod
    def _residue_columns(aln: Alignment) -> List[np.ndarray]:
        """Per row: column index of each ungapped residue."""
        return aln.residue_to_column()

    def _pair_score_matrix(
        self,
        px: Profile,
        py: Profile,
        row_ids_x: List[int],
        row_ids_y: List[int],
        library: Dict[Tuple[int, int], Coo],
    ) -> np.ndarray:
        S = np.zeros((px.n_columns, py.n_columns))
        cols_x = self._residue_columns(px.alignment)
        cols_y = self._residue_columns(py.alignment)
        for xi, i in enumerate(row_ids_x):
            for yj, j in enumerate(row_ids_y):
                if i < j:
                    a, b, w = library[(i, j)]
                    ca, cb = cols_x[xi][a], cols_y[yj][b]
                else:
                    a, b, w = library[(j, i)]
                    ca, cb = cols_x[xi][b], cols_y[yj][a]
                np.add.at(S, (ca, cb), w)
        return S / max(len(row_ids_x) * len(row_ids_y), 1)

    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        sset = self._validate_input(seqs)
        if len(sset) == 1:
            return Alignment.from_single(sset[0])
        seq_list = list(sset)
        ids = sset.ids
        library, ident = self._build_library(seq_list)
        if len(sset) == 2:
            res = global_align(seq_list[0], seq_list[1], self.matrix, self.gaps)
            merged = merge_profiles(
                Profile.from_sequence(seq_list[0]),
                Profile.from_sequence(seq_list[1]),
                res.x_map,
                res.y_map,
            )
            return merged.alignment.select_rows(ids)

        tree = NeighborJoiningBuilder().build(1.0 - ident, ids)
        index_of = {sid: i for i, sid in enumerate(ids)}

        profiles: Dict[int, Profile] = {
            leaf: Profile.from_sequence(sset[label])
            for leaf, label in enumerate(tree.labels)
        }
        members: Dict[int, List[int]] = {
            leaf: [index_of[label]] for leaf, label in enumerate(tree.labels)
        }
        for step, (ca, cb) in enumerate(tree.merges):
            node = tree.n_leaves + step
            pa, pb = profiles.pop(int(ca)), profiles.pop(int(cb))
            ma, mb = members.pop(int(ca)), members.pop(int(cb))
            S = self._pair_score_matrix(pa, pb, ma, mb, library)
            res = affine_align(S, self.gap_open, self.gap_extend)
            profiles[node] = merge_profiles(pa, pb, res.x_map, res.y_map)
            members[node] = ma + mb
        final = profiles[tree.root].alignment
        return final.select_rows(ids)
