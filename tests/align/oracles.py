"""Independent oracles for every affine-gap kernel entry.

:func:`scalar_gotoh` is the textbook O(mn) three-state recurrence, one
cell at a time -- no prefix scan, no padding, no batching -- so a kernel
that agrees with it is checked against a different derivation, not just
against another vectorisation of the same one.  :func:`path_score`
re-prices a returned alignment column by column.
:func:`scalar_smith_waterman` and :func:`local_path_score` are the same
pair for local alignment.

:func:`reference_refine` and :func:`reference_bucket_level_refine` are
the object-building refinement loops the array loop in
:mod:`repro.align.refine` replaced: per attempt two sub-alignments, two
profiles, a merged profile, a reordered candidate and a full
``sp_score``.

:func:`reference_progressive` is the object-building progressive walk
the clade walk of :mod:`repro.align.progressive` replaced: every node a
:class:`Profile` of a fresh :class:`Alignment` -- the children's rows
laid out along the path by fancy indexing (:func:`reference_merge`, the
old ``merge_profiles``), its counts recounted from those rows -- and
row-weighted frequencies summed one row at a time with ``np.add.at``
(:func:`reference_row_weighted_frequencies`).
"""

import numpy as np

from repro.align.dp import NEG
from repro.align.profile import Profile
from repro.align.profile_align import (
    ProfileAlignConfig,
    align_profiles,
    profile_path,
)
from repro.align.refine import RefineResult
from repro.align.scoring import sp_score
from repro.seq.alignment import Alignment


def _vecs(m, n, open_x, ext_x, open_y, ext_y):
    return (
        np.broadcast_to(np.asarray(open_x, float), (m,)),
        np.broadcast_to(np.asarray(ext_x, float), (m,)),
        np.broadcast_to(np.asarray(open_y, float), (n,)),
        np.broadcast_to(np.asarray(ext_y, float), (n,)),
    )


def scalar_gotoh(S, open_x, ext_x, open_y, ext_y, tf=1.0):
    """Optimal global affine score by the scalar recurrence.

    A gap run is terminal -- priced at ``tf`` times its cost -- exactly
    when it lies on the DP boundary: a run consuming x in column 0 or n
    (nothing, or all, of y consumed), a run consuming y in row 0 or m.
    """
    m, n = S.shape
    open_x, ext_x, open_y, ext_y = _vecs(m, n, open_x, ext_x, open_y, ext_y)
    H = np.full((m + 1, n + 1), NEG)
    E = np.full((m + 1, n + 1), NEG)
    F = np.full((m + 1, n + 1), NEG)
    H[0, 0] = 0.0
    for i in range(1, m + 1):
        H[i, 0] = -tf * (open_x[0] + ext_x[:i].sum())
    for j in range(1, n + 1):
        H[0, j] = -tf * (open_y[0] + ext_y[:j].sum())
    for i in range(1, m + 1):
        fy = tf if i == m else 1.0
        for j in range(1, n + 1):
            fx = tf if j == n else 1.0
            E[i, j] = (
                max(E[i - 1, j], H[i - 1, j] - fx * open_x[i - 1])
                - fx * ext_x[i - 1]
            )
            F[i, j] = (
                max(F[i, j - 1], H[i, j - 1] - fy * open_y[j - 1])
                - fy * ext_y[j - 1]
            )
            H[i, j] = max(H[i - 1, j - 1] + S[i - 1, j - 1], E[i, j], F[i, j])
    return H[m, n]


def path_score(S, res, open_x, ext_x, open_y, ext_y, tf=1.0):
    """Recompute an alignment's score from its maps (independent check)."""
    m, n = S.shape
    open_x, ext_x, open_y, ext_y = _vecs(m, n, open_x, ext_x, open_y, ext_y)
    total = 0.0
    cols = list(zip(res.x_map, res.y_map))
    k = 0
    n_cols = len(cols)
    while k < n_cols:
        x, y = cols[k]
        if x >= 0 and y >= 0:
            total += S[x, y]
            k += 1
            continue
        # A gap run: consecutive columns gapped on the same side.
        side_x = x >= 0  # consuming x against gaps in y
        run = []
        while k < n_cols:
            x2, y2 = cols[k]
            if (x2 >= 0 and y2 < 0) != side_x or (x2 >= 0 and y2 >= 0):
                break
            run.append((x2, y2))
            k += 1
        terminal = (run[0] == cols[0]) or (run[-1] == cols[-1])
        scale = tf if terminal else 1.0
        if side_x:
            first = run[0][0]
            total -= scale * (open_x[first] + sum(ext_x[x2] for x2, _ in run))
        else:
            first = run[0][1]
            total -= scale * (open_y[first] + sum(ext_y[_y] for _, _y in run))
    return total


def scalar_smith_waterman(S, gap_open, gap_extend):
    """Best local affine score by the scalar recurrence (Gotoh's
    Smith-Waterman): a gap of ``k`` residues costs ``open + k * extend``,
    and every cell may start afresh at 0."""
    m, n = S.shape
    H = np.zeros((m + 1, n + 1))
    E = np.full((m + 1, n + 1), NEG)
    F = np.full((m + 1, n + 1), NEG)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[i, j] = max(E[i - 1, j], H[i - 1, j] - gap_open) - gap_extend
            F[i, j] = max(F[i, j - 1], H[i, j - 1] - gap_open) - gap_extend
            H[i, j] = max(
                0.0, H[i - 1, j - 1] + S[i - 1, j - 1], E[i, j], F[i, j]
            )
    return H.max()


def local_path_score(S, res, gap_open, gap_extend):
    """Re-price a local alignment from its maps: a matched column scores
    ``S``, each gap run costs ``open + length * extend``."""
    total = 0.0
    run_side = None  # which sequence the current gap run consumes
    for x, y in zip(res.x_map, res.y_map):
        if x >= 0 and y >= 0:
            total += S[x, y]
            run_side = None
            continue
        side = "x" if x >= 0 else "y"
        if side != run_side:
            total -= gap_open
        total -= gap_extend
        run_side = side
    return total


def assert_valid_maps(res, m, n):
    xm = res.x_map[res.x_map >= 0]
    ym = res.y_map[res.y_map >= 0]
    assert xm.tolist() == list(range(m))
    assert ym.tolist() == list(range(n))
    # No column may be a double gap.
    assert ((res.x_map >= 0) | (res.y_map >= 0)).all()


def reference_refine(aln, tree, config=None, max_rounds=1, gap_penalty=1.0,
                     rng=None):
    """Restricted-partitioning refinement, one candidate alignment and
    one full ``sp_score`` per attempt."""
    config = config or ProfileAlignConfig()
    if set(tree.labels) != set(aln.ids):
        raise ValueError("tree labels must match alignment row ids")
    current = aln
    initial = current_score = sp_score(current, config.matrix, gap_penalty)
    n_accepted = 0
    n_attempted = 0

    partitions = tree.bipartitions(include_leaves=True)
    all_leaves = set(range(tree.n_leaves))
    for _round in range(max_rounds):
        order = np.arange(len(partitions))
        if rng is not None:
            rng.shuffle(order)
        accepted_this_round = 0
        for pi in order:
            part = partitions[int(pi)]
            side_a = [tree.labels[v] for v in part]
            side_b = [
                tree.labels[v] for v in sorted(all_leaves - set(part.tolist()))
            ]
            if not side_a or not side_b:
                continue
            n_attempted += 1
            sub_a = current.select_rows(side_a).drop_all_gap_columns()
            sub_b = current.select_rows(side_b).drop_all_gap_columns()
            merged, _res = align_profiles(Profile(sub_a), Profile(sub_b), config)
            candidate = merged.alignment.select_rows(current.ids)
            cand_score = sp_score(candidate, config.matrix, gap_penalty)
            if cand_score > current_score + 1e-9:
                current = candidate
                current_score = cand_score
                n_accepted += 1
                accepted_this_round += 1
        if accepted_this_round == 0:
            break
    return RefineResult(current, initial, current_score, n_accepted, n_attempted)


def reference_bucket_level_refine(glued, bucket_ids, scoring, rounds=1,
                                  gap_penalty=1.0):
    """Bucket row-block vs the rest, one candidate and one full
    ``sp_score`` per bucket."""
    if rounds <= 0:
        return glued
    current = glued
    current_score = sp_score(current, scoring.matrix, gap_penalty)
    all_ids = set(current.ids)
    for _ in range(rounds):
        improved = False
        for ids in bucket_ids:
            ids = [i for i in ids if i in all_ids]
            if not ids or len(ids) == current.n_rows:
                continue
            rest = [i for i in current.ids if i not in set(ids)]
            block = current.select_rows(ids).drop_all_gap_columns()
            other = current.select_rows(rest).drop_all_gap_columns()
            merged, _res = align_profiles(
                Profile(block), Profile(other), scoring
            )
            candidate = merged.alignment.select_rows(current.ids)
            score = sp_score(candidate, scoring.matrix, gap_penalty)
            if score > current_score + 1e-9:
                current, current_score = candidate, score
                improved = True
        if not improved:
            break
    return current


def reference_merge(px, py, x_map, y_map):
    """Two profiles merged along a path, as ``merge_profiles`` did it
    before :func:`repro.align.dp.apply_path`: fancy indexing into a
    gap-filled matrix, then ``Profile(alignment)`` recounts it.  Checks
    only that the path consumes as many columns as each side has."""
    x_map = np.asarray(x_map, dtype=np.int64)
    y_map = np.asarray(y_map, dtype=np.int64)
    nx, ny = px.n_sequences, py.n_sequences
    out = np.full((nx + ny, len(x_map)), px.alphabet.gap_code, dtype=np.uint8)
    x_cols = np.flatnonzero(x_map >= 0)
    y_cols = np.flatnonzero(y_map >= 0)
    assert x_cols.size == px.n_columns and y_cols.size == py.n_columns
    out[:nx, x_cols] = px.alignment.matrix[:, x_map[x_cols]]
    out[nx:, y_cols] = py.alignment.matrix[:, y_map[y_cols]]
    ids = list(px.alignment.ids) + list(py.alignment.ids)
    return Profile(Alignment(ids, out, px.alphabet))


def reference_row_weighted_frequencies(alignment, weights):
    """Residue frequencies with row ``r`` weighing ``weights[r]``,
    normalised by the row count: one ``np.add.at`` per row."""
    A = alignment.alphabet.size
    freq = np.zeros((alignment.n_columns, A))
    gap = alignment.alphabet.gap_code
    for r in range(alignment.n_rows):
        row = alignment.matrix[r]
        mask = row != gap
        np.add.at(freq, (np.flatnonzero(mask), row[mask]), weights[r])
    return freq / max(alignment.n_rows, 1)


def reference_progressive(seqs, tree, config=None, weights=None,
                          merge_fn=None):
    """``progressive_align(seqs, tree, config, weights, merge_fn)`` the
    way it was computed before clades: one :class:`Profile` and one
    :class:`Alignment` per node, the serial post-order walk.

    ``merge_fn(pa, pb) -> (x_map, y_map)`` replaces the optimal path as
    it does for ``progressive_align``.
    """
    config = config or ProfileAlignConfig()
    by_id = {s.id: s for s in seqs}
    row_weight = None
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        weights = weights / weights.mean()
        row_weight = dict(zip(tree.labels, weights))
    nodes = {}
    for leaf, label in enumerate(tree.labels):
        profile = Profile.from_sequence(by_id[label])
        if weights is not None:
            profile.frequencies = profile.frequencies * weights[leaf]
        nodes[leaf] = profile
    for step, (a, b) in enumerate(tree.merges):
        pa, pb = nodes.pop(int(a)), nodes.pop(int(b))
        if merge_fn is not None:
            x_map, y_map = merge_fn(pa, pb)
        else:
            res = profile_path(pa, pb, config)
            x_map, y_map = res.x_map, res.y_map
        merged = reference_merge(pa, pb, x_map, y_map)
        if weights is not None:
            merged.frequencies = reference_row_weighted_frequencies(
                merged.alignment,
                np.array([row_weight[rid] for rid in merged.alignment.ids]),
            )
        nodes[tree.n_leaves + step] = merged
    return nodes[tree.root].alignment.select_rows([s.id for s in seqs])
