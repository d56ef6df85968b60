"""Independent oracles for every affine-gap kernel entry.

:func:`scalar_gotoh` is the textbook O(mn) three-state recurrence, one
cell at a time -- no prefix scan, no padding, no batching -- so a kernel
that agrees with it is checked against a different derivation, not just
against another vectorisation of the same one.  :func:`path_score`
re-prices a returned alignment column by column.
"""

import numpy as np

from repro.align.dp import NEG


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


def assert_valid_maps(res, m, n):
    xm = res.x_map[res.x_map >= 0]
    ym = res.y_map[res.y_map >= 0]
    assert xm.tolist() == list(range(m))
    assert ym.tolist() == list(range(n))
    # No column may be a double gap.
    assert ((res.x_map >= 0) | (res.y_map >= 0)).all()
