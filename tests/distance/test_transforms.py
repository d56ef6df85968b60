"""``alignment_identity_matrix`` against the blocked boolean reference.

The one-hot matrix-product form counts the same integers the old
``(b, N, L)`` boolean blocks counted, so the two must be
``np.array_equal`` -- not close -- on every alignment, degenerate ones
included.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.distance import alignment_identity_matrix
from repro.seq.alignment import Alignment
from repro.seq.alphabet import PROTEIN


def blocked_reference(aln):
    """The implementation this replaced (PR 21), kept as the oracle."""
    n, L = aln.matrix.shape
    if n == 0:
        return np.zeros((0, 0))
    gap = aln.alphabet.gap_code
    codes = aln.matrix
    nongap = codes != gap
    ident = np.eye(n)
    block = max(1, (1 << 24) // max(L * n, 1))
    for i0 in range(0, n, block):
        a = codes[i0 : i0 + block]
        an = nongap[i0 : i0 + block]
        both = an[:, None, :] & nongap[None, :, :]
        same = (a[:, None, :] == codes[None, :, :]) & both
        overlap = both.sum(axis=2)
        matches = same.sum(axis=2)
        with np.errstate(invalid="ignore"):
            frac = np.where(overlap > 0, matches / np.maximum(overlap, 1), 0.0)
        ident[i0 : i0 + block] = frac
    np.fill_diagonal(ident, 1.0)
    return ident


@st.composite
def alignments(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 3, 7, 30]))
    L = draw(st.sampled_from([0, 1, 2, 9, 64]))
    gap = PROTEIN.gap_code
    n_residues = draw(st.sampled_from([1, 3, gap]))
    matrix = rng.integers(0, n_residues, (n, L)).astype(np.uint8)
    matrix[rng.random((n, L)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = gap
    shape = draw(st.sampled_from(["any", "all_gap_row", "never_overlap"]))
    if shape == "all_gap_row" and n:
        matrix[rng.integers(n)] = gap
    if shape == "never_overlap" and n >= 2:
        # Row 0 lives in the left half, row 1 in the right half.
        matrix[0, L // 2 :] = gap
        matrix[1, : L // 2] = gap
    return Alignment([f"r{i}" for i in range(n)], matrix, PROTEIN)


@given(alignments())
def test_equals_the_blocked_reference(aln):
    got = alignment_identity_matrix(aln)
    assert got.dtype == np.float64
    assert np.array_equal(got, blocked_reference(aln))
