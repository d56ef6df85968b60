"""The compiled row kernel writes the numpy loop's tables, bit for bit.

``affine_align`` picks one of two row loops per process
(``repro.align.dp.kernel``).  Byte-identical alignments across hosts
with and without a compiler rest on the two filling H, E and F with the
same bytes, so that is what is compared here -- ``tobytes()``, not
``allclose`` -- on the inputs where an "equivalent" rewrite would slip:
ties (integer scores), signed zeros (free end gaps give ``-0.0``
boundaries; zero penalties keep them alive), NaN, single-row and
single-column tables, and pooled tables still holding a larger call.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import dp

PENALTIES = np.array([0.0, 0.5, 1.0, 2.0, 7.5, 11.0])


@pytest.fixture(scope="module")
def c_rows():
    kern = dp.kernel()
    if kern.name != "c":
        pytest.skip(f"no compiled kernel here: {kern.fallback}")
    return kern.rows


def _tables(args, rows):
    """H, E, F as bytes (the pooled tables are reused by the next call)."""
    H, E, F, _cum_x, _cum_y = dp._forward(*args, True, rows=rows)
    return H.tobytes(), E.tobytes(), F.tobytes()


@st.composite
def fills(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = draw(st.sampled_from(("any", "one_row", "one_col")))
    m = 1 if shape == "one_row" else draw(st.integers(1, 40))
    n = 1 if shape == "one_col" else draw(st.integers(1, 40))
    kind = draw(
        st.sampled_from(("float", "integer", "zero", "signed_zero", "nan"))
    )
    if kind == "float":
        S = rng.normal(0, 4, (m, n))
    elif kind == "zero":
        S = np.zeros((m, n))
    elif kind == "signed_zero":
        S = rng.choice([0.0, -0.0, 1.0, -1.0], size=(m, n))
    else:
        S = rng.integers(-4, 5, (m, n)).astype(np.float64)
        if kind == "nan":
            S[rng.random((m, n)) < 0.08] = np.nan

    def penalties(length):
        if kind == "float":
            return rng.uniform(0.0, 9.0, length)
        return rng.choice(PENALTIES, size=length)

    tf = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return S, penalties(m), penalties(m), penalties(n), penalties(n), tf


@settings(max_examples=300, deadline=None)
@given(fills())
def test_tables_are_bit_identical(c_rows, args):
    assert _tables(args, c_rows) == _tables(args, None)


@settings(max_examples=40, deadline=None)
@given(fills(), fills())
def test_tables_reused_from_a_larger_call(c_rows, first, second):
    """The table pool hands back the previous call's memory: whatever it
    held, each loop overwrites every cell it will read."""
    big, small = sorted((first, second), key=lambda a: -a[0].size)
    expected = _tables(small, None)  # right after some other fill
    for rows in (c_rows, None):
        _tables(big, rows)
        assert _tables(small, rows) == expected


def test_probe_rejects_a_kernel_with_the_wrong_tie_rule(c_rows):
    """What ``dp.kernel`` runs before trusting a loaded library: a row
    loop that is right except for which zero wins a ``+0.0``/``-0.0`` tie
    (what ``a >= b ? a : b`` does, and numpy on this host does not)."""
    assert dp._reproduces_numpy(c_rows)

    def wrong_zero(m, n, *pointers):
        c_rows(m, n, *pointers)
        h_table = (ctypes.c_double * ((m + 1) * (n + 1))).from_address(
            pointers[-3]
        )
        H = np.frombuffer(h_table, dtype=np.float64)
        H[H == 0.0] = 0.0  # every -0.0 becomes +0.0

    assert not dp._reproduces_numpy(wrong_zero)
