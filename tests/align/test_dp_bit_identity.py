"""The compiled kernel computes the python path's bytes: tables, score, maps.

``affine_align`` runs one of two paths per process
(``repro.align.dp.kernel``): one compiled call, or ``_forward`` ->
``_terminal_best`` -> ``_traceback``.  Byte-identical alignments across
hosts with and without a compiler rest on the two filling H, E and F
with the same bytes, choosing the same end cell and walking back through
the same comparisons, so that is what is compared here -- ``tobytes()``,
not ``allclose`` -- on the inputs where an "equivalent" rewrite would
slip: ties (integer scores), signed zeros (free end gaps give ``-0.0``
boundaries; zero penalties keep them alive), NaN, single-row and
single-column tables, and pooled tables still holding a larger call.
The tile entry, which keeps only identity counts, must pass the same
probe before it is trusted.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import ckernel, dp

PENALTIES = np.array([0.0, 0.5, 1.0, 2.0, 7.5, 11.0])


@pytest.fixture(scope="module")
def c_kernel():
    kern = dp.kernel()
    if kern.name != "c":
        pytest.skip(f"no compiled kernel here: {kern.fallback}")
    return kern


def _numpy(args):
    """Everything the python path computed, as bytes (the pooled tables
    are reused by the next call)."""
    return ckernel._fingerprint(*dp._align_numpy(*args))


def _dense(kern, args):
    S = args[0]
    return ckernel._fingerprint(
        *dp._align_compiled(
            kern.align, (dp._ptr(S, S.size),), *S.shape, *args[1:]
        ),
        dp._pooled_tables(*S.shape),
    )


def _coded(kern, table, x, y, penalties):
    head = (
        dp._ptr(table, table.size), table.shape[1],
        dp._ptr(x, len(x), np.uint8), dp._ptr(y, len(y), np.uint8),
    )
    return ckernel._fingerprint(
        *dp._align_compiled(kern.align_codes, head, len(x), len(y), *penalties),
        dp._pooled_tables(len(x), len(y)),
    )


def _draw_shape(draw):
    shape = draw(st.sampled_from(("any", "one_row", "one_col")))
    m = 1 if shape == "one_row" else draw(st.integers(1, 40))
    n = 1 if shape == "one_col" else draw(st.integers(1, 40))
    return m, n


def _scores(rng, kind, shape):
    if kind == "float":
        return rng.normal(0, 4, shape)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "signed_zero":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
    S = rng.integers(-4, 5, shape).astype(np.float64)
    if kind == "nan":
        S[rng.random(shape) < 0.08] = np.nan
    return S


KINDS = st.sampled_from(("float", "integer", "zero", "signed_zero", "nan"))


def _penalties(draw, rng, kind, m, n):
    """Four per-position vectors (or broadcast scalars) and tf."""

    def vector(length):
        if draw(st.booleans()):
            return np.full(length, rng.choice(PENALTIES))
        if kind == "float":
            return rng.uniform(0.0, 9.0, length)
        return rng.choice(PENALTIES, size=length)

    tf = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return vector(m), vector(m), vector(n), vector(n), tf


@st.composite
def fills(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    m, n = _draw_shape(draw)
    kind = draw(KINDS)
    return (_scores(rng, kind, (m, n)), *_penalties(draw, rng, kind, m, n))


@st.composite
def coded_fills(draw):
    """``(table, x_codes, y_codes, penalties)``: scores as look-ups."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    m, n = _draw_shape(draw)
    kind = draw(KINDS)
    rows, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    table = _scores(rng, kind, (rows, width))
    x = rng.integers(0, rows, m).astype(np.uint8)
    y = rng.integers(0, width, n).astype(np.uint8)
    return table, x, y, _penalties(draw, rng, kind, m, n)


@settings(max_examples=300, deadline=None)
@given(fills())
def test_tables_are_bit_identical(c_kernel, args):
    """Tables, cumulative sums, score, x_map and y_map."""
    assert _dense(c_kernel, args) == _numpy(args)


@settings(max_examples=150, deadline=None)
@given(coded_fills())
def test_coded_entry_equals_the_dense_one_on_the_looked_up_matrix(
    c_kernel, drawn
):
    table, x, y, penalties = drawn
    S = np.ascontiguousarray(table[x][:, y])
    expected = _numpy((S, *penalties))
    assert _dense(c_kernel, (S, *penalties)) == expected
    assert _coded(c_kernel, table, x, y, penalties) == expected


@settings(max_examples=40, deadline=None)
@given(fills(), fills())
def test_tables_reused_from_a_larger_call(c_kernel, first, second):
    """The table pool hands back the previous call's memory: whatever it
    held, each path overwrites every cell it will read."""
    big, small = sorted((first, second), key=lambda a: -a[0].size)
    expected = _numpy(small)  # right after some other fill
    for run in (lambda a: _dense(c_kernel, a), _numpy):
        run(big)
        assert run(small) == expected


def test_end_cell_is_numpys_argmax_when_nan_reaches_the_edges(c_kernel):
    """A NaN spreads right and down to the last row and column, so both
    end-cell argmaxes see it; numpy puts the maximum at the first NaN."""
    S = np.ones((6, 7))
    S[2, 3] = np.nan
    for tf in (0.0, 0.3, 1.0):
        args = (S, np.full(6, 2.0), np.full(6, 0.5), np.full(7, 2.0),
                np.full(7, 0.5), tf)
        score, _x, _y, (H, *_rest) = dp._align_numpy(*args)
        assert np.isnan(H[:, -1]).any() and np.isnan(H[-1, :]).any()
        assert np.isnan(score)
        assert _dense(c_kernel, args) == _numpy(args)


def test_probe_rejects_a_kernel_with_the_wrong_tie_rule(c_kernel):
    """What ``dp.kernel`` runs before trusting a loaded library: a kernel
    that is right except for which zero wins a ``+0.0``/``-0.0`` tie
    (what ``a >= b ? a : b`` does, and numpy on this host does not)."""
    entries = (
        c_kernel.align, c_kernel.align_codes, c_kernel.identity_codes,
        c_kernel.agglomerate, c_kernel.apply,
    )
    assert ckernel._reproduces_numpy(*entries)

    def wrong_zero(entry):
        def run(m, n, *rest):
            length = entry(m, n, *rest)
            H = dp._tables.take("H", (m + 1, n + 1))  # what it just filled
            H[H == 0.0] = 0.0  # every -0.0 becomes +0.0
            return length

        return run

    assert not ckernel._reproduces_numpy(
        wrong_zero(entries[0]), *entries[1:]
    )
    assert not ckernel._reproduces_numpy(
        entries[0], wrong_zero(entries[1]), *entries[2:]
    )


def test_probe_rejects_a_kernel_with_another_end_cell_or_path(c_kernel):
    """The probe compares score and maps, not only tables."""

    def wrong_path(m, n, *rest):
        length = c_kernel.align(m, n, *rest)
        xs = dp._tables.take("xs", (m + n,), np.int64)
        xs[0], xs[length - 1] = xs[length - 1], xs[0]
        return length

    assert not ckernel._reproduces_numpy(
        wrong_path, c_kernel.align_codes, c_kernel.identity_codes,
        c_kernel.agglomerate, c_kernel.apply,
    )


def _int64s(address, count):
    """The ``count`` int64 values the C entry was handed at ``address``."""
    return np.ctypeslib.as_array((ctypes.c_int64 * count).from_address(address))


def test_probe_rejects_an_identity_entry_that_miscounts(c_kernel, monkeypatch):
    """A tile entry with the right paths but the wrong count -- every
    column of the path counted as matched, gap columns included -- is
    caught by the probe, and the process keeps the python path."""

    def counts_gap_columns(pairs, ii, jj, codes, offsets, *rest):
        c_kernel.identity_codes(pairs, ii, jj, codes, offsets, *rest)
        ii, jj = _int64s(ii, pairs), _int64s(jj, pairs)
        lens = np.diff(_int64s(offsets, int(max(ii.max(), jj.max())) + 2))
        counts = _int64s(rest[-1], 2 * pairs).reshape(pairs, 2)
        m, n = lens[ii], lens[jj]
        both = (m > 0) & (n > 0)
        # m + n - matched columns: matched ones plus one per gap column.
        counts[both, 0] = (m + n - counts[:, 0])[both]

    entries = (
        c_kernel.align, c_kernel.align_codes, counts_gap_columns,
        c_kernel.agglomerate, c_kernel.apply,
    )
    assert not ckernel._reproduces_numpy(*entries)
    monkeypatch.setattr(ckernel, "load", lambda: (entries, None))
    monkeypatch.setattr(dp, "_kernel", None)
    kern = dp.kernel()
    assert (kern.name, kern.fallback) == ("numpy", "check_failed")
    assert kern.identity_codes is None


def test_cumsum_is_a_left_to_right_accumulate_here():
    """The C kernel's running sums assume it; the probe's cases carry
    order-dependent sums so a host where it fails falls back."""
    ext = np.array([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 0.1])
    acc, expected = 0.0, []
    for k, v in enumerate(ext):
        acc = float(v) if k == 0 else acc + float(v)
        expected.append(acc)
    assert np.cumsum(ext).tobytes() == np.array(expected).tobytes()
    assert np.cumsum(ext)[2] != (0.2 + 0.3) + 0.1  # the order matters
