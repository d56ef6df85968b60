"""The compiled agglomeration builds the numpy loop's trees, byte for byte.

UPGMA, WPGMA and single linkage run one loop
(``repro.tree.builders``): one compiled call under the ``c`` kernel
(``DPKernel.agglomerate``), ``_agglomerate_numpy`` under ``numpy``.  The
two must agree on ``tobytes()`` of merges and heights -- not on the
topology only -- on the inputs where a rewrite would slip: ties that
only the first minimum of ``np.argmin`` settles, ``±0.0`` ties that only
``np.minimum``'s operand choice settles (a height keeps the sign of its
zero), size-weighted means of tenths, and every input form the builders
take.  ``dp.kernel`` checks the entry against the loop before trusting
it, and the probe must catch an entry that gets either tie wrong.
"""

import ctypes
import functools
import math

import numpy as np
import pytest

from repro.align import ckernel, dp
from repro.distance.tilestore import CondensedMatrix, condensed_size
from repro.tree import builders
from repro.tree.builders import (
    _LINKAGE_CODES,
    _agglomerate_compiled,
    _agglomerate_numpy,
    _agglomeration_reproduces_numpy,
    get_builder,
)

LINKAGES = {"average": "upgma", "weighted": "wpgma", "single": "single-linkage"}
KINDS = ("integer", "tenths", "signed_zero")


@pytest.fixture(scope="module")
def entries():
    """The five C entries as loaded, whatever the probe would decide --
    so a wrong C entry fails here instead of sending the process to the
    numpy path and these tests to a skip."""
    loaded, reason = ckernel.load()
    if loaded is None:
        pytest.skip(f"no compiled kernel here: {reason}")
    return loaded


def _vector(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """A tie-heavy condensed vector over ``n`` leaves."""
    rng = np.random.default_rng(seed * 1000 + n)
    size = condensed_size(n)
    if kind == "integer":
        return rng.integers(0, 4, size).astype(np.float64)
    if kind == "tenths":
        return np.round(rng.uniform(0.0, 1.0, size), 1)
    return rng.choice([0.0, -0.0, 1.0], size)


@functools.lru_cache(maxsize=None)
def _numpy_loop(kind: str, n: int, linkage: str) -> tuple:
    """``(merges + heights, final working vector)`` as bytes."""
    w = _vector(kind, n)
    merges, heights = _agglomerate_numpy(n, w, linkage)
    return merges.tobytes() + heights.tobytes(), w.tobytes()


def _dense(w: np.ndarray, n: int) -> np.ndarray:
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = w
    d.T[np.triu_indices(n, 1)] = w
    return d


@pytest.mark.parametrize("linkage", list(LINKAGES))
def test_compiled_entry_equals_the_numpy_loop(entries, linkage):
    """n = 2..64, the three kinds in turn, and the working vector each
    call leaves behind."""
    for n in range(2, 65):
        kind = KINDS[n % len(KINDS)]
        w = _vector(kind, n)
        merges, heights = _agglomerate_compiled(
            entries[3], n, w, linkage
        )
        expected, expected_w = _numpy_loop(kind, n, linkage)
        assert merges.tobytes() + heights.tobytes() == expected, n
        assert w.tobytes() == expected_w, n


@pytest.mark.parametrize("linkage", list(LINKAGES))
def test_every_input_form_under_each_kernel(dp_kernel, tmp_path, linkage):
    """Dense, 1-D condensed and memmap-backed ``CondensedMatrix`` input
    build the numpy loop's tree under whichever kernel runs."""
    builder = get_builder(LINKAGES[linkage])
    for kind in KINDS:
        for n in (1, 2, 3, 5, 8, 17, 33, 64):
            w = _vector(kind, n)
            forms = [_dense(w, n), w.copy(), CondensedMatrix(w.copy())]
            if n > 1:  # an empty file cannot be mapped
                path = tmp_path / f"{kind}-{n}.bin"
                mapped = np.memmap(path, np.float64, "w+", shape=w.shape)
                mapped[:] = w
                forms.append(CondensedMatrix(mapped))
            expected = b"" if n == 1 else _numpy_loop(kind, n, linkage)[0]
            for form in forms:
                tree = builder.build(form)
                got = tree.merges.tobytes() + tree.heights.tobytes()
                assert got == expected, (kind, n, type(form))


def test_the_numpy_loop_runs_only_under_numpy(compiled_kernel, monkeypatch):
    """One path per kernel: under ``c`` nothing reaches the numpy loop."""

    def must_not_run(*args):
        raise AssertionError("numpy loop reached under the c kernel")

    monkeypatch.setattr(builders, "_agglomerate_numpy", must_not_run)
    for name in LINKAGES.values():
        assert get_builder(name).build(_dense(_vector("integer", 9), 9))


def test_overflowing_finite_input_fails_alike(entries):
    """Finite input whose means overflow to inf (and NaN, where -inf
    meets inf): the same merges, heights and working vector, hence the
    same error from ``GuideTree`` on both paths."""
    rng = np.random.default_rng(3)
    for w in (
        np.full(condensed_size(4), 1e308),
        rng.choice([1e308, -1e308, 1.7e308, 0.0], condensed_size(8)),
    ):
        n = CondensedMatrix(w).n
        for linkage in LINKAGES:
            w_np, w_c = w.copy(), w.copy()
            with np.errstate(all="ignore"):
                expected = _agglomerate_numpy(n, w_np, linkage)
            got = _agglomerate_compiled(entries[3], n, w_c, linkage)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
            assert w_c.tobytes() == w_np.tobytes()


# -- the probe ---------------------------------------------------------------


def _doubles(address: int, count: int) -> np.ndarray:
    return np.ctypeslib.as_array((ctypes.c_double * count).from_address(address))


def _int64s(address: int, count: int) -> np.ndarray:
    return np.ctypeslib.as_array((ctypes.c_int64 * count).from_address(address))


def _first_min(values):
    """``np.argmin`` on NaN-free values: the first of the minima."""
    best = 0
    for k, v in enumerate(values):
        if v < values[best]:
            best = k
    return best


def _last_min(values):
    best = 0
    for k, v in enumerate(values):
        if v <= values[best]:
            best = k
    return best


def _second_wins(a, b):
    """``np.minimum`` here: on a ``±0.0`` tie, the second operand."""
    return a if a < b else b


def _first_wins(a, b):
    return b if b < a else a


def _negative_zero_wins(a, b):
    return a if a < b or (a == b and math.copysign(1.0, a) < 0) else b


def _positive_zero_wins(a, b):
    return a if a < b or (a == b and math.copysign(1.0, a) > 0) else b


def python_entry(argmin=_first_min, minimum=_second_wins):
    """An agglomerate entry written in scalar python, taking the C
    entry's arguments -- a model of what the C does, independent of the
    numpy loop, with its two tie rules replaceable."""

    def entry(n, w_at, linkage, merges_at, heights_at, _work_at, _iwork_at):
        w = _doubles(w_at, condensed_size(n))
        merges = _int64s(merges_at, 2 * (n - 1)).reshape(n - 1, 2)
        heights = _doubles(heights_at, n - 1)

        def pos(a, b):
            a, b = min(a, b), max(a, b)
            return a * (2 * n - a - 1) // 2 + (b - a - 1)

        def row(r):
            return [math.inf if c == r else float(w[pos(r, c)]) for c in range(n)]

        active, node, sizes = [True] * n, list(range(n)), [1.0] * n
        nn, nn_dist = [0] * n, [0.0] * n

        def refresh(r):
            values = row(r)
            nn[r] = argmin(values)
            nn_dist[r] = values[nn[r]]

        for r in range(n):
            refresh(r)
        for step in range(n - 1):
            i = argmin([nn_dist[r] if active[r] else math.inf for r in range(n)])
            j = nn[i]
            merges[step] = node[i], node[j]
            heights[step] = float(w[pos(i, j)]) / 2.0
            row_i, row_j = row(i), row(j)
            si, sj = sizes[i], sizes[j]
            for c in range(n):
                if c not in (i, j):
                    a, b = row_i[c], row_j[c]
                    if linkage == _LINKAGE_CODES["weighted"]:
                        w[pos(i, c)] = 0.5 * (a + b)
                    elif linkage == _LINKAGE_CODES["single"]:
                        w[pos(i, c)] = minimum(a, b)
                    else:
                        w[pos(i, c)] = (si * a + sj * b) / (si + sj)
            for c in range(n):
                if c != j:
                    w[pos(j, c)] = math.inf
            active[j] = False
            sizes[i] += sj
            node[i] = n + step
            if step == n - 2:
                break
            for r in range(n):
                if active[r] and (r == i or nn[r] in (i, j)):
                    refresh(r)

    return entry


def test_the_python_model_is_the_numpy_loop():
    entry = python_entry()
    for kind in KINDS:
        for n in (2, 3, 6, 13):
            for linkage in LINKAGES:
                got = _agglomerate_compiled(entry, n, _vector(kind, n), linkage)
                assert b"".join(a.tobytes() for a in got) == _numpy_loop(
                    kind, n, linkage
                )[0]
    assert _agglomeration_reproduces_numpy(entry)


def test_probe_accepts_the_loaded_entry(entries):
    assert _agglomeration_reproduces_numpy(entries[3])
    assert ckernel._reproduces_numpy(*entries)


@pytest.mark.parametrize(
    "wrong",
    [
        pytest.param({"argmin": _last_min}, id="last_minimum_argmin"),
        pytest.param({"minimum": _first_wins}, id="other_zero_in_minimum"),
        pytest.param({"minimum": _negative_zero_wins}, id="minimum_picks_-0"),
        pytest.param({"minimum": _positive_zero_wins}, id="minimum_picks_+0"),
    ],
)
def test_probe_rejects_an_entry_with_the_wrong_tie_rule(
    entries, monkeypatch, wrong
):
    """The python model with one tie rule swapped (the model itself
    passes, see above) is caught, and the process keeps the numpy path
    for every entry."""
    swapped = (*entries[:3], python_entry(**wrong), *entries[4:])
    assert not ckernel._reproduces_numpy(*swapped)
    monkeypatch.setattr(ckernel, "load", lambda: (swapped, None))
    monkeypatch.setattr(dp, "_kernel", None)
    kern = dp.kernel()
    assert (kern.name, kern.fallback) == ("numpy", "check_failed")
    assert kern.agglomerate is None


def test_load_returns_five_entries(entries):
    assert len(entries) == 5 and all(map(callable, entries))
    assert entries[3].__name__ == "agglomerate"
    assert entries[4].__name__ == "apply_path"


# -- observability and the dense working copy --------------------------------


def test_tree_build_spans_name_the_kernel(dp_kernel, traced):
    d = _dense(_vector("tenths", 7), 7)
    _, records = traced(
        lambda: [get_builder(name).build(d) for name in (*LINKAGES.values(), "nj")]
    )
    kernels = {
        r.attrs["linkage"]: r.attrs["kernel"]
        for r in records
        if r.name == "tree.build"
    }
    assert kernels == {**dict.fromkeys(LINKAGES, dp_kernel), "nj": "numpy"}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
def test_dense_working_copy_is_the_upper_triangle_row_by_row(n):
    d = _dense(_vector("signed_zero", n), n)
    rows = [d[r, r + 1:] for r in range(n - 1)]
    expected = np.concatenate(rows) if rows else np.zeros(0)
    assert builders._condensed_working(d).tobytes() == expected.tobytes()
