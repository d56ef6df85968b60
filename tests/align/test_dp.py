"""Tests for the shared affine DP kernel (repro.align.dp).

The vectorised kernel is validated against a direct scalar Gotoh
implementation, including position-specific penalties -- the strongest
correctness guarantee in the suite, since every aligner builds on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.dp import affine_align, affine_score
from tests.align.oracles import assert_valid_maps, path_score, scalar_gotoh


class TestAgainstScalarReference:
    @given(st.integers(0, 2**32 - 1))
    def test_scalar_penalties(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 14, 2)
        S = rng.normal(0, 3, (m, n))
        go, ge = rng.uniform(0.5, 8), rng.uniform(0.0, 0.5)
        expected = scalar_gotoh(S, go, ge, go, ge)
        assert np.isclose(affine_score(S, go, ge), expected)
        res = affine_align(S, go, ge)
        assert np.isclose(res.score, expected)
        assert_valid_maps(res, m, n)
        assert np.isclose(path_score(S, res, go, ge, go, ge), expected)

    @given(st.integers(0, 2**32 - 1))
    def test_position_specific_penalties(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 12, 2)
        S = rng.normal(0, 3, (m, n))
        open_x = rng.uniform(0.5, 8, m)
        ext_x = rng.uniform(0.0, 0.5, m)
        open_y = rng.uniform(0.5, 8, n)
        ext_y = rng.uniform(0.0, 0.5, n)
        expected = scalar_gotoh(S, open_x, ext_x, open_y, ext_y)
        got = affine_score(S, open_x, ext_x, open_y, ext_y)
        assert np.isclose(got, expected)
        res = affine_align(S, open_x, ext_x, open_y, ext_y)
        assert np.isclose(res.score, expected)
        assert_valid_maps(res, m, n)
        assert np.isclose(
            path_score(S, res, open_x, ext_x, open_y, ext_y), expected
        )

    def test_big_matrix_spot_check(self):
        rng = np.random.default_rng(42)
        S = rng.normal(0, 2, (60, 45))
        expected = scalar_gotoh(S, 5.0, 0.3, 5.0, 0.3)
        assert np.isclose(affine_score(S, 5.0, 0.3), expected)


class TestTerminalFactor:
    @given(st.integers(0, 2**32 - 1))
    def test_free_ends_score_matches_path(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 10, 2)
        S = rng.normal(0, 3, (m, n))
        go, ge = 4.0, 0.25
        tf = float(rng.choice([0.0, 0.3, 1.0]))
        res = affine_align(S, go, ge, terminal_factor=tf)
        assert_valid_maps(res, m, n)
        recomputed = path_score(S, res, go, ge, go, ge, tf=tf)
        assert np.isclose(res.score, scalar_gotoh(S, go, ge, go, ge, tf))
        assert np.isclose(res.score, recomputed)
        assert np.isclose(affine_score(S, go, ge, terminal_factor=tf), res.score)

    def test_free_ends_prefer_overlap(self):
        # With free ends, a strong diagonal block should be matched and the
        # overhangs gapped for free.
        S = np.full((6, 6), -5.0)
        for i in range(3):
            S[3 + i, i] = 10.0  # x suffix matches y prefix
        res = affine_align(S, 8.0, 0.5, terminal_factor=0.0)
        assert res.score == pytest.approx(30.0)

    def test_full_penalty_is_global(self):
        S = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.isclose(
            affine_score(S, 2.0, 0.5, terminal_factor=1.0),
            scalar_gotoh(S, 2.0, 0.5, 2.0, 0.5),
        )


class TestEdgeCases:
    def test_empty_both(self):
        res = affine_align(np.zeros((0, 0)), 5, 0.5)
        assert res.score == 0.0 and res.n_columns == 0

    def test_empty_x(self):
        res = affine_align(np.zeros((0, 3)), 5, 0.5)
        assert res.n_columns == 3
        assert (res.x_map == -1).all()
        assert res.score == pytest.approx(-(5 + 3 * 0.5))

    def test_empty_y(self):
        res = affine_align(np.zeros((2, 0)), 5, 0.5)
        assert (res.y_map == -1).all()
        assert res.score == pytest.approx(-(5 + 2 * 0.5))

    def test_single_cell(self):
        res = affine_align(np.array([[7.0]]), 5, 0.5)
        assert res.score == 7.0
        assert res.x_map.tolist() == [0] and res.y_map.tolist() == [0]

    def test_bad_penalty_shape(self):
        with pytest.raises(ValueError, match="length"):
            affine_score(np.zeros((3, 2)), np.zeros(2), 0.5)

    def test_deterministic_tie_break(self):
        S = np.zeros((3, 3))
        r1 = affine_align(S, 1.0, 0.1)
        r2 = affine_align(S, 1.0, 0.1)
        assert np.array_equal(r1.x_map, r2.x_map)
        assert np.array_equal(r1.y_map, r2.y_map)


class TestCallerArrayLayouts:
    """The compiled kernel indexes raw pointers, so whatever layout a
    caller hands ``affine_align`` must reach it as C-contiguous native
    float64 (a naive pointer hand-off reads the skipped elements of a
    strided vector and walks a Fortran ``S`` column by column)."""

    def _problem(self):
        rng = np.random.default_rng(5)
        m, n = 9, 13
        S = rng.normal(0, 3, (m, n))
        wide = {
            name: rng.uniform(0.2, 6.0, 2 * length)
            for name, length in (("ox", m), ("ex", m), ("oy", n), ("ey", n))
        }
        return S, wide

    def _maps(self, S, ox, ex, oy, ey):
        res = affine_align(S, ox, ex, oy, ey, terminal_factor=0.5)
        return res.score, res.x_map.tolist(), res.y_map.tolist()

    def test_strided_penalties_and_fortran_scores(self, dp_kernel):
        S, wide = self._problem()
        dense = {k: v[::2].copy() for k, v in wide.items()}
        expected = scalar_gotoh(
            S, dense["ox"], dense["ex"], dense["oy"], dense["ey"], tf=0.5
        )
        reference = self._maps(S, *dense.values())
        assert np.isclose(reference[0], expected)
        strided = [v[::2] for v in wide.values()]
        assert not strided[0].flags.c_contiguous
        assert self._maps(S, *strided) == reference
        assert self._maps(np.asfortranarray(S), *strided) == reference
        assert self._maps(np.hstack([S, S])[:, : S.shape[1]], *strided) == reference

    def test_non_native_byte_order(self, dp_kernel):
        S, wide = self._problem()
        dense = [v[::2].copy() for v in wide.values()]
        swapped = [v.astype(v.dtype.newbyteorder()) for v in dense]
        assert not swapped[0].dtype.isnative
        S_swapped = S.astype(S.dtype.newbyteorder())
        assert self._maps(S_swapped, *swapped) == self._maps(S, *dense)

    def test_kernel_refuses_a_pointer_it_cannot_index(self):
        from repro.align.dp import _ptr

        vec = np.arange(8.0)
        assert _ptr(vec, 8) == vec.ctypes.data
        for bad in (vec[::2], vec.astype(">f8"), vec.astype(np.float32)):
            with pytest.raises(ValueError, match="C-contiguous native float64"):
                _ptr(bad, bad.size)
        with pytest.raises(ValueError, match="C-contiguous native float64"):
            _ptr(vec, 9)


class TestAlignCodePairs:
    """The many-pairs entry, on each kernel's path: scores read from a
    table through residue codes, every code checked before any pair is
    aligned."""

    TABLE = np.random.default_rng(11).integers(-4, 9, (5, 6)).astype(float)

    def _codes(self, seed, m, n):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 5, m), rng.integers(0, 6, n)

    def test_equals_affine_align_on_the_looked_up_matrix(
        self, dp_kernel, traced
    ):
        from repro.align.dp import align_code_pairs

        pairs = [self._codes(s, m, n) for s, (m, n) in enumerate(
            [(7, 9), (1, 4), (12, 1), (0, 3), (3, 0), (0, 0)]
        )]
        got, records = traced(lambda: align_code_pairs(
            self.TABLE, pairs, 3.0, 0.5, terminal_factor=0.3
        ))
        (span,) = [r for r in records if r.name.startswith("dp.")]
        assert span.name == "dp.pairs"
        assert span.attrs == {
            "pairs": 6, "cells": 7 * 9 + 4 + 12, "kernel": dp_kernel
        }
        for (x, y), res in zip(pairs, got):
            ref = affine_align(self.TABLE[np.ix_(x, y)], 3.0, 0.5,
                               terminal_factor=0.3)
            assert type(res.score) is float and res.score == ref.score
            assert res.x_map.tobytes() == ref.x_map.tobytes()
            assert res.y_map.tobytes() == ref.y_map.tobytes()

    def test_ties_break_as_affine_align(self, dp_kernel):
        """An all-zero table is one giant tie; the tie-break order is
        part of the contract, so the paths must still be identical."""
        from repro.align.dp import align_code_pairs

        table = np.zeros((4, 4))
        pairs = [
            (np.arange(m) % 4, np.arange(n) % 4)
            for m, n in ((6, 6), (4, 8), (8, 4), (1, 5))
        ]
        got = align_code_pairs(table, pairs, 1.0, 1.0)
        for (x, y), res in zip(pairs, got):
            ref = affine_align(np.zeros((len(x), len(y))), 1.0, 1.0)
            assert res.score == ref.score
            assert res.x_map.tolist() == ref.x_map.tolist()
            assert res.y_map.tolist() == ref.y_map.tolist()

    def test_any_integer_layout_of_codes(self, dp_kernel):
        from repro.align.dp import align_code_pairs

        x, y = self._codes(3, 8, 11)
        ref = align_code_pairs(self.TABLE, [(x, y)], 3.0, 0.5)[0]
        wide_x = np.repeat(x, 2).astype(np.int64)
        for xx, yy in (
            (wide_x[::2], y.astype(np.uint8)),  # strided int64
            (x.tolist(), y.astype(">i4")),  # a list; non-native ints
        ):
            res = align_code_pairs(self.TABLE, [(xx, yy)], 3.0, 0.5)[0]
            assert res.score == ref.score
            assert res.x_map.tolist() == ref.x_map.tolist()
        fortran = np.asfortranarray(self.TABLE)
        res = align_code_pairs(fortran, [(x, y)], 3.0, 0.5)[0]
        assert res.x_map.tolist() == ref.x_map.tolist()

    def test_codes_outside_the_table_never_reach_the_kernel(
        self, dp_kernel, monkeypatch
    ):
        from repro.align import dp

        for path in ("_align_compiled", "_align_numpy"):
            monkeypatch.setattr(
                dp, path,
                lambda *a: pytest.fail("aligned a pair of a bad batch"),
            )
        ok = self._codes(1, 4, 4)
        empty = np.zeros(0, dtype=np.uint8)
        for bad_pair in (
            (np.array([0, 5]), ok[1]),  # x indexes rows: 5 of them
            (ok[0], np.array([6])),  # y indexes columns: 6 of them
            (np.array([-1]), ok[1]),
            (np.array([256 + 1]), ok[1]),  # would wrap to a valid uint8
            (empty, np.array([6])),
        ):
            with pytest.raises(IndexError):
                dp.align_code_pairs(self.TABLE, [ok, bad_pair], 3.0, 0.5)

    def test_table_must_fit_uint8_codes(self, dp_kernel):
        from repro.align.dp import align_code_pairs

        with pytest.raises(ValueError, match="2-D"):
            align_code_pairs(np.zeros(4), [], 1.0, 1.0)
        with pytest.raises(ValueError, match="256"):
            align_code_pairs(np.zeros((257, 3)), [], 1.0, 1.0)
        assert align_code_pairs(np.zeros((256, 256)), [], 1.0, 1.0) == []

    def test_pointer_check_knows_the_item_type(self):
        from repro.align.dp import _ptr

        codes = np.arange(6, dtype=np.uint8)
        assert _ptr(codes, 6, np.uint8) == codes.ctypes.data
        with pytest.raises(ValueError, match="native uint8"):
            _ptr(codes.astype(np.int64), 6, np.uint8)
        with pytest.raises(ValueError, match="native float64"):
            _ptr(codes, 6)
