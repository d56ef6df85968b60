"""Batched score kernel (repro.align.batchdp): byte-identity everywhere.

The batched kernel's contract is *exact* equality with the scalar
kernel -- same scores bit for bit -- so every comparison here is ``==``,
never ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import batchdp
from repro.align.batchdp import _chunk_bounds, affine_score_batch
from repro.align.dp import affine_score
from repro.obs.metrics import registry

PENALTY_VALUES = (0.0, 0.5, 1.0, 2.0, 7.5, 11.0)


@st.composite
def batch_problems(draw):
    """A ragged batch of pair problems with mixed penalty specs.

    Scores and penalties are drawn from small exact-float sets; shapes
    include empty axes (degenerate pairs) and length-1 edges.
    """
    K = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    S_list = []
    specs = {"ox": [], "ex": [], "oy": [], "ey": []}
    for _ in range(K):
        m = draw(st.integers(min_value=0, max_value=9))
        n = draw(st.integers(min_value=0, max_value=9))
        S_list.append(
            rng.integers(-11, 17, size=(m, n)).astype(np.float64)
        )
        for name, length in (("ox", m), ("ex", m), ("oy", n), ("ey", n)):
            if draw(st.booleans()):
                specs[name].append(draw(st.sampled_from(PENALTY_VALUES)))
            else:
                specs[name].append(
                    rng.choice(PENALTY_VALUES, size=length)
                )
    tf = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return S_list, specs["ox"], specs["ex"], specs["oy"], specs["ey"], tf


@settings(max_examples=40, deadline=None)
@given(batch_problems())
def test_score_batch_matches_scalar_exactly(problem):
    S_list, ox, ex, oy, ey, tf = problem
    got = affine_score_batch(S_list, ox, ex, oy, ey, terminal_factor=tf)
    for k, S in enumerate(S_list):
        want = affine_score(
            S, ox[k], ex[k], oy[k], ey[k], terminal_factor=tf
        )
        assert got[k] == want


@settings(max_examples=15, deadline=None)
@given(batch_problems())
def test_chunking_never_changes_results(problem):
    """A tiny cell budget forces many chunks; results are unchanged."""
    S_list, ox, ex, oy, ey, tf = problem
    base = affine_score_batch(S_list, ox, ex, oy, ey, terminal_factor=tf)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batchdp, "DEFAULT_MAX_BATCH_CELLS", 8)
        chunked = affine_score_batch(
            S_list, ox, ex, oy, ey, terminal_factor=tf
        )
    assert base.tobytes() == chunked.tobytes()


class TestEdges:
    def test_empty_batch(self):
        assert affine_score_batch([], 10.0, 0.5).shape == (0,)

    def test_all_degenerate_batch(self):
        S_list = [np.zeros((0, 4)), np.zeros((3, 0)), np.zeros((0, 0))]
        got = affine_score_batch(S_list, 10.0, 0.5)
        for k, S in enumerate(S_list):
            assert got[k] == affine_score(S, 10.0, 0.5)

    def test_single_pair(self):
        rng = np.random.default_rng(3)
        S = rng.integers(-4, 12, size=(7, 5)).astype(np.float64)
        got = affine_score_batch([S], 10.0, 0.5)
        assert got[0] == affine_score(S, 10.0, 0.5)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            affine_score_batch([np.zeros(4)], 1.0, 1.0)

    def test_spec_count_mismatch_rejected(self):
        S_list = [np.zeros((3, 3)), np.zeros((3, 3))]
        with pytest.raises(ValueError, match="one spec per pair"):
            affine_score_batch(S_list, [1.0, 1.0, 1.0], 0.5)

    def test_vector_length_mismatch_rejected(self):
        S_list = [np.zeros((3, 3))]
        with pytest.raises(ValueError, match="gap_open"):
            affine_score_batch(S_list, [np.ones(5)], 0.5)


class TestChunkBounds:
    def test_single_chunk_when_under_budget(self):
        assert _chunk_bounds([(5, 5)] * 8, 10_000) == [(0, 8)]

    def test_chunks_are_balanced(self):
        # 10 pairs, budget for 3 padded pairs per chunk -> 4 chunks of
        # near-equal size, not greedy 3+3+3+1.
        bounds = _chunk_bounds([(80, 80)] * 10, 3 * 81 * 81)
        sizes = [b - a for a, b in bounds]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= 3

    def test_oversized_pair_gets_own_chunk(self):
        bounds = _chunk_bounds([(100, 100), (100, 100)], 50)
        assert bounds == [(0, 1), (1, 2)]


class TestObsCounters:
    def test_batch_counters_increment(self):
        before = registry().snapshot()
        S_list = [np.zeros((4, 4)), np.zeros((5, 3))]
        affine_score_batch(S_list, 10.0, 0.5)
        delta = registry().snapshot().diff(before)
        assert delta.metrics["dp.batch_calls"].value >= 1
        assert delta.metrics["dp.batch_pairs"].value == 2
        assert delta.metrics["dp.batch_cells"].value == 16 + 15
