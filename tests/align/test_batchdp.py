"""Batched DP kernel (repro.align.batchdp): byte-identity everywhere.

The batched kernel's contract is *exact* equality with the scalar
kernel -- same scores bit for bit, same traceback paths, same
tie-breaks -- so every comparison here is ``==`` / ``array_equal``,
never ``allclose``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.align.batchdp import (
    DEFAULT_MAX_BATCH_CELLS,
    _chunk_bounds,
    affine_align_batch,
    affine_score_batch,
    gathered_align_batch,
    gathered_score_batch,
    max_batch_cells_setting,
)
from repro.align.dp import affine_align, affine_score
from repro.align.pairwise import (
    global_align,
    global_align_batch,
    global_score,
    global_score_batch,
)
from repro.obs.metrics import registry
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62, PAM250, GapPenalties
from repro.seq.sequence import Sequence

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


@settings(max_examples=40, deadline=None)
@given(batch_problems())
def test_align_batch_matches_scalar_exactly(problem):
    S_list, ox, ex, oy, ey, tf = problem
    got = affine_align_batch(S_list, ox, ex, oy, ey, terminal_factor=tf)
    for k, S in enumerate(S_list):
        want = affine_align(
            S, ox[k], ex[k], oy[k], ey[k], terminal_factor=tf
        )
        assert got[k].score == want.score
        assert np.array_equal(got[k].x_map, want.x_map)
        assert np.array_equal(got[k].y_map, want.y_map)


@settings(max_examples=15, deadline=None)
@given(batch_problems())
def test_chunking_never_changes_results(problem):
    """A tiny cell budget forces many chunks; results are unchanged."""
    S_list, ox, ex, oy, ey, tf = problem
    base = affine_score_batch(S_list, ox, ex, oy, ey, terminal_factor=tf)
    chunked = affine_score_batch(
        S_list, ox, ex, oy, ey, terminal_factor=tf, max_batch_cells=8
    )
    assert base.tobytes() == chunked.tobytes()
    a = affine_align_batch(S_list, ox, ex, oy, ey, terminal_factor=tf)
    b = affine_align_batch(
        S_list, ox, ex, oy, ey, terminal_factor=tf, max_batch_cells=8
    )
    for ra, rb in zip(a, b):
        assert ra.score == rb.score
        assert np.array_equal(ra.x_map, rb.x_map)
        assert np.array_equal(ra.y_map, rb.y_map)


def _same_result(a, b):
    return (
        a.score == b.score
        and np.array_equal(a.x_map, b.x_map)
        and np.array_equal(a.y_map, b.y_map)
    )


def _budget(shapes, chunks):
    """A ``max_batch_cells`` that cuts the live pairs into 1, 2 or K
    chunks (``chunks`` = "one" / "two" / "each")."""
    live = [(m, n) for m, n in shapes if m and n]
    if not live:
        return 1
    padded = max((m + 1) * (n + 1) for m, n in live)
    per = {"one": len(live), "two": -(-len(live) // 2), "each": 1}[chunks]
    return per * padded


@st.composite
def code_batches(draw):
    """Ragged code-pair batches over the whole protein table: the 20
    residues, the unknown code ``X`` and the gap code (a zero row and
    column of the table); empty and length-1 sequences included."""
    K = draw(st.integers(min_value=1, max_value=6))
    code = st.integers(min_value=0, max_value=PROTEIN.gap_code)
    seq = st.lists(code, min_size=0, max_size=12).map(
        lambda v: np.array(v, dtype=np.uint8)
    )
    code_pairs = draw(st.lists(st.tuples(seq, seq), min_size=K, max_size=K))
    matrix = draw(st.sampled_from((BLOSUM62, PAM250)))
    gaps = draw(
        st.sampled_from(
            (
                GapPenalties(),
                GapPenalties(11.0, 1.0, 0.5),
                GapPenalties(2.0, 2.0, 0.0),
                GapPenalties(0.0, 0.0, 1.0),
            )
        )
    )
    chunks = draw(st.sampled_from(("one", "two", "each")))
    return code_pairs, matrix, gaps, chunks


class TestGatheredScores:
    """The table-gather score source against the dense stack and the
    scalar kernel: byte for byte, never ``allclose``."""

    @settings(max_examples=60, deadline=None)
    @given(code_batches())
    def test_gather_equals_dense_equals_scalar(self, problem):
        code_pairs, matrix, gaps, chunks = problem
        table = matrix.matrix
        S_list = [table[np.ix_(x, y)] for x, y in code_pairs]
        budget = _budget([S.shape for S in S_list], chunks)
        args = (gaps.open, gaps.extend)
        kw = dict(terminal_factor=gaps.terminal_factor)

        before = registry().snapshot()
        got = gathered_align_batch(
            table, code_pairs, *args, max_batch_cells=budget, **kw
        )
        calls = registry().snapshot().diff(before).metrics["dp.batch_calls"]
        live = sum(1 for S in S_list if S.size)
        want_chunks = {"one": 1, "two": min(2, live), "each": live}[chunks]
        assert calls.value == (want_chunks if live else 0)

        dense = affine_align_batch(S_list, *args, max_batch_cells=budget, **kw)
        for g, d, S in zip(got, dense, S_list):
            assert _same_result(g, d)
            assert _same_result(g, affine_align(S, *args, **kw))
        scores = gathered_score_batch(
            table, code_pairs, *args, max_batch_cells=budget, **kw
        )
        assert scores.dtype == np.float64
        assert scores.tobytes() == affine_score_batch(
            S_list, *args, max_batch_cells=budget, **kw
        ).tobytes()
        for k, S in enumerate(S_list):
            assert scores[k] == affine_score(S, *args, **kw)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="ARNDCQEGHILKMFPSTWYVX", max_size=15),
                st.text(alphabet="ARNDCQEGHILKMFPSTWYVX", max_size=15),
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from((1.0, 0.5, 0.0)),
        st.sampled_from(("one", "two", "each")),
    )
    def test_sequence_entries_equal_scalar_entries(self, texts, tf, chunks):
        pairs = [
            (Sequence(f"x{k}", a), Sequence(f"y{k}", b))
            for k, (a, b) in enumerate(texts)
        ]
        gaps = GapPenalties(10.0, 0.5, tf)
        budget = _budget([(len(x), len(y)) for x, y in pairs], chunks)
        got = global_align_batch(pairs, gaps=gaps, max_batch_cells=budget)
        scores = global_score_batch(pairs, gaps=gaps, max_batch_cells=budget)
        for k, (x, y) in enumerate(pairs):
            assert _same_result(got[k], global_align(x, y, gaps=gaps))
            assert got[k].x is x and got[k].y is y
            assert scores[k] == global_score(x, y, gaps=gaps)

    def test_per_position_penalties_ride_the_gather_path(self):
        rng = np.random.default_rng(11)
        code_pairs = [
            (
                rng.integers(0, 21, size=m).astype(np.uint8),
                rng.integers(0, 21, size=n).astype(np.uint8),
            )
            for m, n in ((7, 5), (3, 9), (6, 6))
        ]
        ox = [rng.choice(PENALTY_VALUES, size=len(x)) for x, _ in code_pairs]
        oy = [rng.choice(PENALTY_VALUES, size=len(y)) for _, y in code_pairs]
        table = BLOSUM62.matrix
        got = gathered_align_batch(table, code_pairs, ox, 0.5, oy, 0.25)
        for k, (x, y) in enumerate(code_pairs):
            want = affine_align(table[np.ix_(x, y)], ox[k], 0.5, oy[k], 0.25)
            assert _same_result(got[k], want)

    def test_non_contiguous_table_is_accepted(self):
        table = np.asfortranarray(BLOSUM62.matrix)
        x = PROTEIN.encode("MKTAYIAK")
        y = PROTEIN.encode("MKAYIK")
        got = gathered_score_batch(table, [(x, y)], 10.0, 0.5)
        assert got[0] == affine_score(BLOSUM62.pair_scores(x, y), 10.0, 0.5)

    @pytest.mark.parametrize("entry", [gathered_score_batch, gathered_align_batch])
    def test_out_of_range_code_raises_like_fancy_indexing(self, entry):
        table = BLOSUM62.matrix
        ok = np.array([0, 1, 2], dtype=np.uint8)
        bad = np.array([0, table.shape[0], 2], dtype=np.uint8)
        empty = np.zeros(0, dtype=np.uint8)
        for code_pairs in ([(ok, bad)], [(bad, ok)], [(ok, ok), (empty, bad)]):
            with pytest.raises(IndexError):
                entry(table, code_pairs, 10.0, 0.5)
        with pytest.raises(IndexError):
            entry(table, [(np.array([-1]), ok)], 10.0, 0.5)

    def test_table_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            gathered_score_batch(np.zeros(4), [], 1.0, 1.0)

    def test_working_memory_is_rows_not_matrices(self):
        """64 pairs of 250 residues in a fresh interpreter: the dense
        stack added ~200 MiB of ``ru_maxrss`` (per-pair matrices, their
        copies, two stacked tensors); the gather path keeps the four bool
        planes and O(K * n) rows."""
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.align.pairwise import global_align_batch
            from repro.seq.sequence import Sequence

            rng = np.random.default_rng(0)
            letters = np.array(list("ARNDCQEGHILKMFPSTWYV"))
            seqs = [
                Sequence(f"s{i}", "".join(rng.choice(letters, size=250)))
                for i in range(65)
            ]
            pairs = [(seqs[i], seqs[i + 1]) for i in range(64)]
            global_align_batch(pairs[:1])  # imports, lazy set-up
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            res = global_align_batch(pairs)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert len(res) == 64
            print((after - before) / 1024.0)
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script],
            check=True, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        added_mib = float(out.stdout.strip().splitlines()[-1])
        assert added_mib < 80.0, f"global_align_batch added {added_mib:.0f} MiB"


class TestEdges:
    def test_empty_batch(self):
        assert affine_score_batch([], 10.0, 0.5).shape == (0,)
        assert affine_align_batch([], 10.0, 0.5) == []

    def test_all_degenerate_batch(self):
        S_list = [np.zeros((0, 4)), np.zeros((3, 0)), np.zeros((0, 0))]
        got = affine_score_batch(S_list, 10.0, 0.5)
        for k, S in enumerate(S_list):
            assert got[k] == affine_score(S, 10.0, 0.5)
        res = affine_align_batch(S_list, 10.0, 0.5)
        for k, S in enumerate(S_list):
            want = affine_align(S, 10.0, 0.5)
            assert res[k].score == want.score
            assert np.array_equal(res[k].x_map, want.x_map)
            assert np.array_equal(res[k].y_map, want.y_map)

    def test_single_pair(self):
        rng = np.random.default_rng(3)
        S = rng.integers(-4, 12, size=(7, 5)).astype(np.float64)
        got = affine_score_batch([S], 10.0, 0.5)
        assert got[0] == affine_score(S, 10.0, 0.5)

    def test_tie_breaks_match_scalar(self):
        """An all-zero score matrix is one giant tie; paths must still
        be identical because tie-break order is part of the contract."""
        S_list = [np.zeros((6, 6)), np.zeros((4, 8)), np.zeros((8, 4))]
        got = affine_align_batch(S_list, 1.0, 1.0)
        for k, S in enumerate(S_list):
            want = affine_align(S, 1.0, 1.0)
            assert np.array_equal(got[k].x_map, want.x_map)
            assert np.array_equal(got[k].y_map, want.y_map)

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


class TestEnvKnobs:
    def test_max_cells_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_MAX_BATCH_CELLS", raising=False)
        assert max_batch_cells_setting() == DEFAULT_MAX_BATCH_CELLS
        monkeypatch.setenv("REPRO_DP_MAX_BATCH_CELLS", "1024")
        assert max_batch_cells_setting() == 1024
        monkeypatch.setenv("REPRO_DP_MAX_BATCH_CELLS", "0")
        assert max_batch_cells_setting() == 1
        monkeypatch.setenv("REPRO_DP_MAX_BATCH_CELLS", "junk")
        assert max_batch_cells_setting() == DEFAULT_MAX_BATCH_CELLS


class TestObsCounters:
    def test_batch_counters_increment(self):
        before = registry().snapshot()
        S_list = [np.zeros((4, 4)), np.zeros((5, 3))]
        affine_score_batch(S_list, 10.0, 0.5)
        delta = registry().snapshot().diff(before)
        assert delta.metrics["dp.batch_calls"].value >= 1
        assert delta.metrics["dp.batch_pairs"].value == 2
        assert delta.metrics["dp.batch_cells"].value == 16 + 15
