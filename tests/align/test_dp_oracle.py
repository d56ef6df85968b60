"""Every affine-gap kernel entry against the scalar oracle.

Each entry is checked on its own against
:func:`tests.align.oracles.scalar_gotoh`, including scaled terminal
gaps, position-specific penalties and degenerate (empty) axes.

The DP has two paths (one compiled call, or the numpy/python functions;
see ``repro.align.dp.kernel``); the matrix-level entry, the
residue-code entry ``align_code_pairs``, the profile-level entries built
on them and the sequence-level tile entry
(``FullDpDistance.pair_identities``) are checked against the oracle
under each.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.dp import affine_align, align_code_pairs
from repro.align.pairwise import PairwiseResult
from repro.align.profile import Profile
from repro.align.profile_align import (
    ProfileAlignConfig,
    align_profiles,
    profile_score_matrix,
)
from repro.distance import FullDpDistance
from repro.seq.alignment import Alignment
from repro.seq.matrices import BLOSUM62, GapPenalties
from repro.seq.sequence import Sequence
from tests.align.oracles import assert_valid_maps, path_score, scalar_gotoh

PENALTIES = (0.0, 0.5, 1.0, 2.0, 7.5, 11.0)


@st.composite
def problems(draw):
    """K ragged pair problems over one score table, mixed penalty specs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    A = draw(st.integers(2, 6))
    table = rng.integers(-11, 17, size=(A, A)).astype(np.float64)
    code_pairs, gaps = [], {"ox": [], "ex": [], "oy": [], "ey": []}
    for _ in range(draw(st.integers(1, 4))):
        m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        code_pairs.append((rng.integers(0, A, m), rng.integers(0, A, n)))
        for name, length in (("ox", m), ("ex", m), ("oy", n), ("ey", n)):
            if draw(st.booleans()):
                gaps[name].append(draw(st.sampled_from(PENALTIES)))
            else:
                gaps[name].append(rng.choice(PENALTIES, size=length))
    tf = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return table, code_pairs, gaps, tf


def _dense(table, code_pairs):
    return [table[np.ix_(x, y)] for x, y in code_pairs]


def _scalar_entry(table, code_pairs, g, tf):
    return [
        affine_align(
            S, g["ox"][k], g["ex"][k], g["oy"][k], g["ey"][k],
            terminal_factor=tf,
        )
        for k, S in enumerate(_dense(table, code_pairs))
    ]


def _assert_optimal(S, res, gaps, tf):
    expected = scalar_gotoh(S, *gaps, tf=tf)
    assert np.isclose(res.score, expected)
    assert_valid_maps(res, *S.shape)
    assert np.isclose(path_score(S, res, *gaps, tf=tf), expected)


# The kernel fixture is function-scoped and the same for every example.
_PER_KERNEL = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_PER_KERNEL
@given(problems())
def test_scalar_entry_matches_oracle_under_each_kernel(dp_kernel, problem):
    table, code_pairs, g, tf = problem
    results = _scalar_entry(table, code_pairs, g, tf)
    for k, (S, res) in enumerate(zip(_dense(table, code_pairs), results)):
        gaps = (g["ox"][k], g["ex"][k], g["oy"][k], g["ey"][k])
        _assert_optimal(S, res, gaps, tf)


@_PER_KERNEL
@given(problems(), st.sampled_from(PENALTIES), st.sampled_from(PENALTIES))
def test_code_pairs_entry_matches_oracle_under_each_kernel(
    dp_kernel, problem, gap_open, gap_extend
):
    """The residue-code entry takes one scalar penalty pair per call."""
    table, code_pairs, _g, tf = problem
    results = align_code_pairs(
        table, code_pairs, gap_open, gap_extend, terminal_factor=tf
    )
    flat = (gap_open, gap_extend, gap_open, gap_extend)
    for S, res in zip(_dense(table, code_pairs), results):
        _assert_optimal(S, res, flat, tf)


@st.composite
def sequence_pairs(draw):
    """Up to five ragged protein pairs (empty sides included), scalar
    penalties: what the ``full-dp`` distance stage hands over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY"))

    def seq(tag):
        length = draw(st.integers(0, 12))
        return Sequence(tag, "".join(letters[rng.integers(0, 20, length)]))

    pairs = [(seq(f"x{k}"), seq(f"y{k}")) for k in range(draw(st.integers(1, 5)))]
    extend, open_ = sorted(
        (draw(st.sampled_from(PENALTIES)), draw(st.sampled_from(PENALTIES)))
    )
    gaps = GapPenalties(
        open_, extend,
        terminal_factor=draw(st.sampled_from((0.0, 0.3, 0.5, 1.0))),
    )
    return pairs, gaps


@_PER_KERNEL
@given(sequence_pairs())
def test_sequence_batch_entry_matches_oracle_under_each_kernel(
    dp_kernel, traced, drawn
):
    """The sequence-level batch entry, ``FullDpDistance.pair_identities``:
    each pair's identity is the one along its oracle-optimal alignment
    (``align_code_pairs``' maps), bit for bit."""
    pairs, gaps = drawn
    seqs = [s for pair in pairs for s in pair]
    ii = np.arange(0, len(seqs), 2)
    full_dp = FullDpDistance(gaps=gaps)
    got, records = traced(lambda: full_dp.pair_identities(seqs, ii, ii + 1))
    results = align_code_pairs(
        BLOSUM62.matrix, [(x.codes, y.codes) for x, y in pairs],
        gaps.open, gaps.extend, terminal_factor=gaps.terminal_factor,
    )
    for (x, y), res, identity in zip(pairs, results, got):
        S = BLOSUM62.pair_scores(x.codes, y.codes).astype(np.float64)
        flat = (gaps.open, gaps.extend, gaps.open, gaps.extend)
        _assert_optimal(S, res, flat, gaps.terminal_factor)
        along = PairwiseResult(x, y, res.score, res.x_map, res.y_map)
        assert identity.tobytes() == np.float64(along.identity()).tobytes()
    # ... one tile call on this kernel's path, and no other.
    dp_spans = [r for r in records if r.name.startswith("dp.")]
    assert [r.name for r in dp_spans] == ["dp.pairs"]
    assert dp_spans[0].attrs["kernel"] == dp_kernel


@st.composite
def profile_pairs(draw):
    """Up to five pairs of small gappy profiles (one to three rows)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY-"))

    def profile(tag):
        n_rows, n_cols = rng.integers(1, 4), rng.integers(1, 10)
        rows = letters[rng.integers(0, 21, (n_rows, n_cols))]
        rows[0] = letters[rng.integers(0, 20, n_cols)]  # no all-gap column
        ids = [f"{tag}{r}" for r in range(n_rows)]
        return Profile(Alignment.from_rows(ids, ["".join(r) for r in rows]))

    n_pairs = draw(st.integers(1, 5))
    pairs = [(profile(f"x{k}_"), profile(f"y{k}_")) for k in range(n_pairs)]
    tf = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return pairs, tf


@_PER_KERNEL
@given(profile_pairs())
def test_profile_entry_matches_oracle_under_each_kernel(dp_kernel, drawn):
    pairs, tf = drawn
    cfg = ProfileAlignConfig(gaps=GapPenalties(terminal_factor=tf))
    for px, py in pairs:
        merged, res = align_profiles(px, py, cfg)
        S = profile_score_matrix(px, py, cfg)
        gaps = (*cfg.gap_vectors(px), *cfg.gap_vectors(py))
        _assert_optimal(S, res, gaps, tf)
        assert merged.n_columns == res.n_columns
