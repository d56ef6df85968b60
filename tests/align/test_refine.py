"""Refinement on arrays against the object-building reference loop.

``repro.align.refine`` scores each realignment from column counts --
an exact SP delta when every term is an integer, a full rescore from
the candidate's counts otherwise -- and builds the candidate only when
it is accepted.  These tests pin that it is the loop it replaced
(:func:`tests.align.oracles.reference_refine`) byte for byte: the same
attempts, the same acceptances, the same scores and alignments, under
each DP kernel, on both scoring paths, and in the bucket-level pass.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree import GuideTree, UpgmaBuilder
from repro.align.profile import Profile
from repro.align.profile_align import ProfileAlignConfig, align_profiles
from repro.align.progressive import progressive_align
from repro.align.refine import _Refinement, refine_alignment
from repro.align.scoring import sp_is_exact, sp_score
from repro.core.config import SampleAlignDConfig
from repro.core.postrefine import bucket_level_refine
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.engine import AlignRequest, get_engine
from repro.seq.alignment import Alignment
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62, SubstitutionMatrix
from tests.align.oracles import reference_bucket_level_refine, reference_refine

GAP = PROTEIN.gap_code

#: Symmetric, not integer-valued: refinement must rescore in full.
HALVES = SubstitutionMatrix(
    "blosum62-halves", PROTEIN, BLOSUM62.residue_part * 0.5 + 0.25
)
#: Integer-valued but so large that SP sums may round: rescore in full.
HUGE = SubstitutionMatrix("blosum62-huge", PROTEIN, BLOSUM62.residue_part * 2.0**48)

CONFIGS = {
    "default": ProfileAlignConfig(),
    "gapmod": ProfileAlignConfig(clustalw_gap_modifiers=True),
    "flat-gaps": ProfileAlignConfig(occupancy_scaled_gaps=False),
}


@st.composite
def split_problems(draw):
    """An alignment with all-gap columns and all-gap (empty) rows among
    its possibilities, and a split of its rows into two non-empty sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_rows = draw(st.integers(2, 7))
    n_cols = draw(st.integers(0, 14))
    gap_p = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    mat = rng.integers(0, GAP, size=(n_rows, n_cols)).astype(np.uint8)
    mat[rng.random((n_rows, n_cols)) < gap_p] = GAP
    if n_cols and draw(st.booleans()):
        mat[:, rng.integers(0, n_cols)] = GAP  # an all-gap column
    if draw(st.booleans()):
        mat[rng.integers(0, n_rows)] = GAP  # an empty sequence
    aln = Alignment([f"r{i}" for i in range(n_rows)], mat)
    in_a = np.zeros(n_rows, dtype=bool)
    size_a = draw(st.integers(1, n_rows - 1))
    in_a[rng.choice(n_rows, size_a, replace=False)] = True
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    gap_penalty = draw(st.sampled_from((0.0, 1.0, 2.0, 4.0)))
    return aln, np.flatnonzero(in_a), np.flatnonzero(~in_a), config, gap_penalty


def _reference_candidate(aln, rows_a, rows_b, config):
    """The candidate the reference loop builds for this split."""
    side = [
        aln.select_rows([aln.ids[i] for i in rows]).drop_all_gap_columns()
        for rows in (rows_a, rows_b)
    ]
    merged, _res = align_profiles(Profile(side[0]), Profile(side[1]), config)
    return merged.alignment.select_rows(aln.ids)


class TestExactDelta:
    @settings(max_examples=200)
    @given(split_problems())
    def test_delta_is_the_sp_difference_bit_for_bit(self, problem):
        aln, rows_a, rows_b, config, gap_penalty = problem
        state = _Refinement(aln, config, gap_penalty)
        assert state.exact
        proposal = state.propose(rows_a, rows_b)
        candidate = _reference_candidate(aln, rows_a, rows_b, config)
        current_sp = sp_score(aln, config.matrix, gap_penalty)
        candidate_sp = sp_score(candidate, config.matrix, gap_penalty)
        assert state.score == current_sp
        assert proposal.score - state.score == candidate_sp - current_sp
        assert proposal.score == candidate_sp
        # Built only now, and it is the reference's candidate.
        state.accept(proposal)
        assert state.matrix.tobytes() == candidate.matrix.tobytes()
        assert state.matrix.shape == candidate.matrix.shape
        assert np.array_equal(state.counts, candidate.column_counts())

    @settings(max_examples=100)
    @given(split_problems(), st.sampled_from((HALVES, HUGE)))
    def test_full_rescore_is_sp_of_the_candidate(self, problem, matrix):
        aln, rows_a, rows_b, config, _gap_penalty = problem
        config = ProfileAlignConfig(matrix=matrix, gaps=config.gaps)
        state = _Refinement(aln, config, 1.0)
        proposal = state.propose(rows_a, rows_b)
        candidate = _reference_candidate(aln, rows_a, rows_b, config)
        if matrix is HALVES or aln.n_columns:
            assert not state.exact
        assert proposal.score == sp_score(candidate, matrix, 1.0)


class TestExactnessCondition:
    def test_blosum_with_an_integer_penalty_is_exact(self):
        assert sp_is_exact(BLOSUM62, 1.0, 400, 2000)
        assert sp_is_exact(BLOSUM62, 0.0, 2, 0)

    @pytest.mark.parametrize("gap_penalty", (0.5, float("nan"), float("inf")))
    def test_a_non_integer_penalty_is_not(self, gap_penalty):
        assert not sp_is_exact(BLOSUM62, gap_penalty, 12, 80)

    def test_a_fractional_matrix_is_not(self):
        assert not sp_is_exact(HALVES, 1.0, 12, 80)

    def test_sums_that_can_round_are_not(self):
        # 11 * 2**48 per pair: 12 rows x 80 columns exceed 2**52.
        assert not sp_is_exact(HUGE, 1.0, 12, 80)
        assert sp_is_exact(HUGE, 1.0, 1, 1)


def _family_problem(n, length, seed):
    fam = generate_family(
        n_sequences=n, mean_length=length, relatedness=500, seed=seed,
        track_alignment=False,
    )
    seqs = list(fam.sequences)
    tree = UpgmaBuilder().build(all_pairs(seqs, "ktuple"), [s.id for s in seqs])
    return progressive_align(seqs, tree), tree


FAMILIES = [(3, 40, 1), (7, 60, 2), (12, 80, 3), (16, 50, 4)]


def _assert_same_result(got, ref):
    assert got.alignment == ref.alignment
    assert got.alignment.to_fasta() == ref.alignment.to_fasta()
    assert (got.initial_score, got.final_score) == (
        ref.initial_score, ref.final_score
    )
    assert (got.n_accepted, got.n_attempted) == (
        ref.n_accepted, ref.n_attempted
    )


class TestLoopEqualsReference:
    @pytest.mark.parametrize("n,length,seed", FAMILIES)
    @pytest.mark.parametrize("rng_seed", (None, 0, 7))
    def test_under_each_kernel(self, dp_kernel, n, length, seed, rng_seed):
        aln, tree = _family_problem(n, length, seed)

        def rng():
            return None if rng_seed is None else np.random.default_rng(rng_seed)

        got = refine_alignment(aln, tree, max_rounds=3, rng=rng())
        ref = reference_refine(aln, tree, max_rounds=3, rng=rng())
        _assert_same_result(got, ref)
        assert got.final_score == sp_score(got.alignment)

    @pytest.mark.parametrize(
        "matrix,gap_penalty", [(HALVES, 1.0), (BLOSUM62, 0.5), (HUGE, 1.0)]
    )
    def test_full_path_matches_reference(
        self, dp_kernel, traced, matrix, gap_penalty
    ):
        aln, tree = _family_problem(12, 80, 3)
        config = ProfileAlignConfig(matrix=matrix)
        got, records = traced(lambda: refine_alignment(
            aln, tree, config, max_rounds=2, gap_penalty=gap_penalty,
            rng=np.random.default_rng(1),
        ))
        ref = reference_refine(
            aln, tree, config, max_rounds=2, gap_penalty=gap_penalty,
            rng=np.random.default_rng(1),
        )
        _assert_same_result(got, ref)
        assert got.final_score == sp_score(got.alignment, matrix, gap_penalty)
        (refine_span,) = [r for r in records if r.name == "align.refine"]
        assert refine_span.attrs["sp"] == "full"

    def test_nothing_accepted_returns_the_input(self):
        aln = Alignment.from_rows(["a", "b", "c"], ["MKV", "MKV", "MKV"])
        tree = UpgmaBuilder().build(np.zeros((3, 3)), ["a", "b", "c"])
        res = refine_alignment(aln, tree)
        assert res.alignment is aln
        assert (res.n_accepted, res.final_score) == (0, res.initial_score)

    def test_rows_with_no_residues(self):
        aln = Alignment.from_rows(
            ["a", "b", "c", "d"], ["MK-VW", "-----", "M-KV-", "-----"]
        )
        tree = UpgmaBuilder().build(
            np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
                     dtype=float),
            ["a", "b", "c", "d"],
        )
        _assert_same_result(
            refine_alignment(aln, tree, max_rounds=2),
            reference_refine(aln, tree, max_rounds=2),
        )


class TestTreeLabels:
    def _duplicate_tree(self):
        # Three leaves, labelled a, a, b: a valid tree shape.
        return GuideTree(3, np.array([[0, 1], [2, 3]]), np.array([1.0, 2.0]),
                         ["a", "a", "b"])

    def test_duplicate_labels_are_rejected_by_name(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV", "MKL"])
        with pytest.raises(ValueError, match=r"unique; repeated: \['a'\]"):
            refine_alignment(aln, self._duplicate_tree())

    def test_label_count_must_equal_row_count(self):
        aln = Alignment.from_rows(["a", "b", "c"], ["MKV", "MKL", "MKI"])
        tree = UpgmaBuilder().build(np.zeros((2, 2)), ["a", "b"])
        with pytest.raises(ValueError, match="2 labels for 3 alignment rows"):
            refine_alignment(aln, tree)

    def test_other_labels_are_rejected(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV", "MKL"])
        tree = UpgmaBuilder().build(np.zeros((2, 2)), ["a", "z"])
        with pytest.raises(ValueError, match="must match alignment row ids"):
            refine_alignment(aln, tree)


class TestBucketLevelRefine:
    @pytest.fixture(scope="class")
    def glued(self):
        from repro import sample_align_d

        fam = generate_family(24, 80, relatedness=500, seed=8)
        res = sample_align_d(fam.sequences, n_procs=3)
        buckets = [list(d.globalized_ranks.keys()) for d in res.diagnostics]
        return res.alignment, buckets

    @pytest.mark.parametrize("rounds,gap_penalty", [(1, 1.0), (3, 1.0), (2, 0.5)])
    def test_equals_reference(self, glued, dp_kernel, rounds, gap_penalty):
        aln, buckets = glued
        # An id not in the alignment, an empty bucket, every row at once.
        buckets = buckets + [["not-a-row"], [], list(aln.ids)]
        got = bucket_level_refine(
            aln, buckets, ProfileAlignConfig(), rounds, gap_penalty
        )
        ref = reference_bucket_level_refine(
            aln, buckets, ProfileAlignConfig(), rounds, gap_penalty
        )
        assert got == ref
        assert got.to_fasta() == ref.to_fasta()


class TestObservability:
    def test_one_span_per_call_and_counters(self, traced):
        from repro.obs.metrics import registry
        from repro.obs.prom import render_prometheus

        aln, tree = _family_problem(12, 80, 3)
        before = registry().snapshot()
        res, records = traced(lambda: refine_alignment(aln, tree, max_rounds=2))
        delta = registry().snapshot().diff(before)
        (refine_span,) = [r for r in records if r.name == "align.refine"]
        assert refine_span.attrs["attempted"] == res.n_attempted > 0
        assert refine_span.attrs["accepted"] == res.n_accepted
        assert refine_span.attrs["sp"] == "delta"
        assert delta.metrics["refine.attempts"].value == res.n_attempted
        assert delta.metrics["refine.accepted"].value == res.n_accepted
        # One DP per attempt, each under its own dp.profile_align.
        by_id = {r.span_id: r for r in records}
        per_attempt = [r for r in records if r.name == "dp.profile_align"]
        assert len(per_attempt) == res.n_attempted
        assert {by_id[r.parent_id].name for r in per_attempt} == {
            "align.refine"
        }
        fills = [r for r in records if r.name == "dp.align"]
        assert {by_id[r.parent_id].name for r in fills} == {"dp.profile_align"}
        prom = render_prometheus(registry().snapshot())
        assert "refine_attempts" in prom and "refine_accepted" in prom


#: FASTA sha256 of refining engines on the golden-digest family (12 x 60,
#: seed 14), recorded from the object-building refinement loop.
REFINE_DIGESTS = {
    ("mafft-nwnsi", 0, 0):
        "d374b6cd21028688cc7dee90b0a72c7c294a17580992721194447c80e9897713",
    ("mafft-fftnsi", 0, 0):
        "d374b6cd21028688cc7dee90b0a72c7c294a17580992721194447c80e9897713",
    ("sample-align-d", 2, 0):
        "5b72faaa66572cd13c284d24b57c33085e64567575c133dbd9710f0cbd8c4667",
    ("sample-align-d", 1, 1):
        "27f77080444518ae351dbccaa422c6ee2470a487426a068c5e351a69d9f227d5",
}


@pytest.mark.parametrize("engine,post,local", sorted(REFINE_DIGESTS))
def test_refining_engines_keep_their_bytes(dp_kernel, engine, post, local):
    fam = generate_family(
        n_sequences=12, mean_length=60, relatedness=400, seed=14,
        track_alignment=False,
    )
    config = (
        SampleAlignDConfig(post_refine_rounds=post, refine_local_rounds=local)
        if post or local else None
    )
    request = AlignRequest(
        tuple(fam.sequences), engine=engine, n_procs=3, seed=5, config=config
    )
    fasta = get_engine(engine).run(request).alignment.to_fasta()
    assert hashlib.sha256(fasta.encode()).hexdigest() == (
        REFINE_DIGESTS[(engine, post, local)]
    )
