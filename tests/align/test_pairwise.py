"""Tests for repro.align.pairwise."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.align import dp
from repro.align.pairwise import (
    global_align,
    global_score,
    local_align,
    pairwise_identity,
)
from repro.distance import FullDpDistance
from repro.seq.matrices import BLOSUM62, DNA_SIMPLE, GapPenalties
from repro.seq.alphabet import DNA
from repro.obs.metrics import registry
from repro.seq.sequence import Sequence
from tests.align.oracles import local_path_score, scalar_smith_waterman

#: Protein texts, empty and length 1 included.
RESIDUES = st.text(alphabet="ACDEFGHIKLMNPQRSTVWYX", max_size=12)


class TestGlobalAlign:
    def test_identical(self):
        s = Sequence("a", "MKTAYIAKQR")
        t = Sequence("b", "MKTAYIAKQR")
        res = global_align(s, t)
        gx, gy = res.gapped_texts()
        assert gx == gy == s.residues
        assert res.identity() == 1.0

    def test_score_matches_score_only(self):
        s = Sequence("a", "HEAGAWGHEE")
        t = Sequence("b", "PAWHEAE")
        gaps = GapPenalties(8, 1)
        assert np.isclose(
            global_align(s, t, gaps=gaps).score, global_score(s, t, gaps=gaps)
        )

    def test_gapped_texts_strip_to_inputs(self):
        s = Sequence("a", "MKTAYIAKQRLG")
        t = Sequence("b", "MKTAYIQRLG")
        gx, gy = global_align(s, t).gapped_texts()
        assert gx.replace("-", "") == s.residues
        assert gy.replace("-", "") == t.residues
        assert len(gx) == len(gy)

    def test_known_deletion_placed(self):
        s = Sequence("a", "MKTAYIAKQRLG")
        t = Sequence("b", "MKTAYIQRLG")  # AK deleted
        gx, gy = global_align(s, t).gapped_texts()
        assert gy.count("-") == 2 and gx.count("-") == 0

    def test_matched_pairs(self):
        s = Sequence("a", "MKV")
        t = Sequence("b", "MKV")
        xi, yi = global_align(s, t).matched_pairs()
        assert xi.tolist() == [0, 1, 2] and yi.tolist() == [0, 1, 2]

    def test_alphabet_mismatch(self):
        s = Sequence("a", "ACGT", alphabet=DNA)
        t = Sequence("b", "MKVA")
        with pytest.raises(ValueError, match="alphabet"):
            global_align(s, t)

    def test_dna_alignment(self):
        s = Sequence("a", "ACGTACGT", alphabet=DNA)
        t = Sequence("b", "ACGACGT", alphabet=DNA)
        res = global_align(s, t, matrix=DNA_SIMPLE, gaps=GapPenalties(5, 1))
        gx, gy = res.gapped_texts()
        assert gy.count("-") == 1

    def test_empty_vs_nonempty(self):
        s = Sequence("a", "M")
        # Sequence construction strips gaps; an empty sequence is legal.
        t = Sequence("b", "-")
        res = global_align(s, t)
        assert res.n_columns == 1
        assert res.y_map.tolist() == [-1]


class TestBatchedEntries:
    """Bad and degenerate input to the sequence-level batch entry --
    ``FullDpDistance.pair_identities``, one tile of pairs -- on the numpy
    path (``TestBatchedEntriesCompiled`` reruns all of it on the
    compiled one).  The compiled tile call builds no score matrix, so
    the bounds check that ``pair_scores``' fancy indexing used to give
    for free is made up front, for every sequence, whatever its
    partner, on both paths."""

    @pytest.fixture(autouse=True)
    def route(self, numpy_kernel):
        return "numpy"

    @staticmethod
    def _corrupt(text: str, code: int) -> Sequence:
        seq = Sequence("bad", text)
        codes = seq.codes.copy()
        codes[1] = code
        seq._codes = codes
        return seq

    @staticmethod
    def _identities(seqs, pairs, gaps=GapPenalties()):
        ii, jj = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return FullDpDistance(gaps=gaps).pair_identities(seqs, ii, jj)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_out_of_range_code_raises_as_pair_scores_does(self, side):
        good = Sequence("ok", "MKTAYIAK")
        bad = self._corrupt("MKTAYIAK", BLOSUM62.matrix.shape[0])
        with pytest.raises(Exception) as scalar:
            BLOSUM62.pair_scores(bad.codes, good.codes)
        pair = (1, 0) if side == "x" else (0, 1)
        with pytest.raises(Exception) as batched:
            self._identities([good, bad], [(0, 0), pair])
        assert type(batched.value) is type(scalar.value) is IndexError

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_out_of_range_code_raises_beside_an_empty_sequence(self, side):
        """No DP cell would ever read the bad code; it is still bad input."""
        good, empty = Sequence("ok", "MKTAYIAK"), Sequence("e", "")
        bad = self._corrupt("MKTAYIAK", BLOSUM62.matrix.shape[0])
        pair = (1, 2) if side == "x" else (2, 1)
        with pytest.raises(IndexError):
            self._identities([good, bad, empty], [(0, 0), pair])

    def test_alphabet_mismatch(self):
        s = Sequence("a", "ACGT", alphabet=DNA)
        t = Sequence("b", "MKVA")
        with pytest.raises(ValueError, match="alphabet"):
            self._identities([t, s], [(0, 0), (1, 0)])

    @pytest.mark.parametrize("flaw", ["alphabet", "code"])
    def test_a_bad_last_pair_fails_before_any_pair_is_aligned(
        self, flaw, traced
    ):
        good = Sequence("ok", "MKTAYIAK")
        if flaw == "alphabet":
            last, error = Sequence("a", "ACGT", alphabet=DNA), ValueError
        else:
            last, error = self._corrupt("MKTAYIAK", 255), IndexError
        calls = registry().counter("dp.align_calls")
        before = calls.value

        def run():
            with pytest.raises(error):
                self._identities([good, last], [(0, 0)] * 3 + [(0, 1)])

        _none, records = traced(run)
        assert calls.value == before
        assert not [r for r in records if r.name.startswith("dp.")]

    def test_empty_sequences_take_the_degenerate_branch(
        self, route, monkeypatch
    ):
        """An empty side counts no residues on both paths: the numpy
        path answers it in python, the compiled tile call skips its DP;
        neither single-pair path sees one, and the compiled one sees no
        pair at all."""
        shapes = []
        compiled, numpy_path = dp._align_compiled, dp._align_numpy

        def spy_compiled(entry, scores, m, n, *rest):
            shapes.append((m, n))
            return compiled(entry, scores, m, n, *rest)

        def spy_numpy(S, *rest):
            shapes.append(S.shape)
            return numpy_path(S, *rest)

        monkeypatch.setattr(dp, "_align_compiled", spy_compiled)
        monkeypatch.setattr(dp, "_align_numpy", spy_numpy)
        s, t, e = Sequence("s", "MKTAYIAK"), Sequence("t", "MKAYK"), Sequence("e", "")
        seqs = [s, t, e]
        pairs = [(2, 0), (0, 1), (0, 2), (2, 2), (1, 0)]
        gaps = GapPenalties(8, 1, terminal_factor=0.5)
        got = self._identities(seqs, pairs, gaps)
        assert shapes == ([(8, 5), (5, 8)] if route == "numpy" else [])
        for (a, b), identity in zip(pairs, got):
            ref = global_align(seqs[a], seqs[b], gaps=gaps).identity()
            assert identity.tobytes() == np.float64(ref).tobytes()
        assert got[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0]

    def test_empty_batch(self):
        got = self._identities([Sequence("s", "MKV")], [])
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_working_memory_is_one_pair_of_tables(self, route):
        """64 pairs of 250 residues in a fresh interpreter on this path:
        the pairs run one at a time over pooled tables, so the tile adds
        about one pair's worth of ``ru_maxrss`` (well under a MiB), where
        one kept 251 x 251 matrix per pair would add 32 MiB."""
        script = textwrap.dedent(
            f"""
            import resource
            import numpy as np
            from repro.align import dp
            from repro.distance import FullDpDistance
            from repro.seq.sequence import Sequence

            if {route!r} == "numpy":
                dp._kernel = dp.DPKernel("numpy", "forced")
            assert dp.kernel().name == {route!r}, dp.kernel()
            rng = np.random.default_rng(0)
            letters = np.array(list("ARNDCQEGHILKMFPSTWYV"))
            seqs = [
                Sequence(f"s{{i}}", "".join(rng.choice(letters, size=250)))
                for i in range(65)
            ]
            ii, jj = np.arange(64), np.arange(1, 65)
            full_dp = FullDpDistance()
            state = full_dp.prepare(seqs)
            full_dp.pair_identities(seqs, ii[:1], jj[:1], state)  # set-up
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            res = full_dp.pair_identities(seqs, ii, jj, state)
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
        assert added_mib < 16.0, f"pair_identities added {added_mib:.0f} MiB"


class TestBatchedEntriesCompiled(TestBatchedEntries):
    @pytest.fixture(autouse=True)
    def route(self, compiled_kernel):
        return "c"


class TestLocalAlign:
    def test_finds_planted_motif(self):
        a = Sequence("a", "AAAAAWGHEMKAAAA")
        b = Sequence("b", "TTTWGHEMKTTT")
        res = local_align(a, b)
        gx, gy = res.gapped_texts()
        assert "WGHEMK" in gx.replace("-", "")
        assert gx == gy  # exact shared motif

    def test_score_nonnegative(self):
        a = Sequence("a", "AAAA")
        b = Sequence("b", "WWWW")
        assert local_align(a, b).score >= 0.0

    def test_empty(self):
        a = Sequence("a", "")
        b = Sequence("b", "MKV")
        res = local_align(a, b)
        assert res.score == 0.0 and res.n_columns == 0

    def test_local_at_least_global_interior(self):
        a = Sequence("a", "MKTAYIAKQRQISFVK")
        b = Sequence("b", "WWTAYIAKWW")
        loc = local_align(a, b)
        glo = global_align(a, b)
        assert loc.score >= glo.score

    def test_no_terminal_gaps(self):
        a = Sequence("a", "AAAWGHEAAA")
        b = Sequence("b", "TTWGHETT")
        res = local_align(a, b)
        assert res.x_map[0] >= 0 and res.y_map[0] >= 0
        assert res.x_map[-1] >= 0 and res.y_map[-1] >= 0


LOCAL_PENALTIES = ((10.0, 0.5), (1.0, 1.0), (3.0, 2.0), (0.5, 0.0), (0.0, 0.0))


class TestLocalAlignOracle:
    """``local_align`` against an independent scalar Smith-Waterman:
    the optimal score, and a path that re-prices to it."""

    @pytest.mark.parametrize("penalties", LOCAL_PENALTIES, ids=str)
    @settings(max_examples=100)
    @example("", "MKV")
    @example("W", "")
    @example("M", "M")
    @example("W", "A")
    @given(RESIDUES, RESIDUES)
    def test_score_and_path_match_the_oracle(self, penalties, a, b):
        x, y = Sequence("x", a), Sequence("y", b)
        res = local_align(x, y, gaps=GapPenalties(*penalties))
        S = BLOSUM62.pair_scores(x.codes, y.codes).astype(np.float64)
        expected = scalar_smith_waterman(S, *penalties)
        assert res.score == expected
        assert local_path_score(S, res, *penalties) == expected
        # A local path consumes one contiguous stretch of each sequence
        # and has no double-gap column.
        for consumed in (res.x_map[res.x_map >= 0], res.y_map[res.y_map >= 0]):
            start = consumed[0] if consumed.size else 0
            assert consumed.tolist() == list(range(start, start + consumed.size))
        assert ((res.x_map >= 0) | (res.y_map >= 0)).all()


class TestIdentity:
    def test_identical(self):
        s = Sequence("a", "MKTAYI")
        assert pairwise_identity(s, Sequence("b", "MKTAYI")) == 1.0

    def test_half(self):
        s = Sequence("a", "MMMMMM")
        t = Sequence("b", "MMMWWW")
        assert 0.3 <= pairwise_identity(s, t) <= 0.7

    def test_empty_overlap(self):
        s = Sequence("a", "M")
        t = Sequence("b", "")
        assert global_align(s, t).identity() == 0.0
