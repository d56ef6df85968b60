"""The ``full-dp`` tile entry: identities bit for bit ``global_align``'s.

``FullDpDistance.pair_identities`` hands a whole tile of pairs to
``repro.align.dp.identity_code_pairs``.  Under ``c`` that is one
compiled call that counts matched and identical residues along each
traceback path and returns no maps; under ``numpy`` each pair is
aligned by ``align_code_pairs`` and counted along its maps.  Identity is
identical / matched: ``np.mean`` of booleans is an exact integer sum
divided once, so the tile's value must equal
``global_align(x, y).identity()`` to the last bit -- compared here with
``tobytes()``, pair by pair, on the families where a count could slip:
identical sequences, length 1, empty sides, a matrix made of ties, and
every terminal factor.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align import dp
from repro.align.pairwise import global_align
from repro.distance import FullDpDistance
from repro.obs.metrics import registry
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62, GapPenalties, SubstitutionMatrix
from repro.seq.sequence import Sequence

#: Match 1, mismatch 0: with integer penalties most cells tie.
TIES = SubstitutionMatrix("ties", PROTEIN, np.eye(PROTEIN.size))

LETTERS = "ACDEFGHIKLMNPQRSTVWYX"
TEXTS = st.text(alphabet=LETTERS, max_size=14)
#: (open, extend): BLOSUM-scale, integer (ties), and free gaps.
PENALTIES = ((10.0, 0.5), (3.0, 2.0), (1.0, 1.0), (2.0, 0.0), (0.0, 0.0))


@st.composite
def families(draw):
    """Two to six sequences of one kind; every ordered pair, self-pairs
    included, is the tile."""
    kind = draw(st.sampled_from(("any", "identical", "length_1", "mutants")))
    size = draw(st.integers(2, 6))
    if kind == "any":
        texts = draw(st.lists(TEXTS, min_size=size, max_size=size))
    elif kind == "identical":
        texts = [draw(TEXTS)] * size
    elif kind == "length_1":
        texts = draw(st.lists(st.sampled_from(LETTERS), min_size=size,
                              max_size=size))
    else:  # point mutants of one text: long matched runs, few mismatches
        base = list(draw(TEXTS.filter(bool)))
        texts = []
        for _ in range(size):
            text = base.copy()
            for at in draw(st.lists(st.integers(0, len(base) - 1), max_size=3)):
                text[at] = draw(st.sampled_from(LETTERS))
            texts.append("".join(text))
    if draw(st.booleans()):
        texts[draw(st.integers(0, size - 1))] = ""  # an empty side
    seqs = [Sequence(f"s{k}", text) for k, text in enumerate(texts)]
    ii, jj = (a.ravel() for a in np.indices((size, size)))
    matrix = draw(st.sampled_from((BLOSUM62, TIES)))
    open_, extend = draw(st.sampled_from(PENALTIES))
    tf = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return seqs, ii, jj, matrix, GapPenalties(open_, extend, tf)


# The kernel fixture is the same for every example.
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(families())
def test_pair_identities_equal_global_align_identity(dp_kernel, family):
    seqs, ii, jj, matrix, gaps = family
    got = FullDpDistance(matrix, gaps).pair_identities(seqs, ii, jj)
    assert got.dtype == np.float64 and got.shape == ii.shape
    for a, b, identity in zip(ii, jj, got):
        ref = global_align(seqs[a], seqs[b], matrix, gaps).identity()
        assert identity.tobytes() == np.float64(ref).tobytes(), (a, b)


def test_one_span_per_tile_and_the_align_counters(dp_kernel, traced):
    """What a tile reports does not depend on the path: one ``dp.pairs``
    span, and one ``dp.align_calls`` / its cells per pair, empty sides
    included."""
    seqs = [Sequence(f"s{k}", t) for k, t in enumerate(
        ["MKTAYIAK", "MKAYK", "", "W"]
    )]
    ii, jj = np.array([0, 0, 2, 3, 1]), np.array([1, 2, 1, 0, 1])
    calls = registry().counter("dp.align_calls")
    cells = registry().counter("dp.align_cells")
    before = calls.value, cells.value
    _got, records = traced(
        lambda: FullDpDistance().pair_identities(seqs, ii, jj)
    )
    (span,) = [r for r in records if r.name.startswith("dp.")]
    assert span.name == "dp.pairs"
    expected_cells = 8 * 5 + 0 + 0 + 1 * 8 + 5 * 5
    assert span.attrs == {
        "pairs": 5, "cells": expected_cells, "kernel": dp_kernel
    }
    assert (calls.value, cells.value) == (
        before[0] + 5, before[1] + expected_cells
    )


class TestIdentityCodePairs:
    """``dp.identity_code_pairs`` checks what it hands the compiled call
    -- codes against the table, indices against the offsets -- before
    any pair is aligned, on both paths."""

    TABLE = np.eye(4)
    CODES = np.array([0, 1, 2, 3, 3, 2], dtype=np.uint8)
    OFFSETS = np.array([0, 4, 6])

    def _counts(self, **overrides):
        args = dict(table=self.TABLE, codes=self.CODES, offsets=self.OFFSETS,
                    ii=np.array([0, 1]), jj=np.array([1, 1]))
        args.update(overrides)
        return dp.identity_code_pairs(gap_open=2.0, gap_extend=1.0, **args)

    def test_counts(self, dp_kernel):
        # 0123 against 32: one gap of two (cost 4) beats any path that
        # matches the 2 or the 3 (two gaps, cost 6), so both matched
        # pairs are mismatches; 32 against itself matches both.
        assert self._counts().tolist() == [[2, 0], [2, 2]]

    @pytest.mark.parametrize("codes", [[0, 1, 2, 4, 3, 2], [0, -1, 2, 3, 3, 2]])
    def test_code_outside_the_table(self, dp_kernel, monkeypatch, codes):
        monkeypatch.setattr(dp, "_identity_compiled", pytest.fail)
        monkeypatch.setattr(dp, "align_code_pairs", pytest.fail)
        with pytest.raises(IndexError, match="residue code"):
            self._counts(codes=np.array(codes))

    @pytest.mark.parametrize("side", ["ii", "jj"])
    @pytest.mark.parametrize("index", [2, -1])
    def test_sequence_index_outside_the_offsets(self, dp_kernel, side, index):
        with pytest.raises(IndexError, match="sequence index"):
            self._counts(**{side: np.array([0, index])})

    @pytest.mark.parametrize(
        "offsets", [[1, 4, 6], [0, 4, 5], [0, 4, 7], [0, 5, 4, 6]]
    )
    def test_offsets_that_do_not_cover_the_codes(self, dp_kernel, offsets):
        with pytest.raises(ValueError, match="offsets"):
            self._counts(offsets=np.array(offsets))

    def test_empty_tile(self, dp_kernel):
        got = self._counts(ii=np.array([], dtype=np.int64),
                           jj=np.array([], dtype=np.int64))
        assert got.shape == (0, 2) and got.dtype == np.int64
