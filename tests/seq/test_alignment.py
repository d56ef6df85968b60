"""Tests for repro.seq.alignment."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq.alignment import Alignment
from repro.seq.alphabet import (
    DAYHOFF6,
    DNA,
    MURPHY10,
    PROTEIN,
    SE_B14,
    Alphabet,
    get_alphabet,
)
from repro.seq.sequence import Sequence


def mk(rows, ids=None):
    ids = ids or [f"r{i}" for i in range(len(rows))]
    return Alignment.from_rows(ids, rows)


class TestConstruction:
    def test_from_rows(self):
        a = mk(["MK-V", "M-AV"])
        assert a.n_rows == 2 and a.n_columns == 4

    def test_unequal_rows_rejected(self):
        with pytest.raises(ValueError, match="differing lengths"):
            mk(["MKV", "MK"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            mk(["MK", "MV"], ids=["a", "a"])

    def test_id_count_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Alignment(["a"], np.zeros((2, 3), dtype=np.uint8))

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Alignment(["a"], np.full((1, 2), 99, dtype=np.uint8))

    def test_from_single(self):
        s = Sequence("x", "MKV")
        a = Alignment.from_single(s)
        assert a.n_rows == 1 and a.row_text("x") == "MKV"

    def test_concatenate_rows(self):
        a = mk(["MK-V"], ids=["a"])
        b = mk(["M-AV"], ids=["b"])
        c = Alignment.concatenate_rows([a, b])
        assert c.ids == ["a", "b"] and c.n_columns == 4

    def test_concatenate_mismatched_columns(self):
        with pytest.raises(ValueError, match="column"):
            Alignment.concatenate_rows([mk(["MK"]), mk(["MKV"], ids=["b"])])

    def test_concatenate_empty(self):
        with pytest.raises(ValueError):
            Alignment.concatenate_rows([])


class TestAccess:
    def test_row_by_id_and_index(self):
        a = mk(["MK-V", "M-AV"])
        assert np.array_equal(a.row("r0"), a.row(0))
        assert a.row_text("r1") == "M-AV"

    def test_column(self):
        a = mk(["MK", "MV"])
        assert a.column(0)[0] == a.column(0)[1] == PROTEIN.index("M")

    def test_gap_mask(self):
        a = mk(["M-", "MV"])
        assert a.gap_mask().tolist() == [[False, True], [False, False]]

    def test_occupancy(self):
        a = mk(["M-", "MV"])
        assert np.allclose(a.occupancy(), [1.0, 0.5])

    def test_column_counts(self):
        a = mk(["MM-", "MV-", "M--"])
        counts = a.column_counts()
        assert counts.shape == (3, PROTEIN.size + 1)
        assert counts[0, PROTEIN.index("M")] == 3
        assert counts[1, PROTEIN.index("V")] == 1
        assert counts[2, PROTEIN.gap_code] == 3
        # Without gap column.
        res = a.column_counts(include_gap=False)
        assert res.shape == (3, PROTEIN.size)

    def test_column_counts_match_manual(self):
        rng = np.random.default_rng(0)
        mat = rng.integers(0, PROTEIN.gap_code + 1, (6, 40)).astype(np.uint8)
        a = Alignment([f"r{i}" for i in range(6)], mat)
        counts = a.column_counts()
        for j in range(40):
            manual = np.bincount(mat[:, j], minlength=PROTEIN.size + 1)
            assert np.array_equal(counts[j], manual)

    def test_iteration(self):
        a = mk(["MK", "MV"])
        assert list(a) == [("r0", "MK"), ("r1", "MV")]

    def test_equality(self):
        assert mk(["MK"]) == mk(["MK"])
        assert mk(["MK"]) != mk(["MV"])


class TestTransforms:
    def test_ungapped_roundtrip(self):
        a = mk(["M-KV-", "MA-V-"])
        un = a.ungapped()
        assert un["r0"].residues == "MKV"
        assert un["r1"].residues == "MAV"

    def test_select_rows(self):
        a = mk(["MK", "MV", "ML"])
        sel = a.select_rows(["r2", "r0"])
        assert sel.ids == ["r2", "r0"]
        sel2 = a.select_rows([1])
        assert sel2.ids == ["r1"]

    def test_drop_all_gap_columns(self):
        a = mk(["M--K", "M--V"])
        d = a.drop_all_gap_columns()
        assert d.n_columns == 2
        assert d.row_text("r0") == "MK"

    def test_drop_all_gap_noop(self):
        a = mk(["M-K", "MV-"])
        assert a.drop_all_gap_columns().n_columns == 3

    def test_insert_gap_columns(self):
        a = mk(["MK", "MV"])
        b = a.insert_gap_columns(np.array([0, 1, 2]))
        assert b.n_columns == 5
        assert b.row_text("r0") == "-M-K-"

    def test_insert_gap_columns_repeat(self):
        a = mk(["MK"])
        b = a.insert_gap_columns(np.array([1, 1]))
        assert b.row_text("r0") == "M--K"

    def test_insert_then_drop_roundtrip(self):
        a = mk(["M-KV", "MA-V"])
        b = a.insert_gap_columns(np.array([0, 2, 4])).drop_all_gap_columns()
        assert b == a

    def test_residue_to_column(self):
        a = mk(["M-K", "-MV"])
        maps = a.residue_to_column()
        assert maps[0].tolist() == [0, 2]
        assert maps[1].tolist() == [1, 2]

    @given(st.integers(0, 2**32 - 1))
    def test_insert_positions_property(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, PROTEIN.gap_code + 1, (3, 12)).astype(np.uint8)
        a = Alignment(["a", "b", "c"], mat)
        pos = np.sort(rng.integers(0, 13, size=rng.integers(0, 5)))
        b = a.insert_gap_columns(pos)
        assert b.n_columns == a.n_columns + len(pos)
        # Residue order per row is preserved.
        for r in range(3):
            row_a = a.matrix[r][a.matrix[r] != PROTEIN.gap_code]
            row_b = b.matrix[r][b.matrix[r] != PROTEIN.gap_code]
            assert np.array_equal(row_a, row_b)


class TestRendering:
    def test_to_fasta(self):
        text = mk(["M-K", "MVK"]).to_fasta()
        assert ">r0\nM-K\n>r1\nMVK\n" == text

    def test_to_fasta_wraps(self):
        a = mk(["M" * 130])
        lines = a.to_fasta(width=60).splitlines()
        assert lines[1] == "M" * 60 and lines[3] == "M" * 10

    def test_pretty_blocks(self):
        out = mk(["MK" * 40, "MV" * 40]).pretty(block=30)
        assert "r0" in out and "r1" in out
        assert len(out.splitlines()) > 4

    def test_pretty_max_rows(self):
        out = mk(["MK", "MV", "ML"]).pretty(max_rows=2)
        assert "r2" not in out


# -- the per-row code path, kept as the oracle for the vectorised one ---------


def _oracle_from_rows(ids, rows, alphabet=PROTEIN):
    """``Alignment.from_rows`` as it was: one ``encode`` per row."""
    if not rows:
        return Alignment(list(ids), np.zeros((0, 0), dtype=np.uint8), alphabet)
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValueError(f"rows have differing lengths: {sorted(lengths)}")
    mat = np.vstack([alphabet.encode(r) for r in rows]) if rows[0] else (
        np.zeros((len(rows), 0), dtype=np.uint8)
    )
    return Alignment(list(ids), mat, alphabet)


def _oracle_texts(aln):
    """Row texts as they were: one ``row_text`` (one decode) per row."""
    return [aln.row_text(i) for i in range(aln.n_rows)]


def _oracle_fasta(aln, width=60):
    parts = []
    for rid, text in zip(aln.ids, _oracle_texts(aln)):
        parts.append(f">{rid}")
        parts.extend(text[i : i + width] for i in range(0, len(text), width))
    return "\n".join(parts) + ("\n" if parts else "")


#: (alphabet, rows): lower case, '.' gaps, aliases and wildcard
#: substitution (characters outside every alphabet become its wildcard).
DECODE_CASES = [
    (PROTEIN, ["MKV-LAAGIV", "mkv.lagivw", "MKBZX-LAG*", "JUO?-----#"]),
    (DNA, ["ACG-T-N", "acgu.nA", "RYKM-SW", "-------"]),
    (DAYHOFF6, ["MKV-LAAGIV", "mkv.lagivw", "WYF?BZ-x--"]),
    (MURPHY10, ["MKV-LAAGIV", "mkv.lagivw", "WYF?BZ-x--"]),
    (SE_B14, ["MKV-LAAGIV", "mkv.lagivw", "WYF?BZ-x--"]),
    (PROTEIN, ["M"]),  # one row, one column
    (PROTEIN, ["MKVLAAGIVW" * 13]),  # one row, wraps in FASTA
    (DNA, ["", "", ""]),  # rows but no columns
    (PROTEIN, []),  # no rows at all
]


class TestVectorisedDecodeMatchesPerRowOracle:
    @pytest.mark.parametrize(
        "alphabet,rows", DECODE_CASES,
        ids=[f"{a.name}-{len(r)}x{len(r[0]) if r else 0}"
             for a, r in DECODE_CASES],
    )
    def test_every_surface_equals_the_oracle(self, alphabet, rows):
        ids = [f"s{i}" for i in range(len(rows))]
        got = Alignment.from_rows(ids, rows, alphabet)
        want = _oracle_from_rows(ids, rows, alphabet)
        assert got == want
        assert got.matrix.dtype == np.uint8
        assert got.matrix.shape == want.matrix.shape
        texts = _oracle_texts(want)
        assert got.to_dict() == {
            "ids": ids, "rows": texts, "alphabet": alphabet.name,
        }
        assert list(got) == list(zip(ids, texts))
        assert got.to_fasta() == _oracle_fasta(want)
        assert got.to_fasta(width=7) == _oracle_fasta(want, width=7)
        assert Alignment.from_dict(got.to_dict()) == want

    @given(
        st.lists(
            st.text(alphabet="ACDEFGHIKLMNPQRSTVWYXBZJUO*acgt-.?", min_size=9,
                     max_size=9),
            min_size=1, max_size=12,
        )
    )
    def test_random_rows_equal_the_oracle(self, rows):
        ids = [f"s{i}" for i in range(len(rows))]
        got = Alignment.from_rows(ids, rows)
        want = _oracle_from_rows(ids, rows)
        assert got == want
        assert got.to_dict()["rows"] == _oracle_texts(want)
        assert got.to_fasta(width=4) == _oracle_fasta(want, width=4)

    @pytest.mark.parametrize(
        "alphabet,rows",
        [
            # No wildcard: an off-alphabet ASCII character is an error.
            (Alphabet("ab", "AB"), ["AB-A", "A-BA", "ABCA", "QQQQ"]),
            (Alphabet("ab", "AB"), ["AB-Q", "A-BA"]),
            # Non-ASCII never encodes, wildcard or not.
            (PROTEIN, ["MKV-", "MKé-", "éKVL"]),
            (DNA, ["AC—T", "ACGT"]),
        ],
    )
    def test_off_alphabet_character_raises_the_per_row_message(
        self, alphabet, rows
    ):
        ids = [f"s{i}" for i in range(len(rows))]
        with pytest.raises(ValueError) as want:
            _oracle_from_rows(ids, rows, alphabet)
        with pytest.raises(ValueError) as got:
            Alignment.from_rows(ids, rows, alphabet)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_off_alphabet_message_names_the_column_in_its_row(self):
        with pytest.raises(ValueError, match=r"'C' at position 2 is not in"):
            Alignment.from_rows(
                ["a", "b"], ["ABAB", "ABCB"], Alphabet("ab", "AB")
            )

    def test_rows_of_different_lengths_still_raise(self):
        rows = ["MKV", "MK", "MKVL"]
        with pytest.raises(ValueError) as want:
            _oracle_from_rows(["a", "b", "c"], rows)
        with pytest.raises(ValueError) as got:
            Alignment.from_rows(["a", "b", "c"], rows)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "rows have differing lengths: [2, 3, 4]"

    def test_duplicate_ids_still_raise(self):
        with pytest.raises(ValueError, match="duplicate row ids"):
            Alignment.from_rows(["a", "b", "a"], ["MK", "MV", "ML"])

    def test_get_alphabet_is_case_insensitive(self):
        for alphabet in (PROTEIN, DNA, DAYHOFF6, MURPHY10, SE_B14):
            for name in (alphabet.name, alphabet.name.upper(),
                         alphabet.name.title()):
                assert get_alphabet(name) is alphabet

    def test_get_alphabet_unknown_name_keyerror_text(self):
        with pytest.raises(KeyError) as exc:
            get_alphabet("RNA")
        assert exc.value.args == (
            "unknown alphabet 'RNA'; available: "
            "['dayhoff6', 'dna', 'murphy10', 'protein', 'se_b14']",
        )
