"""The clade walk: progressive merges on arrays, against the object walk.

Every node of :func:`repro.align.progressive.progressive_align`'s walk
is a :class:`~repro.align.profile.Clade` -- uint8 codes, int64 column
counts and a row order -- and a merge applies its DP path with
:func:`repro.align.dp.apply_path` (one compiled call under ``c``, fancy
indexing and a recount under ``numpy``).  Checked here:

- ``apply_path`` against the numpy apply and the old merge, on drawn
  merge paths and on the paths the DP emits, and the paths it refuses;
- the probe that keeps a wrong compiled apply out of a process;
- every walk's bytes -- builder x {serial, cooperative} x kernel,
  plain, row-weighted and with the anchored ``merge_fn`` -- against
  :func:`tests.align.oracles.reference_progressive`;
- the one-``bincount`` row-weighted frequencies against the per-row
  loop;
- MUSCLE's stage-2 clade reuse counts, and the walk's observability.
"""

import ctypes
import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.align import ckernel, dp
from repro.align.dp import affine_align, apply_path
from repro.align.profile import Clade, Profile, merge_profiles
from repro.align.profile_align import ProfileAlignConfig
from repro.align.progressive import _row_weighted_frequencies, progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.msa.clustalw import clustal_sequence_weights
from repro.msa.mafft import anchored_path
from repro.msa.muscle import MuscleLike
from repro.obs.metrics import registry
from repro.obs.prom import render_prometheus
from repro.parcomp.launcher import run_spmd
from repro.seq.alignment import Alignment, code_counts
from repro.seq.alphabet import PROTEIN
from repro.seq.sequence import Sequence
from repro.tree import get_builder
from tests.align.oracles import (
    reference_merge,
    reference_progressive,
    reference_row_weighted_frequencies,
)

BUILDERS = ["upgma", "wpgma", "nj", "single-linkage"]
GAP = PROTEIN.gap_code
WIDTH = GAP + 1


@pytest.fixture(scope="module")
def entries():
    """The five C entries as loaded, whatever the probe would decide --
    so a wrong apply entry fails here instead of sending the process to
    the numpy path and these tests to a skip."""
    loaded, reason = ckernel.load()
    if loaded is None:
        pytest.skip(f"no compiled kernel here: {reason}")
    return loaded


# -- apply_path ---------------------------------------------------------------


def _side(rng, rows, cols):
    """A clade-like side: codes with some gaps, and their counts."""
    codes = rng.integers(0, WIDTH, size=(rows, cols)).astype(np.uint8)
    return codes, code_counts(codes, WIDTH)


@st.composite
def merges(draw):
    """Two sides and a merge path between them: each side's columns in
    order, interleaved with the other's, some of them paired."""
    mx, my = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    paired = draw(st.integers(0, min(mx, my)))
    steps = draw(st.permutations(
        ["d"] * paired + ["x"] * (mx - paired) + ["y"] * (my - paired)
    ))
    x_map, y_map, i, j = [], [], 0, 0
    for step in steps:
        x_map.append(i if step in "dx" else -1)
        y_map.append(j if step in "dy" else -1)
        i += step in "dx"
        j += step in "dy"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (*_side(rng, nx, mx), *_side(rng, ny, my),
            np.array(x_map, dtype=np.int64), np.array(y_map, dtype=np.int64))


def _profile(codes, prefix):
    ids = [f"{prefix}{r}" for r in range(codes.shape[0])]
    return Profile(Alignment(ids, codes, PROTEIN))


def _assert_is_the_old_merge(case, codes, counts):
    x_codes, _xc, y_codes, _yc, x_map, y_map = case
    old = reference_merge(
        _profile(x_codes, "x"), _profile(y_codes, "y"), x_map, y_map
    )
    assert codes.tobytes() == old.alignment.matrix.tobytes()
    assert codes.shape == old.alignment.matrix.shape
    assert counts.tobytes() == old.counts.tobytes()


@given(case=merges())
def test_compiled_apply_is_the_numpy_apply(entries, case):
    compiled = dp._apply_compiled(entries[4], *case)
    numpy_path = dp._apply_numpy(*case)
    for got, want in zip(compiled, numpy_path):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    _assert_is_the_old_merge(case, *compiled)


@given(case=merges())
def test_apply_path_is_the_old_merge_under_each_kernel(each_dp_kernel, case):
    for _kernel in each_dp_kernel():
        _assert_is_the_old_merge(case, *apply_path(*case))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 8), (8, 6)])
@pytest.mark.parametrize("tf", [1.0, 0.0])
def test_the_paths_the_dp_emits(dp_kernel, shape, tf):
    """Real paths -- free end gaps make leading and trailing gaps on
    either side -- applied to one-row and one-column sides."""
    rng = np.random.default_rng(sum(shape))
    m, n = shape
    for trial in range(20):
        S = rng.normal(size=(m, n)) * (trial % 4)
        res = affine_align(S, 3.0, 0.5, terminal_factor=tf)
        case = (*_side(rng, 1 + trial % 3, m), *_side(rng, 2, n),
                res.x_map, res.y_map)
        _assert_is_the_old_merge(case, *apply_path(*case))


def _refused(case):
    with pytest.raises(ValueError, match="consume"):
        apply_path(*case)


@given(case=merges(), data=st.data())
def test_a_path_that_is_not_a_merge_is_refused(each_dp_kernel, case, data):
    """Break a valid path one way or another: each kernel refuses it
    (and the compiled one writes nothing it was not asked for)."""
    x_codes, x_counts, y_codes, y_counts, x_map, y_map = case
    how = data.draw(st.sampled_from(
        ["swap", "both_gaps", "drop", "repeat", "past_the_end"]
    ))
    x_map, y_map = x_map.copy(), y_map.copy()
    x_cols = np.flatnonzero(x_map >= 0)
    if how == "swap" and x_cols.size >= 2:
        a, b = x_cols[0], x_cols[-1]
        x_map[a], x_map[b] = x_map[b], x_map[a]
    elif how == "both_gaps" or len(x_map) == 0:
        at = data.draw(st.integers(0, len(x_map)))
        x_map = np.insert(x_map, at, -1)
        y_map = np.insert(y_map, at, -1)
    elif how == "drop":
        at = data.draw(st.integers(0, len(x_map) - 1))
        x_map, y_map = np.delete(x_map, at), np.delete(y_map, at)
    elif how == "repeat":
        at = data.draw(st.integers(0, len(x_map) - 1))
        x_map = np.insert(x_map, at, x_map[at])
        y_map = np.insert(y_map, at, y_map[at])
    else:
        x_map = np.append(x_map, x_counts.shape[0])
        y_map = np.append(y_map, -1)
    if np.array_equal(x_map, case[4]) and np.array_equal(y_map, case[5]):
        return  # nothing to swap: the path is still the valid one
    for _kernel in each_dp_kernel():
        _refused((x_codes, x_counts, y_codes, y_counts, x_map, y_map))


def P(residues, prefix="p"):
    return Profile.from_sequence(Sequence(prefix, residues))


class TestMergeProfilesRefusesScrambledPaths:
    """The two paths ``merge_profiles`` used to take: one scrambles each
    side's rows (``CAED---`` / ``----MLK``), one pads both with an
    all-gap column.  Each kernel refuses both."""

    def test_scrambled_rows(self, dp_kernel):
        with pytest.raises(ValueError, match="consume"):
            merge_profiles(
                P("ACDE", "x"), P("KLM", "y"),
                [1, 0, 3, 2, -1, -1, -1], [-1, -1, -1, -1, 2, 1, 0],
            )

    def test_all_gap_column(self, dp_kernel):
        with pytest.raises(ValueError, match="consume"):
            merge_profiles(
                P("ACDE", "x"), P("KLM", "y"),
                [0, 1, 2, 3, -1, -1, -1, -1], [-1, -1, -1, -1, 0, 1, 2, -1],
            )

    def test_a_merge_still_merges(self, dp_kernel):
        merged = merge_profiles(
            P("ACDE", "x"), P("KLM", "y"), [0, 1, 2, -1, 3], [-1, 0, 1, 2, -1]
        )
        assert [merged.alignment.row_text(r) for r in ("x", "y")] == [
            "ACD-E", "-KLM-",
        ]


def _int64s(address, count):
    return np.ctypeslib.as_array((ctypes.c_int64 * count).from_address(address))


def test_probe_rejects_an_apply_that_skips_the_gap_count(entries, monkeypatch):
    """An apply entry that lays the codes out right but leaves a gap
    side's rows out of the gap column is caught by the probe, and the
    process keeps the numpy path for every entry."""
    apply = entries[4]

    def no_gap_bump(length, xmap, ymap, nx, mx, xc, xn, ny, my, yc, yn,
                    width, codes, counts):
        status = apply(length, xmap, ymap, nx, mx, xc, xn, ny, my, yc, yn,
                       width, codes, counts)
        out = _int64s(counts, length * width).reshape(length, width)
        out[_int64s(xmap, length) < 0, -1] -= nx
        out[_int64s(ymap, length) < 0, -1] -= ny
        return status

    wrong = (*entries[:4], no_gap_bump)
    assert ckernel._reproduces_numpy(*entries)
    assert not ckernel._reproduces_numpy(*wrong)
    monkeypatch.setattr(ckernel, "load", lambda: (wrong, None))
    monkeypatch.setattr(dp, "_kernel", None)
    kern = dp.kernel()
    assert (kern.name, kern.fallback) == ("numpy", "check_failed")
    assert kern.apply is None


# -- whole walks --------------------------------------------------------------


CONFIG = ProfileAlignConfig()
ANCHORED = functools.partial(anchored_path, config=CONFIG)
VARIANTS = ["plain", "weighted", "anchored"]


@pytest.fixture(scope="module")
def seqs():
    fam = generate_family(
        n_sequences=10, mean_length=80, relatedness=300, seed=23,
        track_alignment=False,
    )
    return list(fam.sequences)


@pytest.fixture(scope="module")
def trees(seqs):
    d = all_pairs(seqs, "ktuple")
    ids = [s.id for s in seqs]
    return {name: get_builder(name).build(d, ids) for name in BUILDERS}


def _arguments(variant, tree):
    weights = clustal_sequence_weights(tree) if variant == "weighted" else None
    merge_fn = ANCHORED if variant == "anchored" else None
    return weights, merge_fn


@pytest.fixture(scope="module")
def oracle(seqs, trees):
    """Every (builder, variant)'s FASTA from the object walk, on the
    numpy row kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_kernel", dp.DPKernel("numpy", "forced"))
        return {
            (name, variant): reference_progressive(
                seqs, tree, CONFIG, *_arguments(variant, tree)
            ).to_fasta()
            for name, tree in trees.items()
            for variant in VARIANTS
        }


def _walk(mode, seqs, tree, variant):
    weights, merge_fn = _arguments(variant, tree)
    if mode == "cooperative":
        results = run_spmd(
            2,
            lambda comm: progressive_align(
                seqs, tree, CONFIG, weights, merge_fn, comm=comm
            ).to_fasta(),
        ).results
        assert results[0] == results[1]
        return results[0]
    return progressive_align(seqs, tree, CONFIG, weights, merge_fn).to_fasta()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["serial", "cooperative"])
@pytest.mark.parametrize("name", BUILDERS)
def test_walk_is_the_object_walk(
    dp_kernel, name, mode, variant, seqs, trees, oracle
):
    assert _walk(mode, seqs, trees[name], variant) == oracle[name, variant]


def test_a_clade_ships_codes_counts_and_rows_only(seqs):
    import pickle

    leaf = Clade.leaf(seqs[0], 4)
    back = pickle.loads(pickle.dumps(leaf))
    assert back.frequencies.tobytes() == leaf.frequencies.tobytes()
    assert back.rows.tolist() == [4] and not back.weighted
    assert len(pickle.dumps(leaf)) < leaf.counts.nbytes + leaf.frequencies.nbytes
    leaf.reweight(leaf.frequencies * 0.5)
    back = pickle.loads(pickle.dumps(leaf))
    assert back.weighted
    assert back.frequencies.tobytes() == leaf.frequencies.tobytes()


# -- row weights --------------------------------------------------------------


@given(
    rows=st.integers(1, 9),
    cols=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_weighted_frequencies_are_the_per_row_loop(rows, cols, seed):
    """Few codes, so most cells sum several rows' weights -- in row
    order, or the last bits differ."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(np.array([0, 1, GAP], dtype=np.uint8), (rows, cols))
    weights = rng.uniform(0.05, 3.0, size=rows) ** 3
    got = _row_weighted_frequencies(codes, weights, PROTEIN.size)
    ids = [f"r{r}" for r in range(rows)]
    want = reference_row_weighted_frequencies(
        Alignment(ids, codes, PROTEIN), weights
    )
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- stage-2 reuse and observability ------------------------------------------


#: ``(merged, reused)`` of MUSCLE's two walks on 24 x 80 rose families,
#: as the object walk counted them.
STAGE2 = {3: [(23, 0), (20, 3)], 11: [(23, 0), (13, 10)], 29: [(23, 0), (16, 7)]}


@pytest.mark.parametrize("seed", sorted(STAGE2))
def test_stage2_reuse_is_unchanged(dp_kernel, traced, seed):
    fam = generate_family(
        n_sequences=24, mean_length=80, seed=seed, track_alignment=False
    )
    reused = registry().counter("tree.merge_reused_nodes")
    before = reused.value
    _aln, spans = traced(lambda: MuscleLike().align(list(fam.sequences)))
    walks = [r.attrs for r in spans if r.name == "tree.merge"]
    assert [(w["merged"], w["reused"]) for w in walks] == STAGE2[seed]
    assert {w["kernel"] for w in walks} == {dp_kernel}
    assert reused.value - before == STAGE2[seed][1][1]


@pytest.mark.parametrize("mode", ["serial", "cooperative"])
def test_walk_names_its_kernel_and_counts_its_applies(
    dp_kernel, traced, mode, seqs, trees
):
    """One ``tree.merge`` span per rank, and every merge applied once:
    cooperative ranks split each level, they do not repeat it."""
    applies = registry().counter("dp.apply_calls")
    before = applies.value
    _fasta, spans = traced(lambda: _walk(mode, seqs, trees["upgma"], "plain"))
    walks = [r for r in spans if r.name == "tree.merge"]
    assert len(walks) == (2 if mode == "cooperative" else 1)
    assert {w.attrs["kernel"] for w in walks} == {dp_kernel}
    assert {w.attrs["mode"] for w in walks} == {mode}
    assert sum(r.name == "tree.merge_node" for r in spans) == len(seqs) - 1
    assert applies.value - before == len(seqs) - 1
    assert "repro_dp_apply_calls" in render_prometheus(registry().snapshot())
