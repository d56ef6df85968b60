"""Level-batched progressive merges are byte-identical to per-node ones.

The merge executor hands each DAG level (or a rank's share of one) to
``align_profiles_batch``, which routes the fused batched DP kernel.
The per-node reference is the same walk with an opaque ``merge_fn``
that calls the scalar :func:`align_profiles` -- the executor never
level-batches a ``merge_fn`` -- and every builder and every execution
mode must produce byte-for-byte the FASTA that walk produces.

``align_profiles_batch`` fuses only when the numpy row kernel is the
one loaded (with the compiled one, per-pair calls are faster at every
width), so the module pins the numpy kernel -- reference walk included
-- and ``TestCompiledKernelRouting`` runs the level walk on the compiled
kernel against that same reference.
"""

import numpy as np
import pytest

from repro.align import batchdp, dp
from repro.align.profile_align import (
    ProfileAlignConfig,
    align_profiles,
    align_profiles_batch,
)
from repro.align.progressive import progressive_align
from repro.datagen.rose import generate_family
from repro.distance import all_pairs
from repro.msa.clustalw import clustal_sequence_weights
from repro.obs.metrics import registry
from repro.parcomp.launcher import run_spmd
from repro.tree import get_builder, merge_schedule

NUMPY_KERNEL = dp.DPKernel("numpy", "forced")


@pytest.fixture(autouse=True)
def row_kernel(numpy_kernel):
    """Every test here runs the numpy row kernel unless its class says
    otherwise: that is where the fused path is live."""


@pytest.fixture(scope="module")
def family_seqs():
    """Big enough that the merge DAG has levels above _MIN_BATCH_PAIRS."""
    fam = generate_family(
        n_sequences=16, mean_length=70, relatedness=300, seed=19,
        track_alignment=False,
    )
    return list(fam.sequences)


@pytest.fixture(scope="module")
def family_trees(family_seqs):
    d = all_pairs(family_seqs, "ktuple")
    ids = [s.id for s in family_seqs]
    return {
        name: get_builder(name).build(d, ids)
        for name in ["upgma", "wpgma", "nj", "single-linkage"]
    }


def per_node_align(seqs, tree, weights=None):
    """The scalar walk: one ``align_profiles`` call per internal node."""
    cfg = ProfileAlignConfig()

    def merge(pa, pb):
        merged, _res = align_profiles(pa, pb, cfg)
        return merged

    return progressive_align(seqs, tree, cfg, weights, merge_fn=merge)


@pytest.fixture(scope="module")
def per_pair_reference(family_seqs, family_trees):
    """Per-node serial alignments (numpy scalar kernel only)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_kernel", NUMPY_KERNEL)
        return {
            name: per_node_align(family_seqs, tree).to_fasta()
            for name, tree in family_trees.items()
        }


class TestLevelBatchedByteIdentity:
    @pytest.mark.parametrize(
        "name", ["upgma", "wpgma", "nj", "single-linkage"]
    )
    def test_serial_batched_matches_per_pair(
        self, name, family_seqs, family_trees, per_pair_reference
    ):
        batched = progressive_align(
            family_seqs, family_trees[name]
        ).to_fasta()
        assert batched == per_pair_reference[name]

    @pytest.mark.parametrize("backend", ["threads", "pool"])
    def test_backends_batched_match_per_pair(
        self, pool, backend, family_seqs, family_trees, per_pair_reference
    ):
        out = progressive_align(
            family_seqs, family_trees["upgma"], backend=backend, workers=2
        ).to_fasta()
        assert out == per_pair_reference["upgma"]

    def test_spmd_batched_matches_per_pair(
        self, family_seqs, family_trees, per_pair_reference
    ):
        tree = family_trees["nj"]
        coop = run_spmd(
            2,
            lambda comm: progressive_align(
                family_seqs, tree, comm=comm
            ).to_fasta(),
        )
        assert all(r == per_pair_reference["nj"] for r in coop.results)

    def test_weighted_path_batched_matches_per_pair(
        self, family_seqs, family_trees
    ):
        tree = family_trees["upgma"]
        w = clustal_sequence_weights(tree)
        batched = progressive_align(family_seqs, tree, None, w).to_fasta()
        assert batched == per_node_align(family_seqs, tree, w).to_fasta()

    def test_merge_fn_override_still_per_node(
        self, family_seqs, family_trees
    ):
        """A custom merge_fn is an opaque per-pair callable: the
        executor must not try to level-batch it."""
        from repro.obs.tracing import (
            disable_tracing,
            drain_spans,
            enable_tracing,
        )

        drain_spans()
        enable_tracing()
        try:
            per_node_align(family_seqs, family_trees["upgma"])
        finally:
            disable_tracing()
        names = {r.name for r in drain_spans()}
        assert "tree.merge_node" in names
        assert "dp.profile_batch" not in names

    @pytest.mark.parametrize("batch_pairs", [2, 3, 8, 128])
    def test_chunk_size_grid(
        self,
        batch_pairs,
        family_seqs,
        family_trees,
        per_pair_reference,
        monkeypatch,
    ):
        """Every chunking of a level is byte-identical."""
        monkeypatch.setattr(batchdp, "MAX_BATCH_PAIRS", batch_pairs)
        out = progressive_align(
            family_seqs, family_trees["wpgma"]
        ).to_fasta()
        assert out == per_pair_reference["wpgma"]


class TestAlignProfilesBatchApi:
    def test_matches_per_pair_calls(self, family_seqs):
        from repro.align.profile import Profile

        cfg = ProfileAlignConfig()
        profs = [Profile.from_sequence(s) for s in family_seqs[:10]]
        pairs = [(profs[i], profs[i + 1]) for i in range(0, 10, 2)]
        batch = align_profiles_batch(pairs, cfg)
        for (px, py), (merged, res) in zip(pairs, batch):
            m1, r1 = align_profiles(px, py, cfg)
            assert m1.alignment.to_fasta() == merged.alignment.to_fasta()
            assert r1.score == res.score
            assert np.array_equal(r1.x_map, res.x_map)
            assert np.array_equal(r1.y_map, res.y_map)

    def test_empty_batch(self):
        assert align_profiles_batch([], ProfileAlignConfig()) == []

    def test_batched_spans_and_counters_fire(
        self, family_seqs, family_trees
    ):
        from repro.obs.metrics import registry
        from repro.obs.tracing import (
            disable_tracing,
            drain_spans,
            enable_tracing,
        )

        before = registry().counter("dp.profile_batch_pairs").value
        drain_spans()
        enable_tracing()
        try:
            progressive_align(family_seqs, family_trees["upgma"])
        finally:
            disable_tracing()
        names = {r.name for r in drain_spans()}
        assert "tree.merge_level" in names
        assert "dp.profile_batch" in names  # a level above _MIN_BATCH_PAIRS
        assert "tree.merge_node" not in names
        after = registry().counter("dp.profile_batch_pairs").value
        assert after > before

    def test_schedule_has_batchable_level(self, family_trees):
        """The fixture family must actually exercise the fused path."""
        from repro.align.profile_align import _MIN_BATCH_PAIRS

        widths = [
            len(level)
            for level in merge_schedule(family_trees["upgma"]).levels
        ]
        assert max(widths) >= _MIN_BATCH_PAIRS

    def test_per_pair_spans_name_the_numpy_kernel(
        self, traced, family_seqs, family_trees
    ):
        _aln, spans = traced(
            lambda: progressive_align(family_seqs, family_trees["upgma"])
        )
        per_pair = [r for r in spans if r.name == "dp.profile_align"]
        assert per_pair  # the narrow levels near the root
        assert {r.attrs["kernel"] for r in per_pair} == {"numpy"}


class TestCompiledKernelRouting:
    @pytest.fixture(autouse=True)
    def row_kernel(self, compiled_kernel):
        """Overrides the module's pin."""

    @pytest.mark.parametrize(
        "name", ["upgma", "wpgma", "nj", "single-linkage"]
    )
    def test_level_walk_is_per_pair_and_byte_identical(
        self, name, traced, family_seqs, family_trees, per_pair_reference
    ):
        fused_pairs = registry().counter("dp.profile_batch_pairs")
        before = fused_pairs.value
        aln, spans = traced(
            lambda: progressive_align(family_seqs, family_trees[name])
        )
        assert aln.to_fasta() == per_pair_reference[name]
        names = [r.name for r in spans]
        assert "tree.merge_level" in names  # still walked level by level
        assert "dp.profile_batch" not in names
        assert fused_pairs.value == before
        merges = [r for r in spans if r.name == "dp.profile_align"]
        assert len(merges) == len(family_seqs) - 1
        assert {r.attrs["kernel"] for r in merges} == {"c"}
