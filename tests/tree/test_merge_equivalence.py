"""The acceptance criterion: serial and cooperative progressive merges
are byte-identical for every registered tree builder."""

import pytest

from repro.align.profile_align import (
    ProfileAlignConfig, align_profiles, profile_path,
)
from repro.align.progressive import progressive_align
from repro.distance import all_pairs
from repro.msa.clustalw import clustal_sequence_weights
from repro.parcomp.launcher import run_spmd
from repro.tree import available_builders, get_builder, progressive_merge


@pytest.fixture(scope="module")
def trees(tiny_seqs):
    d = all_pairs(list(tiny_seqs), "ktuple", k=3)
    return {
        name: get_builder(name).build(d, tiny_seqs.ids)
        for name in available_builders()
    }


def cooperative(ranks, walk):
    """``walk(comm)``'s FASTA from every rank of a ``ranks``-rank run."""
    return run_spmd(ranks, lambda comm: walk(comm).to_fasta()).results


def _cooperative_fasta(comm, seqs, tree):
    """A module-level rank program, so process ranks can unpickle it."""
    return progressive_align(seqs, tree, comm=comm).to_fasta()


class TestAllModesIdentical:
    @pytest.mark.parametrize(
        "name", ["upgma", "wpgma", "nj", "single-linkage"]
    )
    def test_serial_and_cooperative(self, name, trees, tiny_seqs):
        tree = trees[name]
        seqs = list(tiny_seqs)
        serial = progressive_align(seqs, tree).to_fasta()
        coop = cooperative(
            3, lambda comm: progressive_align(seqs, tree, comm=comm)
        )
        assert coop == [serial] * 3

    def test_weighted_merge_identical(self, trees, tiny_seqs):
        """The CLUSTALW weighted path re-weights merged profiles; it must
        stay byte-identical too."""
        tree = trees["nj"]
        seqs = list(tiny_seqs)
        w = clustal_sequence_weights(tree)
        serial = progressive_align(seqs, tree, None, w).to_fasta()
        coop = cooperative(
            2, lambda comm: progressive_align(seqs, tree, None, w, comm=comm)
        )
        assert coop == [serial] * 2

    def test_merge_fn_override_identical(self, trees, tiny_seqs):
        """A custom merge_fn (the MAFFT anchored path's hook) schedules
        identically."""
        tree = trees["upgma"]
        seqs = list(tiny_seqs)
        cfg = ProfileAlignConfig()

        def merge(pa, pb):
            res = profile_path(pa, pb, cfg)
            return res.x_map, res.y_map

        serial = progressive_align(seqs, tree, cfg, merge_fn=merge).to_fasta()
        coop = cooperative(3, lambda comm: progressive_align(
            seqs, tree, cfg, merge_fn=merge, comm=comm
        ))
        assert coop == [serial] * 3


    @pytest.mark.parametrize("ranks", [1, 6])
    @pytest.mark.parametrize(
        "name", ["upgma", "wpgma", "nj", "single-linkage"]
    )
    def test_ranks_beyond_schedule_width(self, name, ranks, trees, tiny_seqs):
        """One rank walks every level alone; six ranks outnumber every
        level of a five-leaf tree, so some ranks merge nothing."""
        tree = trees[name]
        seqs = list(tiny_seqs)
        serial = progressive_align(seqs, tree).to_fasta()
        coop = cooperative(
            ranks, lambda comm: progressive_align(seqs, tree, comm=comm)
        )
        assert coop == [serial] * ranks

    def test_larger_family_processes(self, one_shot_backend, small_family):
        """Cooperative ranks in worker processes: the clades cross a
        process boundary each level and the bytes do not move."""
        from repro.tree import UpgmaBuilder

        seqs = list(small_family.sequences)
        d = all_pairs(seqs, "ktuple")
        tree = UpgmaBuilder().build(d, [s.id for s in seqs])
        serial = progressive_align(seqs, tree).to_fasta()
        procs = run_spmd(
            2, _cooperative_fasta, args=(seqs, tree),
            backend=one_shot_backend,
        ).results
        assert procs == [serial] * 2


class TestProgressiveMergeApi:
    @pytest.mark.parametrize("param", ["backend", "workers", "cost_model"])
    @pytest.mark.parametrize("walk", ["progressive_align", "progressive_merge"])
    def test_placement_parameters_are_gone(self, walk, param, trees,
                                           tiny_seqs):
        """The walk runs where its caller runs: a placement keyword is a
        ``TypeError``, never accepted and ignored."""
        from repro.align.profile import Profile

        seqs = list(tiny_seqs)
        value = {"backend": "threads", "workers": 2, "cost_model": None}
        with pytest.raises(TypeError, match=param):
            if walk == "progressive_align":
                progressive_align(seqs, trees["upgma"], **{param: value[param]})
            else:
                progressive_merge(
                    [Profile.from_sequence(s) for s in seqs], trees["upgma"],
                    lambda s, a, b: a, **{param: value[param]},
                )

    def test_root_profile_matches_serial_walk(self, trees, tiny_seqs):
        from repro.align.profile import Profile

        tree = trees["upgma"]
        by_id = {s.id: s for s in tiny_seqs}
        profiles = [Profile.from_sequence(by_id[l]) for l in tree.labels]
        cfg = ProfileAlignConfig()

        def node(step, pa, pb):
            merged, _res = align_profiles(pa, pb, cfg)
            return merged

        root_serial = progressive_merge(profiles, tree, node)
        roots = run_spmd(2, lambda comm: progressive_merge(
            profiles, tree, node, comm=comm
        ).alignment.to_fasta()).results
        assert roots == [root_serial.alignment.to_fasta()] * 2

    def test_too_few_profiles_rejected(self, trees):
        with pytest.raises(ValueError, match="at least 2"):
            progressive_merge([], trees["upgma"], lambda s, a, b: a)
        from repro.align.profile import Profile
        from repro.seq.sequence import Sequence

        p = Profile.from_sequence(Sequence("x", "MKV"))
        with pytest.raises(ValueError, match="at least 2"):
            progressive_merge([p], trees["upgma"], lambda s, a, b: a)

    def test_leaf_count_mismatch_rejected(self, trees, tiny_seqs):
        from repro.align.profile import Profile

        profiles = [Profile.from_sequence(s) for s in list(tiny_seqs)[:3]]
        with pytest.raises(ValueError, match="leaves"):
            progressive_merge(
                profiles, trees["upgma"], lambda s, a, b: a
            )
