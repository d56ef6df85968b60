"""The acceptance criterion: serial, threads, pool (warm workers and
one-shot processes) and cooperative progressive merges are byte-identical
for every registered tree builder."""

import numpy as np
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


class TestAllModesIdentical:
    @pytest.mark.parametrize(
        "name", ["upgma", "wpgma", "nj", "single-linkage"]
    )
    def test_serial_threads_processes_comm(self, pool, name, trees, tiny_seqs):
        tree = trees[name]
        seqs = list(tiny_seqs)
        serial = progressive_align(seqs, tree).to_fasta()
        threads = progressive_align(
            seqs, tree, backend="threads", workers=3
        ).to_fasta()
        procs = progressive_align(
            seqs, tree, backend="pool", workers=2
        ).to_fasta()
        coop = run_spmd(
            3, lambda comm: progressive_align(seqs, tree, comm=comm).to_fasta()
        )
        assert threads == serial
        assert procs == serial
        assert all(r == serial for r in coop.results)

    def test_weighted_merge_identical(self, pool, trees, tiny_seqs):
        """The CLUSTALW weighted path re-weights merged profiles; it must
        stay byte-identical too."""
        tree = trees["nj"]
        seqs = list(tiny_seqs)
        w = clustal_sequence_weights(tree)
        serial = progressive_align(seqs, tree, None, w).to_fasta()
        threads = progressive_align(
            seqs, tree, None, w, backend="threads", workers=2
        ).to_fasta()
        procs = progressive_align(
            seqs, tree, None, w, backend="pool", workers=2
        ).to_fasta()
        assert threads == serial == procs

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
        threads = progressive_align(
            seqs, tree, cfg, merge_fn=merge, backend="threads", workers=3
        ).to_fasta()
        assert threads == serial

    def test_larger_family_processes(self, one_shot_backend, small_family):
        from repro.tree import UpgmaBuilder

        seqs = list(small_family.sequences)
        d = all_pairs(seqs, "ktuple")
        tree = UpgmaBuilder().build(d, [s.id for s in seqs])
        serial = progressive_align(seqs, tree).to_fasta()
        procs = progressive_align(
            seqs, tree, backend=one_shot_backend, workers=2
        ).to_fasta()
        assert procs == serial


class TestProgressiveMergeApi:
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
        root_par = progressive_merge(
            profiles, tree, node, backend="threads", workers=2
        )
        assert (
            root_serial.alignment.to_fasta() == root_par.alignment.to_fasta()
        )

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

    def test_comm_excludes_backend(self, trees, tiny_seqs):
        from repro.align.profile import Profile

        profiles = [Profile.from_sequence(s) for s in tiny_seqs]

        def program(comm):
            with pytest.raises(ValueError, match="cooperative"):
                progressive_merge(
                    profiles, trees["upgma"], lambda s, a, b: a,
                    comm=comm, backend="threads",
                )
            return True

        assert run_spmd(1, program).results == [True]

    def test_bad_workers(self, trees, tiny_seqs):
        from repro.align.profile import Profile

        profiles = [Profile.from_sequence(s) for s in tiny_seqs]
        with pytest.raises(ValueError, match="workers"):
            progressive_merge(
                profiles, trees["upgma"], lambda s, a, b: a, workers=0
            )

    def test_workers_capped_at_schedule_width(self, trees, tiny_seqs):
        """Asking for more ranks than the DAG can feed must still work."""
        seqs = list(tiny_seqs)
        aln = progressive_align(
            seqs, trees["single-linkage"], backend="threads", workers=64
        )
        assert aln.to_fasta() == progressive_align(
            seqs, trees["single-linkage"]
        ).to_fasta()
