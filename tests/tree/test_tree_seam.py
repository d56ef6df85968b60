"""The tree seam threaded through baselines, engines, serving and CLI."""

import json

import pytest

import repro
from repro.engine import AlignRequest
from repro.engine.registry import engine_stages
from repro.msa import (
    CenterStar,
    ClustalWLike,
    MafftLike,
    MuscleLike,
    ParallelClustalW,
)
from repro.serve.gateway import AlignmentGateway
from repro.tree import TreeConfig

BASELINES = [
    lambda **kw: ClustalWLike(**kw),
    lambda **kw: MuscleLike(refine=False, **kw),
    lambda **kw: MafftLike(iterations=0, **kw),
    lambda **kw: CenterStar(**kw),
]


class TestBaselineSeam:
    def test_default_builders_match_history(self, tiny_seqs):
        """tree='nj' on clustalw and tree='upgma' on muscle are the
        historical defaults -- identical output."""
        assert ClustalWLike(tree="nj").align(tiny_seqs) == \
            ClustalWLike().align(tiny_seqs)
        assert MuscleLike(refine=False, tree="upgma").align(tiny_seqs) == \
            MuscleLike(refine=False).align(tiny_seqs)

    def test_builder_choice_changes_muscle(self, small_family):
        seqs = list(small_family.sequences)
        upgma_aln = MuscleLike(refine=False, two_stage=False).align(seqs)
        single = MuscleLike(
            refine=False, two_stage=False, tree="single-linkage"
        ).align(seqs)
        # Different topologies are allowed to give different alignments,
        # but both must round-trip the inputs.
        for aln in (upgma_aln, single):
            un = aln.ungapped()
            for s in seqs:
                assert un[s.id].residues == s.residues

    def test_tree_config_value(self, tiny_seqs):
        cfg = TreeConfig(builder="wpgma")
        aln = CenterStar(tree=cfg).align(tiny_seqs)
        assert aln == CenterStar(tree="wpgma").align(tiny_seqs)

    def test_tree_dict_value(self, tiny_seqs):
        aln = MafftLike(iterations=0, tree={"builder": "upgma"}).align(
            tiny_seqs
        )
        assert aln == MafftLike(iterations=0, tree="upgma").align(tiny_seqs)

    def test_center_star_default_is_caterpillar(self, tiny_seqs):
        """tree=None keeps the classic star order; a builder override is
        a different (tree-guided) aligner."""
        star = CenterStar().align(tiny_seqs)
        guided = CenterStar(tree="upgma").align(tiny_seqs)
        un_star, un_guided = star.ungapped(), guided.ungapped()
        for s in tiny_seqs:
            assert un_star[s.id].residues == s.residues
            assert un_guided[s.id].residues == s.residues

    @pytest.mark.parametrize("make", BASELINES)
    def test_bad_tree_options_fail_fast(self, make):
        with pytest.raises((ValueError, KeyError)):
            make(tree="nope")
        with pytest.raises(ValueError, match="unknown TreeConfig keys"):
            make(tree={"backend": "threads"})  # the merge has no placement
        with pytest.raises(ValueError, match="unknown TreeConfig keys"):
            make(tree={"workers": 2})
        with pytest.raises(TypeError):
            make(tree_backend="threads")  # the removed flat spelling

    def test_parallel_baseline_builder_choice(self, tiny_seqs):
        res = ParallelClustalW(tree="upgma").align(tiny_seqs, n_procs=3)
        assert res.alignment.n_rows == len(tiny_seqs)

    def test_parallel_baseline_rejects_nested_backend(self):
        with pytest.raises(ValueError, match="unknown TreeConfig keys"):
            ParallelClustalW(
                tree={"builder": "nj", "backend": "threads"}
            )

    def test_parallel_baseline_cooperative_merge_identical(self, tiny_seqs):
        """merge_mode='cooperative' lifts the stage-3 Amdahl cap with a
        byte-identical alignment."""
        root = ParallelClustalW().align(tiny_seqs, n_procs=3)
        coop = ParallelClustalW(merge_mode="cooperative").align(
            tiny_seqs, n_procs=3
        )
        assert root.alignment.to_fasta() == coop.alignment.to_fasta()
        assert coop.ledger.n_messages() > 0

    def test_parallel_baseline_bad_merge_mode(self):
        with pytest.raises(ValueError, match="merge_mode"):
            ParallelClustalW(merge_mode="teleport")


class TestEngineSeam:
    def test_engine_kwargs_reach_the_aligner(self, tiny_seqs):
        via = repro.align(
            tiny_seqs, engine="clustalw", tree={"builder": "upgma"}
        )
        assert via.alignment == ClustalWLike(tree="upgma").align(tiny_seqs)

    @pytest.mark.parametrize("key, value", [("backend", "pool"),
                                            ("workers", 2)])
    @pytest.mark.parametrize("engine", sorted(
        name for name in repro.available_engines()
        if "tree" in engine_stages(name)
    ))
    def test_engine_refuses_a_tree_placement(self, engine, key, value,
                                             tiny_seqs):
        """Every tree-capable engine's merge runs where the engine runs:
        an old placement key is a typed error, never accepted and
        ignored."""
        with pytest.raises(ValueError, match=f"unknown TreeConfig keys "
                                             rf"\['{key}'\]"):
            repro.align(tiny_seqs, engine=engine, tree={key: value})

    def test_tree_options_change_the_content_hash(self, tiny_seqs):
        plain = AlignRequest(tuple(tiny_seqs), engine="clustalw")
        opinionated = AlignRequest(
            tuple(tiny_seqs),
            engine="clustalw",
            engine_kwargs={"tree": "upgma"},
        )
        assert plain.content_hash() != opinionated.content_hash()

    def test_registry_advertises_the_seam(self):
        for name in ("clustalw", "muscle", "mafft-nwnsi", "center-star",
                     "parallel-baseline"):
            assert "tree" in engine_stages(name)
        assert engine_stages("tcoffee") == frozenset()
        assert engine_stages("sample-align-d") == frozenset()
        assert engine_stages("not-an-engine") == frozenset()

    def test_sample_align_d_local_aligner_tree(self, tiny_seqs):
        """The builder choice reaches the per-bucket local aligners."""
        cfg = repro.SampleAlignDConfig(
            local_aligner="muscle-draft",
            local_aligner_kwargs={"tree": "wpgma"},
        )
        result = repro.align(
            tiny_seqs, engine="sample-align-d", n_procs=2, config=cfg
        )
        assert result.alignment.n_rows == len(tiny_seqs)

    def test_custom_aligner_can_advertise_tree_options(self):
        from repro.msa.registry import register_aligner, unregister_aligner

        register_aligner(
            "tree-capable-test",
            lambda **kw: CenterStar(**kw),
            stages=("tree",),
        )
        try:
            assert engine_stages("tree-capable-test") == {"tree"}
            with pytest.raises(ValueError, match="unknown pipeline stages"):
                register_aligner(
                    "tree-capable-test", CenterStar, overwrite=True,
                    stages=("tree_backend",),
                )
        finally:
            unregister_aligner("tree-capable-test")


class TestGatewaySeam:
    def test_defaults_rewrite_pre_hash(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="center-star")
        expected = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"tree": TreeConfig("upgma").to_dict()},
        )
        with AlignmentGateway(
            n_workers=1, default_tree={"builder": "upgma"}
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == expected.content_hash()
            assert ticket.wait(30).alignment.n_rows == len(tiny_seqs)

    def test_opinionated_request_untouched(self, tiny_seqs):
        request = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"tree": "nj"},
        )
        # The request's own builder wins; only its spelling is
        # canonicalised.
        effective = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"tree": TreeConfig("nj").to_dict()},
        )
        with AlignmentGateway(n_workers=1, default_tree="upgma") as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == effective.content_hash()

    def test_non_capable_engine_untouched(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="tcoffee")
        with AlignmentGateway(n_workers=1, default_tree="nj") as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == request.content_hash()

    def test_coalescing_sees_effective_request(self, tiny_seqs):
        plain = AlignRequest(tuple(tiny_seqs), engine="center-star")
        explicit = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"tree": {"builder": "upgma"}},
        )
        with AlignmentGateway(n_workers=1, default_tree="upgma") as gw:
            t1 = gw.submit(plain)
            t2 = gw.submit(explicit)
            assert t1.request_hash == t2.request_hash
            t1.wait(30)

    def test_bad_defaults_rejected(self):
        with pytest.raises(ValueError):
            AlignmentGateway(n_workers=1, default_tree="nope")
        with pytest.raises(ValueError, match="unknown TreeConfig keys"):
            AlignmentGateway(n_workers=1, default_tree={"backend": "pool"})
        with pytest.raises(TypeError):
            AlignmentGateway(n_workers=1, default_tree_backend="threads")

    def test_metrics_expose_tree_defaults(self):
        with AlignmentGateway(n_workers=1, default_tree="nj") as gw:
            m = gw.metrics()
            assert m["default_tree"] == TreeConfig("nj").to_dict()
            assert "backend" not in m["default_tree"]

    def test_defaults_case_normalised(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="center-star")
        with AlignmentGateway(
            n_workers=1, default_tree={"builder": "UPGMA"}
        ) as upper, AlignmentGateway(
            n_workers=1, default_tree={"builder": "upgma"}
        ) as lower:
            assert (
                upper.submit(request).request_hash
                == lower.submit(request).request_hash
            )


class TestCli:
    @pytest.fixture()
    def fasta(self, tmp_path, tiny_seqs):
        from repro.seq.fasta import to_fasta

        path = tmp_path / "tiny.fasta"
        path.write_text(to_fasta(list(tiny_seqs)), encoding="ascii")
        return str(path)

    def test_engines_lists_tree_builders(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("upgma", "wpgma", "nj", "single-linkage"):
            assert name in out

    def test_trees_build_and_export(self, fasta, tmp_path, capsys):
        from repro.cli import main

        nwk = tmp_path / "out.nwk"
        stats = tmp_path / "stats.json"
        rc = main([
            "trees", fasta, "--builder", "nj",
            "-o", str(nwk), "--json", str(stats),
        ])
        assert rc == 0
        payload = json.loads(stats.read_text())
        assert payload["builder"] == "nj"
        assert payload["schedule"]["n_leaves"] == 5
        assert payload["schedule"]["n_merges"] == 4
        text = nwk.read_text()
        assert text.strip().endswith(";")
        from repro.tree import GuideTree

        assert GuideTree.from_newick(text).n_leaves == 5

    def test_trees_from_newick(self, tmp_path, capsys):
        from repro.cli import main

        nwk = tmp_path / "t.nwk"
        nwk.write_text("((a,b),(c,d));", encoding="ascii")
        assert main(["trees", str(nwk), "--from-newick"]) == 0
        out = capsys.readouterr().out
        assert "leaves=4" in out

    def test_trees_bad_builder(self, fasta, capsys):
        from repro.cli import main

        assert main(["trees", fasta, "--builder", "nope"]) == 2
        assert "unknown tree builder" in capsys.readouterr().err

    def test_align_tree_flags(self, fasta, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "aln.fasta"
        rc = main([
            "align", fasta, "--engine", "clustalw",
            "--tree", "upgma", "-o", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith(">")

    @pytest.mark.parametrize("command", [["align", "x.fa"], ["serve"],
                                         ["loadtest"], ["trace"]])
    def test_tree_backend_flag_is_gone(self, command, capsys):
        """The merge has no placement: the old flag is a usage error."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*command, "--tree-backend", "pool"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tree-backend" in err
        assert "Traceback" not in err

    def test_align_tree_reaches_local_aligner(self, fasta, tmp_path):
        from repro.cli import main

        report = tmp_path / "run.json"
        rc = main([
            "align", fasta, "-p", "2", "--tree", "upgma",
            "-o", str(tmp_path / "a.fasta"), "--json", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["engine"] == "sample-align-d"

    def test_engines_json_advertises_tree_layer(self, capsys):
        from repro.cli import main

        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "tree_builders" in payload
        by_name = {e["name"]: e for e in payload["engines"]}
        assert "tree" in by_name["clustalw"]["stages"]
        assert "tree" in by_name["parallel-baseline"]["stages"]
        assert by_name["parallel-baseline"]["kind"] == "distributed"
        assert by_name["sample-align-d"]["stages"] == []
