"""Unified engine registry: resolution, parity with legacy paths, plug-ins."""

import pytest

from repro import sample_align_d
from repro.engine import (
    align,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engine.registry import (
    available_sequential_aligners,
    engine_stages,
    register_sequential_aligner,
)
from repro.msa import available_aligners, get_aligner
from repro.msa.centerstar import CenterStar
from repro.msa.parallel_baseline import ParallelClustalW
from repro.msa.registry import register_aligner, unregister_aligner


class TestResolution:
    def test_every_msa_name_is_an_engine(self):
        engines = available_engines()
        for name in available_aligners():
            assert engines[name] == "sequential"

    def test_distributed_engines_present(self):
        engines = available_engines()
        assert engines["sample-align-d"] == "distributed"
        assert engines["parallel-baseline"] == "distributed"

    def test_unknown_engine(self):
        with pytest.raises(KeyError, match="unknown engine"):
            get_engine("nope")

    def test_case_insensitive(self):
        assert get_engine("Center-Star").name == "center-star"

    def test_kwargs_passthrough(self):
        eng = get_engine("muscle", refine_rounds=5)
        assert eng.aligner.refine_rounds == 5


class TestLegacyParity:
    """Every unified-registry name produces the legacy path's output."""

    @pytest.mark.parametrize("name", sorted(
        # Every built-in sequential name, probcons included: the engine
        # path must match the legacy registry path output exactly.
        ["muscle", "muscle-p", "muscle-draft", "clustalw", "clustalw-full",
         "tcoffee", "probcons", "mafft-nwnsi", "mafft-fftnsi", "center-star"]
    ))
    def test_sequential_matches_legacy(self, name, tiny_seqs):
        legacy = get_aligner(name).align(tiny_seqs)
        unified = align(tiny_seqs, engine=name)
        assert unified.alignment == legacy
        assert unified.engine == name
        assert unified.n_procs == 1

    def test_all_builtin_names_covered(self):
        covered = set(
            self.test_sequential_matches_legacy.pytestmark[0].args[1]
        )
        assert covered >= set(available_aligners())

    def test_sample_align_d_matches_legacy(self, tiny_seqs):
        legacy = sample_align_d(tiny_seqs, n_procs=2, seed=3)
        unified = align(tiny_seqs, engine="sample-align-d", n_procs=2, seed=3)
        assert unified.alignment == legacy.alignment
        assert unified.sp == legacy.sp
        assert unified.details.config == legacy.config

    def test_parallel_baseline_matches_legacy(self, tiny_seqs):
        legacy = ParallelClustalW().align(tiny_seqs, n_procs=2)
        unified = align(tiny_seqs, engine="parallel-baseline", n_procs=2)
        assert unified.alignment == legacy.alignment
        assert unified.n_procs == 2


class TestPlugins:
    def test_register_engine_requires_known_kind(self):
        with pytest.raises(ValueError, match="kind"):
            register_engine("weird", lambda **kw: None, kind="quantum")

    def test_register_overwrite_unregister(self):
        register_sequential_aligner("plug-seq", lambda **kw: CenterStar(**kw))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_sequential_aligner(
                    "plug-seq", lambda **kw: CenterStar(**kw)
                )
            # Escape hatch.
            register_sequential_aligner(
                "plug-seq", lambda **kw: CenterStar(**kw), overwrite=True
            )
        finally:
            unregister_engine("plug-seq")
        assert "plug-seq" not in available_engines()

    def test_unregister_unknown(self):
        with pytest.raises(KeyError, match="not registered"):
            unregister_engine("never-was")

    def test_msa_register_mirrors_into_engines(self, tiny_seqs):
        register_aligner("mirror-test", lambda **kw: CenterStar(**kw))
        try:
            assert "mirror-test" in available_aligners()
            assert available_engines()["mirror-test"] == "sequential"
            # Usable through every front door.
            assert get_aligner("mirror-test").align(tiny_seqs).n_rows == 5
            assert align(tiny_seqs, engine="mirror-test").alignment.n_rows == 5
        finally:
            unregister_aligner("mirror-test")
        assert "mirror-test" not in available_aligners()
        assert "mirror-test" not in available_engines()

    def test_msa_register_overwrite(self):
        register_aligner("swap-test", lambda **kw: CenterStar(**kw))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_aligner("swap-test", lambda **kw: CenterStar(**kw))
            register_aligner(
                "swap-test", lambda **kw: CenterStar(**kw), overwrite=True
            )
        finally:
            unregister_aligner("swap-test")

    def test_unregister_aligner_rejects_distributed(self):
        with pytest.raises(KeyError, match="unknown aligner"):
            unregister_aligner("sample-align-d")
        assert "sample-align-d" in available_engines()

    def test_overwrite_cannot_change_engine_kind(self):
        """A sequential plug-in must not displace a distributed engine."""
        with pytest.raises(ValueError, match="cannot overwrite"):
            register_aligner(
                "sample-align-d", lambda **kw: CenterStar(**kw),
                overwrite=True,
            )
        assert available_engines()["sample-align-d"] == "distributed"

    def test_registered_name_valid_as_local_aligner(self, tiny_seqs):
        from repro.core.config import SampleAlignDConfig

        register_aligner("cfg-test", lambda **kw: CenterStar(**kw))
        try:
            cfg = SampleAlignDConfig(local_aligner="cfg-test")
            res = sample_align_d(tiny_seqs, n_procs=2, config=cfg)
            assert res.alignment.n_rows == len(tiny_seqs)
        finally:
            unregister_aligner("cfg-test")

    def test_sequential_section_view(self):
        assert set(available_sequential_aligners()) == set(available_aligners())
        assert "sample-align-d" not in available_sequential_aligners()


GUIDE_TREE_ALIGNERS = sorted(
    name for name in available_aligners()
    if {"distance", "tree"} <= engine_stages(name)
)


class TestOneSpellingOfTheStages:
    def test_the_builtin_guide_tree_aligners_are_found(self):
        assert {"muscle", "muscle-p", "muscle-draft", "clustalw",
                "clustalw-full", "mafft-nwnsi", "mafft-fftnsi",
                "center-star"} <= set(GUIDE_TREE_ALIGNERS)

    @pytest.mark.parametrize(
        "cls_of",
        [lambda name=name: type(get_aligner(name))
         for name in GUIDE_TREE_ALIGNERS]
        + [lambda: ParallelClustalW],
        ids=GUIDE_TREE_ALIGNERS + ["parallel-baseline"],
    )
    def test_pipeline_fields_are_distance_and_tree_only(self, cls_of):
        import dataclasses
        import re

        names = {f.name for f in dataclasses.fields(cls_of())}
        assert {"distance", "tree"} <= names
        # ``distance_mode`` is CLUSTALW's historical-estimator selector
        # (full / ktuple), not a second spelling of a stage option.
        flat = {n for n in names if re.fullmatch(r"distance_.*|tree_.*", n)}
        assert flat <= {"distance_mode"}

    def test_removed_registry_kwargs_raise(self):
        with pytest.raises(TypeError):
            register_engine(
                "x", lambda **kw: None, distance_options=("distance",)
            )
        with pytest.raises(TypeError):
            register_aligner("x", CenterStar, tree_options=("tree",))
