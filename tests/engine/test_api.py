"""AlignRequest/AlignResult/SampleAlignDConfig serialization and hashing."""

import json

import pytest

from repro.align.profile_align import ProfileAlignConfig
from repro.core.config import SampleAlignDConfig
from repro.engine import align
from repro.engine.api import Aligner, AlignRequest, AlignResult
from repro.kmer.rank import RankConfig
from repro.seq.alphabet import MURPHY10
from repro.seq.matrices import PAM250, GapPenalties
from repro.seq.sequence import Sequence, SequenceSet


@pytest.fixture()
def request_seqs(tiny_seqs):
    return tuple(tiny_seqs)


class TestAlignRequest:
    def test_accepts_sequence_set(self, tiny_seqs):
        req = AlignRequest(sequences=tiny_seqs, engine="center-star")
        assert isinstance(req.sequences, tuple)
        assert req.sequence_set() == tiny_seqs

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no sequences"):
            AlignRequest(sequences=())

    def test_rejects_duplicate_ids(self):
        s = Sequence("x", "MKV")
        with pytest.raises(ValueError, match="duplicate"):
            AlignRequest(sequences=(s, s))

    def test_rejects_bad_n_procs(self, request_seqs):
        with pytest.raises(ValueError, match="n_procs"):
            AlignRequest(sequences=request_seqs, n_procs=0)

    def test_content_hash_stable_and_json(self, request_seqs):
        req = AlignRequest(sequences=request_seqs, engine="muscle")
        h1 = req.content_hash()
        assert h1 == req.content_hash()
        json.dumps(req.canonical())  # canonical form must be JSON-able

    def test_hash_ignores_kwarg_order(self, request_seqs):
        a = AlignRequest(
            request_seqs, engine="muscle",
            engine_kwargs={"x": 1, "y": 2},
        )
        b = AlignRequest(
            request_seqs, engine="muscle",
            engine_kwargs={"y": 2, "x": 1},
        )
        assert a.content_hash() == b.content_hash()
        assert hash(a) == hash(b)

    def test_hash_sensitive_to_content(self, request_seqs):
        base = AlignRequest(request_seqs, engine="center-star")
        assert (
            base.content_hash()
            != AlignRequest(request_seqs, engine="muscle").content_hash()
        )
        assert (
            base.content_hash()
            != AlignRequest(request_seqs[:-1], engine="center-star").content_hash()
        )
        assert (
            base.content_hash()
            != AlignRequest(request_seqs, engine="center-star", seed=1).content_hash()
        )

    def test_rejects_non_json_engine_kwargs(self, request_seqs):
        with pytest.raises(TypeError, match="JSON-able"):
            AlignRequest(
                request_seqs, engine="muscle",
                engine_kwargs={"scorer": object()},
            )

    def test_hash_distinguishes_custom_matrix_content(self, request_seqs):
        """A custom matrix reusing a bundled name must not collide."""
        import numpy as np

        from repro.align.profile_align import ProfileAlignConfig
        from repro.seq.alphabet import PROTEIN
        from repro.seq.matrices import BLOSUM62, SubstitutionMatrix

        tweaked = SubstitutionMatrix(
            "blosum62", PROTEIN, BLOSUM62.residue_part + np.eye(PROTEIN.size)
        )
        base = AlignRequest(
            request_seqs, engine="sample-align-d",
            config=SampleAlignDConfig(),
        )
        custom = AlignRequest(
            request_seqs, engine="sample-align-d",
            config=SampleAlignDConfig(
                scoring=ProfileAlignConfig(matrix=tweaked)
            ),
        )
        assert base.content_hash() != custom.content_hash()

    def test_dict_round_trip(self, request_seqs):
        req = AlignRequest(
            sequences=request_seqs,
            engine="sample-align-d",
            n_procs=3,
            seed=11,
            config=SampleAlignDConfig(local_aligner="center-star"),
            engine_kwargs={},
        )
        back = AlignRequest.from_dict(req.to_dict())
        assert back == req
        assert back.content_hash() == req.content_hash()
        # The dict itself must survive a JSON round trip too.
        back2 = AlignRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert back2.content_hash() == req.content_hash()


class TestAlignResult:
    def test_round_trip(self, tiny_seqs):
        result = align(tiny_seqs, engine="center-star")
        assert isinstance(result, AlignResult)
        back = AlignResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.alignment == result.alignment
        assert back.engine == result.engine
        assert back.sp == result.sp

    def test_report_json_able(self, tiny_seqs):
        result = align(tiny_seqs, engine="sample-align-d", n_procs=2, seed=0)
        report = json.loads(json.dumps(result.report()))
        assert report["engine"] == "sample-align-d"
        assert report["n_rows"] == len(tiny_seqs)
        assert "bucket_sizes" in report["diagnostics"]

    def test_summary_mentions_engine(self, tiny_seqs):
        result = align(tiny_seqs, engine="center-star")
        assert "center-star" in result.summary()

    def test_protocol_conformance(self):
        from repro.engine import get_engine

        for name in ("center-star", "sample-align-d", "parallel-baseline"):
            assert isinstance(get_engine(name), Aligner)


class TestConfigSerialization:
    def test_default_round_trip(self):
        cfg = SampleAlignDConfig()
        assert SampleAlignDConfig.from_dict(cfg.to_dict()) == cfg

    def test_non_default_round_trip(self):
        cfg = SampleAlignDConfig(
            rank_config=RankConfig(k=5, alphabet=MURPHY10, transform="log"),
            scoring=ProfileAlignConfig(
                matrix=PAM250,
                gaps=GapPenalties(8.0, 0.4, 0.5),
                clustalw_gap_modifiers=True,
            ),
            samples_per_proc=2,
            local_aligner="center-star",
            local_aligner_kwargs={"kmer_k": 3},
            root_aligner="clustalw",
            tweak=False,
            sampling="random",
            sampling_seed=9,
            ancestor_reduction="tree",
            refine_local_rounds=1,
            post_refine_rounds=2,
        )
        back = SampleAlignDConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_validates_local_aligner_name(self):
        with pytest.raises(ValueError, match="local_aligner 'nope'.*available"):
            SampleAlignDConfig(local_aligner="nope")

    def test_validates_root_aligner_name(self):
        with pytest.raises(ValueError, match="root_aligner"):
            SampleAlignDConfig(root_aligner="not-an-engine")

    def test_error_lists_available_names(self):
        with pytest.raises(ValueError, match="muscle"):
            SampleAlignDConfig(local_aligner="nope")

    @pytest.mark.parametrize("kwargs_field",
                             ["local_aligner_kwargs", "root_aligner_kwargs"])
    @pytest.mark.parametrize("spec", [
        {"distance": {"backend": "pool"}},
        {"distance": {"estimator": "full-dp", "workers": 2}},
        {"tree": {"builder": "nj", "backend": "threads"}},
    ])
    def test_rejects_a_nested_stage_placement(self, kwargs_field, spec):
        """The ranks may not nest a second backend: fail at construction
        (this used to die inside a pool worker).  The tree stage has no
        placement at all, so its ``backend`` is an unknown key."""
        why = "unknown TreeConfig keys" if "tree" in spec else "nested"
        with pytest.raises(ValueError, match=why):
            SampleAlignDConfig(**{kwargs_field: spec})

    def test_accepts_unplaced_stage_specs(self):
        SampleAlignDConfig(
            local_aligner_kwargs={
                "distance": {"estimator": "full-dp", "out": "memory"},
                "tree": "nj",
            },
            # tcoffee has no stages: its kwargs are its own business.
            root_aligner="tcoffee",
            root_aligner_kwargs={},
        )

