"""The distance seam threaded through baselines, engines and serving."""

import numpy as np
import pytest

import repro
from repro.distance import DistanceConfig, KtupleDistance
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

BASELINES = [
    lambda **kw: ClustalWLike(**kw),
    lambda **kw: MuscleLike(refine=False, **kw),
    lambda **kw: MafftLike(iterations=0, **kw),
    lambda **kw: CenterStar(**kw),
]


class TestBaselineSeam:
    @pytest.mark.parametrize("make", BASELINES)
    def test_distance_backend_identical_alignment(self, make, tiny_seqs):
        """threads/pool distance stages reproduce the serial result
        byte-for-byte (the acceptance criterion)."""
        serial = make(distance={"workers": 1}).align(tiny_seqs)
        threads = make(
            distance={"backend": "threads", "workers": 2}
        ).align(tiny_seqs)
        assert serial == threads
        assert serial.to_fasta() == threads.to_fasta()

    def test_processes_distance_backend_identical(self, pool, tiny_seqs):
        serial = ClustalWLike(distance={"workers": 1}).align(tiny_seqs)
        procs = ClustalWLike(
            distance={"backend": "pool", "workers": 2}
        ).align(tiny_seqs)
        assert serial.to_fasta() == procs.to_fasta()

    def test_parallel_baseline_distance_backend_identical(self, tiny_seqs):
        serial = ParallelClustalW().align(tiny_seqs, n_procs=1)
        par = ParallelClustalW().align(tiny_seqs, n_procs=4)
        assert serial.alignment.to_fasta() == par.alignment.to_fasta()

    def test_clustalw_distance_name_equals_legacy_mode(self, tiny_seqs):
        by_mode = ClustalWLike(distance_mode="full").align(tiny_seqs)
        by_name = ClustalWLike(distance="full-dp").align(tiny_seqs)
        assert by_mode == by_name

    def test_distance_config_value(self, tiny_seqs):
        cfg = DistanceConfig(estimator="ktuple", k=3, backend="threads",
                             workers=2)
        aln = CenterStar(distance=cfg).align(tiny_seqs)
        assert aln == CenterStar(distance=KtupleDistance(k=3)).align(
            tiny_seqs
        )

    def test_distance_dict_value(self, tiny_seqs):
        aln = MuscleLike(
            refine=False, distance={"estimator": "ktuple", "k": 5}
        ).align(tiny_seqs)
        assert aln == MuscleLike(refine=False, kmer_k=5).align(tiny_seqs)

    @pytest.mark.parametrize("make", BASELINES)
    def test_bad_distance_options_fail_fast(self, make):
        with pytest.raises((ValueError, KeyError)):
            make(distance="nope")
        with pytest.raises(ValueError):
            make(distance={"backend": "gpu"})
        with pytest.raises(ValueError):
            make(distance={"workers": 0})
        with pytest.raises(TypeError):
            make(distance_backend="threads")  # the removed flat spelling

    def test_parallel_baseline_estimator_choice(self, tiny_seqs):
        """The stage-parallel baseline can now parallelise full-DP."""
        res = ParallelClustalW(distance="full-dp").align(
            tiny_seqs, n_procs=3
        )
        assert res.alignment.n_rows == len(tiny_seqs)
        assert res.ledger.n_messages() > 0

    def test_parallel_baseline_rejects_nested_backend(self):
        with pytest.raises(ValueError, match="nested"):
            ParallelClustalW(
                distance={"estimator": "ktuple", "backend": "threads"}
            )


class TestEngineSeam:
    def test_engine_kwargs_reach_the_aligner(self, tiny_seqs):
        base = repro.align(tiny_seqs, engine="center-star")
        via = repro.align(
            tiny_seqs,
            engine="center-star",
            distance={"estimator": "ktuple", "backend": "threads"},
        )
        assert base.alignment == via.alignment

    def test_distance_options_change_the_content_hash(self, tiny_seqs):
        plain = AlignRequest(tuple(tiny_seqs), engine="clustalw")
        opinionated = AlignRequest(
            tuple(tiny_seqs),
            engine="clustalw",
            engine_kwargs={"distance": "full-dp"},
        )
        assert plain.content_hash() != opinionated.content_hash()

    def test_registry_advertises_the_seam(self):
        for name in ("clustalw", "muscle", "mafft-nwnsi", "center-star",
                     "parallel-baseline"):
            assert engine_stages(name) == {"distance", "tree"}
        assert engine_stages("tcoffee") == frozenset()
        assert engine_stages("sample-align-d") == frozenset()
        assert engine_stages("not-an-engine") == frozenset()

    def test_sample_align_d_local_aligner_distance(self, tiny_seqs):
        """The distance choice reaches the per-bucket local aligners."""
        cfg = repro.SampleAlignDConfig(
            local_aligner="muscle-draft",
            local_aligner_kwargs={"distance": "kmer-fraction"},
        )
        result = repro.align(
            tiny_seqs, engine="sample-align-d", n_procs=2, config=cfg
        )
        assert result.alignment.n_rows == len(tiny_seqs)


class TestGatewaySeam:
    def test_defaults_rewrite_pre_hash(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="center-star")
        expected = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={
                "distance": DistanceConfig(
                    "ktuple", backend="threads"
                ).to_dict()
            },
        )
        with AlignmentGateway(
            n_workers=1,
            default_distance={"estimator": "ktuple", "backend": "threads"},
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == expected.content_hash()
            assert ticket.wait(30).alignment.n_rows == len(tiny_seqs)

    def test_opinionated_request_untouched(self, tiny_seqs):
        request = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"distance": "kmer-fraction"},
        )
        # The request's own estimator wins; only its spelling is
        # canonicalised.
        effective = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={
                "distance": DistanceConfig("kmer-fraction").to_dict()
            },
        )
        with AlignmentGateway(
            n_workers=1, default_distance="ktuple"
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == effective.content_hash()

    def test_non_capable_engine_untouched(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="tcoffee")
        with AlignmentGateway(
            n_workers=1,
            default_distance={"estimator": "full-dp", "backend": "threads"},
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == request.content_hash()

    def test_coalescing_sees_effective_request(self, tiny_seqs):
        """A plain request and a pre-opinionated identical request
        coalesce once the gateway default is folded in."""
        plain = AlignRequest(tuple(tiny_seqs), engine="center-star")
        explicit = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"distance": {"backend": "threads"}},
        )
        with AlignmentGateway(
            n_workers=1, default_distance={"backend": "threads"}
        ) as gw:
            t1 = gw.submit(plain)
            t2 = gw.submit(explicit)
            assert t1.request_hash == t2.request_hash
            t1.wait(30)

    def test_bad_defaults_rejected(self):
        with pytest.raises(ValueError):
            AlignmentGateway(n_workers=1, default_distance="nope")
        with pytest.raises(ValueError):
            AlignmentGateway(
                n_workers=1, default_distance={"backend": "gpu"}
            )
        with pytest.raises(TypeError):
            AlignmentGateway(n_workers=1, default_distance_backend="threads")

    def test_metrics_expose_distance_defaults(self):
        with AlignmentGateway(
            n_workers=1,
            default_distance={"estimator": "ktuple", "backend": "threads"},
        ) as gw:
            m = gw.metrics()
            assert m["default_distance"]["estimator"] == "ktuple"
            assert m["default_distance"]["backend"] == "threads"

    def test_defaults_case_normalised(self, tiny_seqs):
        """'KTuple' and 'ktuple' defaults must not split cache keys."""
        request = AlignRequest(tuple(tiny_seqs), engine="center-star")
        with AlignmentGateway(
            n_workers=1,
            default_distance={"estimator": "KTuple", "backend": "Threads"},
        ) as upper, AlignmentGateway(
            n_workers=1,
            default_distance={"estimator": "ktuple", "backend": "threads"},
        ) as lower:
            assert (
                upper.submit(request).request_hash
                == lower.submit(request).request_hash
            )
