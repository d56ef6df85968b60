"""Backend selection through the unified engine API and service."""

import pytest

from repro.core.config import SampleAlignDConfig
from repro.engine import AlignRequest, AlignmentService, get_engine


@pytest.fixture(scope="module")
def seqs(request):
    family = request.getfixturevalue("small_family")
    return tuple(family.sequences)


class TestEngineFactory:
    def test_engine_kwargs_build_backend_engine(self):
        engine = get_engine("sample-align-d", backend="pool")
        assert engine.backend == "pool"
        assert "pool" in repr(engine)

    def test_bad_backend_rejected_at_factory(self):
        with pytest.raises(ValueError, match="not a registered execution"):
            get_engine("sample-align-d", backend="gpu")


class TestRequestPaths:
    def test_engine_kwargs_backend_runs_processes(self, pool, seqs):
        request = AlignRequest(
            sequences=seqs,
            engine="sample-align-d",
            n_procs=2,
            engine_kwargs={"backend": "pool"},
        )
        svc = AlignmentService(max_workers=1)
        result = svc.run(request)
        assert result.diagnostics["backend"] == "pool"

    def test_config_backend_is_an_unknown_field(self, seqs):
        """One spelling: the backend is an engine kwarg, never a config
        field, so one job cannot hash two ways."""
        with pytest.raises(TypeError, match="backend"):
            SampleAlignDConfig(backend="threads")
        data = AlignRequest(
            sequences=seqs, engine="sample-align-d", n_procs=2,
            config=SampleAlignDConfig(),
        ).to_dict()
        data["config"]["backend"] = "threads"
        with pytest.raises(TypeError, match="backend"):
            AlignRequest.from_dict(data)

    def test_default_is_threads(self, seqs):
        request = AlignRequest(
            sequences=seqs, engine="sample-align-d", n_procs=2
        )
        svc = AlignmentService(max_workers=1)
        result = svc.run(request)
        assert result.diagnostics["backend"] == "threads"

    def test_backend_affects_cache_key(self, pool, seqs):
        """Requests differing only in backend are distinct jobs."""
        base = dict(sequences=seqs, engine="sample-align-d", n_procs=2)
        r_threads = AlignRequest(engine_kwargs={"backend": "threads"}, **base)
        r_procs = AlignRequest(engine_kwargs={"backend": "pool"}, **base)
        assert r_threads.content_hash() != r_procs.content_hash()
        svc = AlignmentService(max_workers=1)
        a = svc.run(r_threads)
        b = svc.run(r_procs)
        assert svc.stats["computed"] == 2
        # ... but the alignment bytes agree (the backend contract).
        assert a.alignment.to_fasta() == b.alignment.to_fasta()

    def test_round_trip_request_with_backend(self, seqs):
        request = AlignRequest(
            sequences=seqs,
            engine="sample-align-d",
            n_procs=2,
            engine_kwargs={"backend": "pool"},
        )
        restored = AlignRequest.from_dict(request.to_dict())
        assert restored.engine_kwargs == {"backend": "pool"}
        assert restored.content_hash() == request.content_hash()
