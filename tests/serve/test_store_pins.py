"""Compatibility pins for stored results and request hashes.

A store is content-addressed by :meth:`AlignRequest.content_hash`, and
its entries are the JSON bytes :meth:`ResultStore.put` writes.  If either
moves, every existing store silently stops hitting (or, worse, decodes
differently).  The literals below were recorded from the code before the
hit path's decode was vectorised; they must never change.
"""

from repro.core.config import SampleAlignDConfig
from repro.engine.api import AlignRequest, AlignResult
from repro.seq.alignment import Alignment
from repro.seq.alphabet import DNA
from repro.seq.sequence import Sequence
from repro.serve.store import ResultStore

PROTEIN_HASH = (
    "255fba2162acb555856518ae8081b3d1f0f8362442b5c6020899f56bd92f60e8"
)
DNA_HASH = "1a3c6445184c110bde7d10d1d39b3d20c721e37773b4d6c143bb1fea399df170"

#: What ``ResultStore.put`` writes for :func:`_protein_result`.
PROTEIN_ENTRY = (
    b'{"alignment": {"alphabet": "protein", "ids": ["a", "b", "c"], '
    b'"rows": ["MKV-LAAGIV", "MKV-LAGIVW", "MKDEXLAG--"]}, '
    b'"diagnostics": {"buckets": [2, 1]}, "engine": "sample-align-d", '
    b'"n_columns": 10, "n_procs": 2, "n_rows": 3, "request_hash": '
    b'"255fba2162acb555856518ae8081b3d1f0f8362442b5c6020899f56bd92f60e8", '
    b'"sp": 12.5, "wall_time": 0.25}'
)

#: A DNA entry as the earlier per-row code path wrote it to disk.
DNA_ENTRY = (
    b'{"alignment": {"alphabet": "dna", "ids": ["d1", "d2", "d3"], '
    b'"rows": ["ACG-T-N", "ACGTTNA", "-------"]}, "diagnostics": {}, '
    b'"engine": "muscle", "n_columns": 7, "n_procs": 1, "n_rows": 3, '
    b'"request_hash": '
    b'"1a3c6445184c110bde7d10d1d39b3d20c721e37773b4d6c143bb1fea399df170", '
    b'"sp": -3.0, "wall_time": 0.125}'
)


def _protein_request():
    return AlignRequest(
        (
            Sequence("a", "MKVLAAGIV"),
            Sequence("b", "mkv-lagIVw"),
            Sequence("c", "MKBZX.LAG"),
        ),
        engine="sample-align-d", n_procs=2, seed=7,
        config=SampleAlignDConfig(), engine_kwargs={"backend": "threads"},
    )


def _dna_request():
    return AlignRequest(
        (Sequence("x1", "ACGTACGU", DNA), Sequence("x2", "acg-tnnA", DNA)),
        engine="muscle", n_procs=1, engine_kwargs={"refine_rounds": 2},
    )


def _protein_result():
    aln = Alignment.from_rows(
        ["a", "b", "c"], ["MKV-LAAGIV", "mkv.LAGIVW", "MKBZXLAG--"]
    )
    return AlignResult(
        aln, "sample-align-d", 12.5, 0.25, 2, PROTEIN_HASH,
        {"buckets": [2, 1]},
    )


def _entry_path(store, key):
    return store.root / key[:2] / f"{key}.json"


class TestCompatibilityPins:
    def test_protein_content_hash_pinned(self):
        assert _protein_request().content_hash() == PROTEIN_HASH

    def test_dna_content_hash_pinned(self):
        assert _dna_request().content_hash() == DNA_HASH

    def test_hash_survives_the_dict_round_trip(self):
        for request in (_protein_request(), _dna_request()):
            again = AlignRequest.from_dict(request.to_dict())
            assert again.content_hash() == request.content_hash()

    def test_put_bytes_pinned(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(PROTEIN_HASH, _protein_result())
        assert _entry_path(store, PROTEIN_HASH).read_bytes() == PROTEIN_ENTRY

    def test_earlier_entry_is_a_hit_and_decodes_equal(self, tmp_path):
        path = _entry_path(ResultStore(tmp_path), DNA_HASH)
        path.parent.mkdir(parents=True)
        path.write_bytes(DNA_ENTRY)
        store = ResultStore(tmp_path)
        got = store.get(DNA_HASH)
        assert got is not None and store.stats()["hits"] == 1
        expected = Alignment.from_rows(
            ["d1", "d2", "d3"], ["ACG-T-N", "ACGTTNA", "-------"], DNA
        )
        assert got.alignment == expected
        assert got.alignment.alphabet is DNA
        assert (got.engine, got.sp, got.wall_time, got.n_procs) == (
            "muscle", -3.0, 0.125, 1,
        )
        assert got.request_hash == DNA_HASH and got.diagnostics == {}
        # Written back, the decoded entry is the same bytes.
        store.put(DNA_HASH, got)
        assert path.read_bytes() == DNA_ENTRY
