"""Byte-identity pins: engine FASTA digests and request content hashes.

``golden_digests.json`` was recorded on the commit *before* the stage
options were collapsed onto ``distance=`` / ``tree=`` (run this file as
a script to re-record); the tests assert that every registered engine,
and a small grid of stage specs on the five guide-tree engines, still
produce the same bytes, and that request hashes did not move.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.datagen.rose import generate_family
from repro.engine import AlignRequest, available_engines, get_engine

GOLDEN = Path(__file__).with_name("golden_digests.json")

GUIDE_TREE_ENGINES = (
    "muscle", "clustalw", "mafft-nwnsi", "center-star", "parallel-baseline",
)

#: The stage-spec grid: a name, a placement-only dict, an out-only dict,
#: and a tree builder name.
SPEC_GRID = {
    "distance=full-dp": {"distance": "full-dp"},
    "distance.backend=threads": {
        "distance": {"backend": "threads", "workers": 2}
    },
    "distance.out=memmap": {"distance": {"out": "memmap"}},
    "tree=wpgma": {"tree": "wpgma"},
}

HASH_REQUESTS = {
    "muscle {}": ("muscle", {}),
    "clustalw distance=full-dp": ("clustalw", {"distance": "full-dp"}),
    "sample-align-d backend=pool": ("sample-align-d", {"backend": "pool"}),
}


def family():
    """The one fixed 12 x 60 input every digest is taken over."""
    fam = generate_family(
        n_sequences=12, mean_length=60, relatedness=400, seed=14,
        track_alignment=False,
    )
    return tuple(fam.sequences)


def request(engine, engine_kwargs):
    return AlignRequest(
        family(), engine=engine, n_procs=3, seed=5,
        engine_kwargs=engine_kwargs,
    )


def fasta_digest(engine, engine_kwargs):
    """sha256 of the engine's FASTA, or the name of the error it raises."""
    try:
        result = get_engine(engine, **engine_kwargs).run(
            request(engine, engine_kwargs)
        )
    except (ValueError, TypeError) as exc:
        return type(exc).__name__
    return hashlib.sha256(result.alignment.to_fasta().encode()).hexdigest()


def cases():
    out = {name: (name, {}) for name in available_engines()}
    for engine in GUIDE_TREE_ENGINES:
        for label, kwargs in SPEC_GRID.items():
            out[f"{engine} {label}"] = (engine, kwargs)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registered_engine(golden):
    assert set(cases()) == set(golden["fasta_sha256"])


@pytest.mark.parametrize("case", sorted(cases()))
def test_fasta_is_byte_identical(case, golden):
    engine, kwargs = cases()[case]
    assert fasta_digest(engine, kwargs) == golden["fasta_sha256"][case]


def test_every_engine_under_each_row_kernel(dp_kernel, golden):
    """The parametrised test above runs whichever row kernel this host
    resolves to; the bytes must not depend on that -- nor on the route
    the ``full-dp`` distance stage takes under each."""
    selected = {
        case: spec for case, spec in cases().items()
        if not spec[1] or spec[1] == SPEC_GRID["distance=full-dp"]
    }
    assert len(selected) == len(available_engines()) + len(GUIDE_TREE_ENGINES)
    for case, (engine, kwargs) in selected.items():
        assert fasta_digest(engine, kwargs) == golden["fasta_sha256"][case], (
            case, dp_kernel,
        )


@pytest.mark.parametrize("case", sorted(HASH_REQUESTS))
def test_content_hash_is_pinned(case, golden):
    engine, kwargs = HASH_REQUESTS[case]
    assert request(engine, kwargs).content_hash() == (
        golden["content_hash"][case]
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "fasta_sha256": {
            case: fasta_digest(*spec) for case, spec in cases().items()
        },
        "content_hash": {
            case: request(*spec).content_hash()
            for case, spec in HASH_REQUESTS.items()
        },
    }, indent=2, sort_keys=True) + "\n")
