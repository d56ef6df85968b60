"""Batched vs per-pair DP distances: byte-identical on every backend.

``REPRO_DP_BATCH_PAIRS=0`` switches the full-DP and k-band estimators
back to the scalar per-pair kernel; the batched default must produce the
same distance matrix to the last bit, whichever backend schedules the
tiles.  (Backend workers may see either setting -- both sides of the
switch are exact, so the bytes cannot differ.)
"""

import numpy as np
import pytest

from repro.distance import all_pairs
from repro.parcomp.launcher import run_spmd


@pytest.fixture(scope="module")
def family():
    from repro.datagen.rose import generate_family

    fam = generate_family(
        n_sequences=10, mean_length=60, relatedness=300, seed=7,
        track_alignment=False,
    )
    return list(fam.sequences)


@pytest.fixture(scope="module")
def per_pair_base(family):
    """Serial distance matrices with batching disabled (scalar kernel)."""
    import os

    out = {}
    old = os.environ.get("REPRO_DP_BATCH_PAIRS")
    os.environ["REPRO_DP_BATCH_PAIRS"] = "0"
    try:
        for name in ("full-dp", "kband"):
            out[name] = all_pairs(family, name)
    finally:
        if old is None:
            del os.environ["REPRO_DP_BATCH_PAIRS"]
        else:
            os.environ["REPRO_DP_BATCH_PAIRS"] = old
    return out


@pytest.mark.parametrize("name", ["full-dp", "kband"])
class TestBatchedMatchesPerPair:
    def test_serial(self, family, per_pair_base, name):
        assert (
            all_pairs(family, name).tobytes()
            == per_pair_base[name].tobytes()
        )

    def test_threads(self, family, per_pair_base, name):
        got = all_pairs(family, name, backend="threads", workers=3)
        assert got.tobytes() == per_pair_base[name].tobytes()

    def test_processes(self, one_shot_backend, family, per_pair_base, name):
        got = all_pairs(family, name, backend=one_shot_backend, workers=2)
        assert got.tobytes() == per_pair_base[name].tobytes()

    def test_pool(self, pool, family, per_pair_base, name):
        got = all_pairs(family, name, backend="pool", workers=2)
        assert got.tobytes() == per_pair_base[name].tobytes()

    def test_cooperative_spmd(self, family, per_pair_base, name):
        def program(comm):
            return all_pairs(family, name, comm=comm)

        spmd = run_spmd(2, program)
        for rank_matrix in spmd.results:
            assert rank_matrix.tobytes() == per_pair_base[name].tobytes()

    def test_batch_size_never_changes_bytes(
        self, family, per_pair_base, name, monkeypatch
    ):
        for size in ("2", "7", "64"):
            monkeypatch.setenv("REPRO_DP_BATCH_PAIRS", size)
            got = all_pairs(family, name)
            assert got.tobytes() == per_pair_base[name].tobytes()
