"""Span propagation across the execution-backend seam.

The same tiled all-pairs computation must produce the same *logical*
span tree on every backend: identical span names and attributes (modulo
the backend's own identity and per-rank labels), identical parenting of
``distance.rank`` under ``distance.dispatch``, identical distance
matrices.  Threads ranks share the parent's address space, pool ranks
pickle their spans home -- the canonicalised span sets must not be able
to tell the difference.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.distance import all_pairs
from repro.obs.tracing import collect, drain_spans, enable_tracing
from repro.seq.sequence import Sequence

BACKENDS = ["threads", "pool"]

pytestmark = pytest.mark.usefixtures("pool")


@pytest.fixture(scope="module")
def seqs():
    rows = ["MKTAYIAKQR", "MKTAYIAKQL", "MKTAYIARQR", "MKAYIAKQRQ",
            "MKTAYIAKQG"]
    return [Sequence(f"s{i}", r) for i, r in enumerate(rows)]


def canonical(records):
    """Backend-independent view of a span set, as sorted JSON lines.

    Drops per-rank identity (pids, tids, ids, timings -- including the
    ``compute_s``/``parked_s``/``overlap_s`` seconds a ``threads`` rank
    span carries), the dispatch/pool spans' backend-specific attributes
    (``backend``, ``placement``) and the ``schedule`` the stage span
    names; keeps names,
    logical attributes, and each span's parent *name* -- which pins the
    tree shape without depending on id values.
    """
    by_id = {r.span_id: r for r in records}
    drop_attrs = {"backend", "rank", "attempt", "compute_s", "parked_s",
                  "overlap_s", "schedule", "placement"}
    lines = []
    for r in records:
        if r.name == "pool.dispatch":
            continue  # the pool's extra hop under <stage>.dispatch
        parent = by_id.get(r.parent_id)
        attrs = {k: v for k, v in sorted(r.attrs.items())
                 if k not in drop_attrs}
        lines.append(json.dumps(
            {"name": r.name, "parent": parent.name if parent else None,
             "attrs": attrs},
            sort_keys=True,
        ))
    return sorted(lines)


def run_traced_all_pairs(seqs, backend):
    enable_tracing()
    drain_spans()
    with collect(tee=False) as buf:
        d = all_pairs(seqs, "ktuple", backend=backend, workers=2,
                      tile_pairs=3)
    return d, buf.records()


class TestCrossBackendEquivalence:
    def test_span_trees_identical_across_backends(self, seqs):
        matrices, trees = {}, {}
        for backend in BACKENDS:
            d, records = run_traced_all_pairs(seqs, backend)
            matrices[backend] = d
            trees[backend] = canonical(records)
        for backend in BACKENDS[1:]:
            assert matrices[backend].tobytes() == matrices["threads"].tobytes()
            assert trees[backend] == trees["threads"], backend

    def test_rank_spans_parent_under_dispatch(self, seqs):
        _, records = run_traced_all_pairs(seqs, "pool")
        by_id = {r.span_id: r for r in records}
        ranks = [r for r in records if r.name == "distance.rank"]
        assert len(ranks) == 2
        for r in ranks:
            assert by_id[r.parent_id].name == "distance.dispatch"
            assert r.pid != os.getpid()  # genuinely recorded elsewhere

    def test_threads_ranks_record_in_parent_pid(self, seqs):
        _, records = run_traced_all_pairs(seqs, "threads")
        ranks = [r for r in records if r.name == "distance.rank"]
        assert ranks and all(r.pid == os.getpid() for r in ranks)

    def test_serial_mode_still_traces_tiles(self, seqs):
        enable_tracing()
        drain_spans()
        with collect(tee=False) as buf:
            d_serial = all_pairs(seqs, "ktuple", tile_pairs=3)
        names = [r.name for r in buf.records()]
        assert "distance.all_pairs" in names
        assert "distance.tile" in names
        assert "distance.dispatch" not in names  # no backend hop
        d_backend, _ = run_traced_all_pairs(seqs, "threads")
        assert d_serial.tobytes() == d_backend.tobytes()

    def test_untraced_results_identical_to_traced(self, seqs):
        from repro.obs.tracing import disable_tracing

        disable_tracing()
        d_off = all_pairs(seqs, "ktuple", backend="threads", workers=2,
                          tile_pairs=3)
        d_on, _ = run_traced_all_pairs(seqs, "threads")
        assert d_off.tobytes() == d_on.tobytes()


class TestMetricsRideHome:
    def test_dp_counters_cross_process(self, seqs, each_dp_kernel, monkeypatch):
        """Rank-side DP work increments the *parent's* registry.

        ``full-dp`` on the pool backend runs every pair DP in
        foreign address spaces; the per-rank metric deltas ride home
        with the spans and are absorbed exactly once -- whichever path
        the workers' DP kernel runs the pairs on.
        """
        from repro.obs.metrics import registry
        from repro.pool import WorkerPool, set_default_pool, workers

        def value(delta, name):
            metric = delta.metrics.get(name)
            return 0 if metric is None else metric.value

        monkeypatch.setattr(workers, "START_METHOD", "fork")
        for kernel in each_dp_kernel():
            # Forked now, so the workers run the kernel forced here.
            with WorkerPool(max_workers=2) as own:
                prev = set_default_pool(own)
                try:
                    enable_tracing()
                    drain_spans()
                    before = registry().snapshot()
                    with collect(tee=False) as buf:
                        d = all_pairs(seqs, "full-dp", backend="pool",
                                      workers=2, tile_pairs=3)
                finally:
                    set_default_pool(prev)
            assert np.all(np.isfinite(d))
            delta = registry().snapshot().diff(before)
            moved = [
                value(delta, name)
                for name in ("dp.align_calls", "dp.batch_pairs")
            ]
            routes = {
                (r.name, r.attrs.get("kernel"))
                for r in buf.records() if r.name.startswith("dp.")
            }
            # C(5, 2) = 10 pairs, every one through a worker's kernel.
            assert routes == {("dp.pairs", kernel)}
            assert moved == [10, 0]


def _spin_ring(comm):
    """Some compute, then a ring exchange every rank has to park in."""
    sum(i * i for i in range(20_000))
    comm.send(comm.rank, (comm.rank + 1) % comm.size, tag=1)
    return comm.recv((comm.rank - 1) % comm.size, tag=1)


class TestThreadsRankTiming:
    """A ``threads`` rank span says how long the rank ran and how long it
    was parked without the run token."""

    def test_rank_span_carries_compute_and_parked(self):
        from repro.parcomp import run_spmd

        enable_tracing()
        with collect(tee=False) as buf:
            res = run_spmd(3, _spin_ring, backend="threads")
        ranks = [r for r in buf.records() if r.name == "spmd.rank"]
        assert sorted(r.attrs["rank"] for r in ranks) == [0, 1, 2]
        for r in ranks:
            in_ledger = res.ledger.compute[r.attrs["rank"]]
            assert 0.0 < r.attrs["compute_s"] <= in_ledger
            assert in_ledger - r.attrs["compute_s"] < 0.01
            assert 0.0 <= r.attrs["parked_s"] <= r.dur
        # Rank 0 runs first and has to wait for rank 2's message.
        assert next(r for r in ranks if r.attrs["rank"] == 0).attrs["parked_s"] > 0



class TestRankSpansAreAttributable:
    """Every ``spmd.rank`` span of a traced Sample-Align-D run carries
    ``compute_s``, ``parked_s`` and ``overlap_s`` on either backend, and
    the spans' ``compute_s`` add up to the ledger's compute."""

    @pytest.fixture(scope="class")
    def family(self):
        from repro.datagen.rose import generate_family

        return list(generate_family(
            n_sequences=64, mean_length=100, seed=5, track_alignment=False,
        ).sequences)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sample_align_d_64x100_p4(self, family, backend):
        from repro.core.driver import sample_align_d
        from repro.pool import PoolBackend, WorkerPool

        with WorkerPool(max_workers=2) as two:
            chosen = PoolBackend(two) if backend == "pool" else backend
            enable_tracing()
            with collect(tee=False) as buf:
                res = sample_align_d(family, n_procs=4, backend=chosen)
        assert res.placement.startswith(f"{backend} k=")
        ranks = [r for r in buf.records() if r.name == "spmd.rank"]
        assert sorted(r.attrs["rank"] for r in ranks) == [0, 1, 2, 3]
        for r in ranks:
            assert r.attrs["compute_s"] > 0.0
            assert 0.0 <= r.attrs["parked_s"] <= r.dur
            assert 0.0 <= r.attrs["overlap_s"] <= r.dur
        assert sum(r.attrs["compute_s"] for r in ranks) == pytest.approx(
            res.ledger.total_compute(), abs=1e-9
        )

    def test_untraced_fabrics_keep_the_timing_too(self):
        from repro.parcomp.comm import Fabric

        fabric = Fabric(2)  # tracing is off
        assert fabric.parked_s == [0.0, 0.0] == fabric.overlap_s
