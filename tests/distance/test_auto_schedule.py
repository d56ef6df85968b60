"""The distance stage's unset placement: serial or ``threads``.

``all_pairs`` with neither ``backend`` nor ``workers`` asks
:func:`~repro.distance.allpairs.auto_workers` where to run: ``threads``
ranks when the tiles are compiled calls that drop the interpreter lock
and the stage is big enough to pay for the launch, serial otherwise.
Whichever it picks, the matrix is the serial one byte for byte.
"""

import os

import pytest

from repro.datagen.rose import generate_family
from repro.distance import FullDpDistance, KtupleDistance, all_pairs
from repro.distance import allpairs
from repro.distance.allpairs import (
    AUTO_THREADS_MIN_CELLS,
    auto_workers,
    dp_cells,
)
from repro.obs.metrics import registry
from repro.obs.prom import render_prometheus
from repro.parcomp import run_spmd
from repro.seq.sequence import Sequence

pytestmark = pytest.mark.usefixtures("pool")

#: Sequence length of each family size: the numpy kernel aligns pair by
#: pair in python, so the 8,385 pairs of N = 130 stay short.
LENGTHS = {3: 40, 48: 12, 130: 8}


def _family(n):
    """``n`` sequences, one or two of them a single residue."""
    if n == 2:
        return [Sequence("one", "M"), Sequence("long", "MKTAYIAKQRQISFVK")]
    fam = generate_family(
        n_sequences=n, mean_length=LENGTHS[n], relatedness=300, seed=n,
        track_alignment=False,
    )
    seqs = list(fam.sequences)
    seqs[0] = Sequence("one", "W")
    seqs[-1] = Sequence("also-one", "M")
    return seqs


def _uniform(n, length):
    """Lengths are all the schedule choice reads; no DP runs on these."""
    return [Sequence(f"s{i}", "A" * length) for i in range(n)]


def _schedules(records):
    return [
        (r.attrs["schedule"], r.attrs["workers"])
        for r in records if r.name == "distance.all_pairs"
    ]


@pytest.fixture()
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


@pytest.fixture()
def one_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


class TestByteIdentity:
    @pytest.mark.parametrize("n", [2, 3, 48, 130])
    def test_every_schedule_gives_the_serial_bytes(
        self, dp_kernel, two_cores, monkeypatch, traced, n
    ):
        # Every stage past the crossover: auto takes threads ranks on the
        # compiled kernel (one pair is one rank: serial), serial on numpy.
        monkeypatch.setattr(allpairs, "AUTO_THREADS_MIN_CELLS", 0)
        seqs = _family(n)
        serial = all_pairs(seqs, "full-dp", workers=1).tobytes()
        auto, records = traced(lambda: all_pairs(seqs, "full-dp"))
        assert auto.tobytes() == serial
        expected = "threads" if dp_kernel == "c" and n > 2 else "serial"
        assert [s for s, _ in _schedules(records)] == [expected]
        for backend in ("threads", "pool"):
            got = all_pairs(seqs, "full-dp", backend=backend, workers=2)
            assert got.tobytes() == serial, backend

    def test_condensed_and_memmap_placements(
        self, compiled_kernel, two_cores, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(allpairs, "AUTO_THREADS_MIN_CELLS", 0)
        seqs = _family(48)
        serial = all_pairs(seqs, "full-dp", workers=1, out="condensed")
        for out in ("condensed", "memmap"):
            got = all_pairs(seqs, "full-dp", out=out,
                            store_dir=tmp_path / out if out == "memmap"
                            else None)
            assert got.condensed.tobytes() == serial.condensed.tobytes()


def _auto_in_rank(comm, seqs):
    from repro.parcomp import in_spmd_rank

    return auto_workers(seqs, FullDpDistance()), in_spmd_rank()


class TestResolution:
    """Every case but one resolves to serial."""

    BIG = (48, 250)  # the guide-tree benchmark's shape
    OVER = (24, 80)  # the schedule grid's smallest, just over the crossover

    def test_compiled_full_dp_over_the_crossover_takes_threads(
        self, compiled_kernel, two_cores, traced
    ):
        seqs = _uniform(*self.OVER)
        assert auto_workers(seqs, FullDpDistance()) == 2
        _, records = traced(lambda: all_pairs(seqs, "full-dp"))
        assert _schedules(records) == [("threads", 2)]

    def test_workers_capped_at_the_pair_count(
        self, compiled_kernel, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        seqs = _uniform(3, 1000)  # 3 pairs, 3 million cells
        assert auto_workers(seqs, FullDpDistance()) == 3

    def test_numpy_kernel(self, numpy_kernel, two_cores):
        assert auto_workers(_uniform(*self.BIG), FullDpDistance()) == 1

    def test_workers_one(self, compiled_kernel, two_cores, traced):
        seqs = _uniform(*self.OVER)
        _, records = traced(lambda: all_pairs(seqs, "full-dp", workers=1))
        assert _schedules(records) == [("serial", 1)]

    def test_one_usable_core(self, compiled_kernel, one_core, traced):
        seqs = _uniform(*self.OVER)
        assert auto_workers(seqs, FullDpDistance()) == 1
        _, records = traced(lambda: all_pairs(seqs, "full-dp"))
        assert _schedules(records) == [("serial", 1)]

    def test_below_the_crossover(
        self, compiled_kernel, two_cores, monkeypatch
    ):
        # The benchmark's set-up probe, 6 x 60, is far below it ...
        assert auto_workers(_uniform(6, 60), FullDpDistance()) == 1
        # ... and a stage of exactly the crossover's cells is on it:
        # Σ (len_i + 1)(len_j + 1) over pairs, ragged lengths included.
        seqs = [Sequence("a", "A" * 9), Sequence("b", "A" * 19),
                Sequence("c", "A")]
        cells = 10 * 20 + 10 * 2 + 20 * 2
        assert dp_cells(seqs) == cells
        monkeypatch.setattr(allpairs, "AUTO_THREADS_MIN_CELLS", cells + 1)
        assert auto_workers(seqs, FullDpDistance()) == 1
        monkeypatch.setattr(allpairs, "AUTO_THREADS_MIN_CELLS", cells)
        assert auto_workers(seqs, FullDpDistance()) == 2

    def test_inside_a_threads_rank(self, compiled_kernel, two_cores):
        res = run_spmd(2, _auto_in_rank, args=(_uniform(*self.BIG),),
                       backend="threads")
        assert res.results == [(1, True), (1, True)]

    def test_inside_a_pool_worker(self, two_cores):
        res = run_spmd(2, _auto_in_rank, args=(_uniform(*self.BIG),),
                       backend="pool")
        assert res.results == [(1, True), (1, True)]

    @pytest.mark.parametrize("est", [KtupleDistance(), "kmer-fraction"])
    def test_alignment_free_estimators(
        self, compiled_kernel, two_cores, traced, est
    ):
        seqs = _uniform(*self.OVER)
        if isinstance(est, str):
            from repro.distance import get_estimator

            est = get_estimator(est)
        assert auto_workers(seqs, est) == 1
        _, records = traced(lambda: all_pairs(seqs, est))
        assert _schedules(records) == [("serial", 1)]

    def test_crossover_is_pinned(self):
        """Between the shapes where two ``threads`` ranks broke even and
        first won on a 2-vCPU host (see the constant's comment and the
        distance scaling bench's ``--grid``)."""
        assert AUTO_THREADS_MIN_CELLS == 1_500_000
        def cells(n, length):
            return dp_cells(_uniform(n, length))

        assert cells(6, 60) < AUTO_THREADS_MIN_CELLS <= cells(24, 80)
        assert cells(48, 250) > AUTO_THREADS_MIN_CELLS


class TestScheduleIsVisible:
    def test_span_and_counter(self, compiled_kernel, two_cores, traced):
        def count(name):
            metric = registry().snapshot().metrics.get(
                f"distance.schedule.{name}"
            )
            return 0 if metric is None else metric.value

        seqs = _uniform(24, 80)
        small = _uniform(4, 20)
        before = {k: count(k) for k in ("threads", "serial", "pool")}
        _, records = traced(lambda: (
            all_pairs(seqs, "full-dp"),
            all_pairs(small, "full-dp"),
            all_pairs(small, "ktuple", backend="pool", workers=2),
        ))
        assert _schedules(records) == [
            ("threads", 2), ("serial", 1), ("pool", 2),
        ]
        for name in ("threads", "serial", "pool"):
            assert count(name) == before[name] + 1, name
        prom = render_prometheus(registry().snapshot())
        assert "distance_schedule_threads" in prom
        assert "distance_schedule_serial" in prom

    def test_cooperative_counts_once(self):
        def count():
            metric = registry().snapshot().metrics.get(
                "distance.schedule.cooperative"
            )
            return 0 if metric is None else metric.value

        seqs = _uniform(5, 20)
        before = count()
        run_spmd(3, lambda comm: all_pairs(seqs, "ktuple", comm=comm))
        assert count() == before + 1
