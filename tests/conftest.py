"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.align import dp
from repro.datagen.rose import generate_family
from repro.obs.tracing import disable_tracing, drain_spans, enable_tracing
from repro.parcomp.token import COMPUTE_TOKEN
from repro.pool import PoolBackend, WorkerPool, set_default_pool
from repro.seq.sequence import Sequence, SequenceSet

from tests.pool.leaks import live_workers

# Hypothesis: keep examples modest (DP kernels are exercised heavily) and
# drop the deadline (first-call numpy warmup can be slow on CI).
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

# The compiled DP kernel is built into $XDG_CACHE_HOME.  The session --
# and the pool workers it starts, which inherit the environment -- gets
# a private one, so a test run neither trusts nor leaves anything in the
# user's home.  Set at import: nothing may resolve the kernel before it.
_KERNEL_CACHE = tempfile.mkdtemp(prefix="repro-test-cache-")
os.environ["XDG_CACHE_HOME"] = _KERNEL_CACHE


@pytest.fixture(scope="session", autouse=True)
def _remove_kernel_cache():
    yield
    shutil.rmtree(_KERNEL_CACHE, ignore_errors=True)


_host_kernel = None


def _force_kernel(monkeypatch, name: str) -> None:
    """Run this test's in-process DPs on the named row kernel, whatever
    an enclosing fixture forced; ``c`` skips where the host has none."""
    global _host_kernel
    if name == "numpy":
        kern = dp.DPKernel("numpy", "forced")
    else:
        if _host_kernel is None:  # resolved once per session
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dp, "_kernel", None)
                _host_kernel = dp.kernel()
        kern = _host_kernel
        if kern.name != "c":
            pytest.skip(f"no compiled kernel here: {kern.fallback}")
    monkeypatch.setattr(dp, "_kernel", kern)


@pytest.fixture(params=["c", "numpy"])
def dp_kernel(request, monkeypatch) -> str:
    """Each row kernel in turn.  Pool workers are other processes and
    keep their own."""
    _force_kernel(monkeypatch, request.param)
    return request.param


@pytest.fixture(scope="session")
def each_dp_kernel():
    """``for name in each_dp_kernel():`` runs the loop body once per row
    kernel this host has, the process forced onto it meanwhile -- for
    fixtures wider than a function, which cannot ask for ``dp_kernel``."""

    def kernels():
        for name in ("numpy", "c"):
            with pytest.MonkeyPatch.context() as patch:
                try:
                    _force_kernel(patch, name)
                except pytest.skip.Exception:
                    continue
                yield name

    return kernels


@pytest.fixture()
def numpy_kernel(monkeypatch) -> None:
    """The numpy row kernel: ``_forward`` -> ``_terminal_best`` ->
    ``_traceback`` for every alignment, the compiler-less host's path."""
    _force_kernel(monkeypatch, "numpy")


@pytest.fixture()
def compiled_kernel(monkeypatch) -> None:
    """The compiled row kernel (skips on a host that cannot build it)."""
    _force_kernel(monkeypatch, "c")


@pytest.fixture()
def traced():
    """``traced(fn)`` runs ``fn()`` with tracing on and returns its
    result and the span records it left in the process-wide buffer."""

    def run(fn):
        drain_spans()
        enable_tracing()
        try:
            out = fn()
        finally:
            disable_tracing()
        return out, drain_spans()

    return run


@pytest.fixture(scope="session")
def tiny_seqs() -> SequenceSet:
    """Five short, clearly homologous sequences."""
    return SequenceSet(
        [
            Sequence("s1", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"),
            Sequence("s2", "MKTAYIAKQRQISFVKHFSRQLEERLGLIEV"),
            Sequence("s3", "MKTAYIARQRQISFVKSHFSRQEERLGLIEVQ"),
            Sequence("s4", "MAYIAKQRQISFVKSHFSRQLEERLG"),
            Sequence("s5", "MKTAYIAKQRQTSFVKSHFSRQLEERLGLIE"),
        ]
    )


@pytest.fixture(scope="session")
def small_family():
    """A 12-member rose family with its true alignment."""
    return generate_family(
        n_sequences=12, mean_length=90, relatedness=350, seed=7
    )


@pytest.fixture(scope="session")
def easy_family():
    """A closely related family (high expected aligner quality)."""
    return generate_family(
        n_sequences=10, mean_length=80, relatedness=120, seed=11
    )


@pytest.fixture(scope="session")
def diverse_family():
    """A phylogenetically diverse family (the paper's regime)."""
    return generate_family(
        n_sequences=40, mean_length=100, relatedness=700, seed=5
    )


@pytest.fixture(scope="module")
def pool():
    """An explicit five-slot pool installed as the process default.

    The build host may have a single core, in which case the
    process-default pool holds only two slots and anything needing more
    ranks shares them, several ranks per worker -- so a test of one rank
    per worker would not test that.  Each module that runs
    ``backend="pool"`` therefore
    asks for this fixture, and tears it down asserting the acceptance
    bar: a closed pool leaves no worker process alive.
    """
    p = WorkerPool(max_workers=5)
    prev = set_default_pool(p)
    try:
        yield p
    finally:
        set_default_pool(prev)
        p.close()
        assert live_workers(p) == []


@pytest.fixture()
def compute_token():
    """The process's compute token, free before and after the test.

    Every test of the token asks for this fixture: its watchdog turns a
    lost token (a caller thread parked on it for good, so joining that
    thread never returns) into a dump of every thread's stack and a
    dead run instead of a session that never ends.
    """
    assert not COMPUTE_TOKEN._lock.locked()
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    try:
        yield COMPUTE_TOKEN
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert not COMPUTE_TOKEN._lock.locked()


@pytest.fixture()
def one_slot_backend():
    """A ``PoolBackend`` over a one-slot pool: every rank of a run is
    hosted by the one worker (M:N with k = 1, the ranks taking turns on
    the worker's run token); asserted used at teardown."""
    with WorkerPool(max_workers=1) as one_slot:
        yield PoolBackend(one_slot)
        assert one_slot.stats()["runs"] >= 1
        assert one_slot.stats()["max_workers"] == 1
