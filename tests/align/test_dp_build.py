"""The build story of the compiled DP kernel stays boring.

``repro.align.ckernel.load`` compiles one C file on first use into a
per-user cache.  Every way that can go wrong on a real host -- no
compiler, a home that cannot be written, a cache someone else could
write, a truncated library, an edited source, several processes finding
the cache empty at once -- must end in a working aligner: the compiled
kernel where it can be had, otherwise the numpy loop with the reason
named, never an exception and never stale code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.align import ckernel, dp
from repro.obs.metrics import registry
from repro.obs.tracing import disable_tracing, drain_spans, enable_tracing
from repro.pool import WorkerPool, workers

SRC = str(Path(dp.__file__).resolve().parents[2])


@pytest.fixture(autouse=True)
def needs_a_compiler(compiled_kernel):
    """Nothing here can be tested on a host that cannot build at all."""


@pytest.fixture()
def empty_cache(tmp_path, monkeypatch) -> Path:
    """``$XDG_CACHE_HOME`` pointing at a fresh directory; returns where
    the libraries will land."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro" / "kernels"


def _libraries(cache: Path):
    """File names in ``cache`` other than the libraries' checksums."""
    return sorted(p.name for p in cache.iterdir() if p.suffix != ".sha256")


def _resolve_afresh(monkeypatch) -> dp.DPKernel:
    """What a new process would resolve under the current environment."""
    monkeypatch.setattr(dp, "_kernel", None)
    return dp.kernel()


def _align_something() -> dp.AffineDPResult:
    S = np.random.default_rng(3).normal(0, 3, (7, 9))
    return dp.affine_align(S, 4.0, 0.5, terminal_factor=0.5)


class TestFallbacks:
    def _assert_numpy_fallback(self, monkeypatch, reason):
        expected = _align_something()
        fallbacks = registry().counter("dp.kernel_fallbacks")
        before = fallbacks.value
        kern = _resolve_afresh(monkeypatch)
        assert (kern.name, kern.fallback) == ("numpy", reason)
        assert kern.align is kern.align_codes is kern.identity_codes is None
        assert kern.agglomerate is kern.apply is None
        assert fallbacks.value == before + 1
        assert dp.kernel() is kern and fallbacks.value == before + 1  # once
        got = _align_something()
        assert got.score == expected.score
        assert np.array_equal(got.x_map, expected.x_map)
        assert np.array_equal(got.y_map, expected.y_map)

    def test_no_compiler_on_path(self, monkeypatch, tmp_path, empty_cache):
        monkeypatch.setenv("PATH", str(tmp_path / "nothing-here"))
        self._assert_numpy_fallback(monkeypatch, "no_compiler")
        assert not empty_cache.exists()

    def test_compiler_that_cannot_run(self, monkeypatch, tmp_path, empty_cache):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "cc").write_text("#!/bin/sh\nexit 127\n")
        (bin_dir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        self._assert_numpy_fallback(monkeypatch, "no_compiler")

    def test_compiler_that_rejects_the_source(
        self, monkeypatch, tmp_path, empty_cache
    ):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(ckernel, "_SOURCE", broken)
        self._assert_numpy_fallback(monkeypatch, "build_failed")
        assert _libraries(empty_cache) == []  # no temp file left behind

    def test_cache_home_that_cannot_hold_a_directory(
        self, monkeypatch, tmp_path
    ):
        # (A read-only directory would not stop root, who runs CI images.)
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
        self._assert_numpy_fallback(monkeypatch, "cache_unwritable")

    def test_cache_dir_others_can_write(self, monkeypatch, empty_cache):
        empty_cache.mkdir(parents=True)
        empty_cache.chmod(0o777)
        self._assert_numpy_fallback(monkeypatch, "cache_unwritable")
        assert _libraries(empty_cache) == []

    def test_relative_cache_home_is_not_trusted(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        self._assert_numpy_fallback(monkeypatch, "cache_unwritable")
        assert not (tmp_path / "relative").exists()

    def test_library_that_fails_the_probe(self, monkeypatch, empty_cache):
        monkeypatch.setattr(
            ckernel, "_reproduces_numpy", lambda *entries: False
        )
        self._assert_numpy_fallback(monkeypatch, "check_failed")


class TestLoadSpan:
    @pytest.mark.parametrize("trusted", [True, False], ids=["c", "numpy"])
    def test_first_resolution_is_one_named_span(
        self, monkeypatch, empty_cache, trusted
    ):
        """The build or load and the probes are one ``dp.kernel_load``
        span, so a process's first request has no unnamed second."""
        if not trusted:
            monkeypatch.setattr(
                ckernel, "_reproduces_numpy", lambda *entries: False
            )
        drain_spans()
        enable_tracing()
        try:
            kern = _resolve_afresh(monkeypatch)
            dp.kernel()  # resolved: no second span
        finally:
            disable_tracing()
        loads = [r for r in drain_spans() if r.name == "dp.kernel_load"]
        assert [r.attrs["kernel"] for r in loads] == [kern.name]
        assert kern.name == ("c" if trusted else "numpy")

    def test_one_load_span_on_sixteen_rank_threads(self, empty_cache, tmp_path):
        """A fresh process's ``threads`` run resolves the kernel on one
        rank: the probe calls the raw entries, so that rank keeps its run
        token and no other rank starts a resolution of its own -- with
        an empty cache (a build) and then a warm one (a load)."""
        env = {**os.environ, "PYTHONPATH": SRC}
        for cache in ("empty", "warm"):
            out = tmp_path / f"{cache}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "trace", "--engine",
                 "sample-align-d", "-p", "16", "-n", "128", "-l", "200",
                 "-o", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            names = [e["name"] for e in json.loads(out.read_text())["traceEvents"]]
            assert names.count("dp.kernel_load") == 1, cache
            assert len(_libraries(empty_cache)) == 1


class TestCache:
    def test_build_is_private_and_reused(self, monkeypatch, empty_cache):
        assert _resolve_afresh(monkeypatch).name == "c"
        (name,) = _libraries(empty_cache)
        lib = empty_cache / name
        assert empty_cache.stat().st_mode & 0o777 == 0o700
        assert lib.stat().st_mode & 0o077 == 0
        built_at = lib.stat().st_mtime_ns
        assert _resolve_afresh(monkeypatch).name == "c"
        assert lib.stat().st_mtime_ns == built_at  # loaded, not rebuilt

    def test_truncated_library_is_rebuilt(self, monkeypatch, empty_cache):
        # Build a whole one here, then plant a stump of it under the same
        # name (same source, flags, compiler) in a second cache -- not in
        # this one, where the whole one is mapped into this process.
        assert _resolve_afresh(monkeypatch).name == "c"
        (name,) = _libraries(empty_cache)
        whole = (empty_cache / name).read_bytes()
        second_home = empty_cache.parents[1] / "second"
        monkeypatch.setenv("XDG_CACHE_HOME", str(second_home))
        stump = second_home / "repro" / "kernels" / name
        stump.parent.mkdir(parents=True, mode=0o700)
        stump.write_bytes(whole[: len(whole) // 3])  # dlopen: bus error
        stump.chmod(0o700)
        checksum = ckernel._checksum_file(empty_cache / name).read_text()
        ckernel._checksum_file(stump).write_text(checksum)
        assert _resolve_afresh(monkeypatch).name == "c"
        assert _libraries(stump.parent) == [name]
        assert stump.stat().st_size == len(whole)

    def test_library_someone_else_could_write_is_not_loaded(
        self, monkeypatch, empty_cache
    ):
        assert _resolve_afresh(monkeypatch).name == "c"
        (name,) = _libraries(empty_cache)
        lib = empty_cache / name
        lib.chmod(0o777)
        planted_at = lib.stat().st_mtime_ns
        assert _resolve_afresh(monkeypatch).name == "c"
        assert lib.stat().st_mode & 0o077 == 0  # replaced by a fresh build
        assert lib.stat().st_mtime_ns != planted_at

    def test_source_edit_changes_the_file_name(
        self, monkeypatch, tmp_path, empty_cache
    ):
        assert _resolve_afresh(monkeypatch).name == "c"
        edited = tmp_path / "edited.c"
        edited.write_bytes(ckernel._SOURCE.read_bytes() + b"/* edited */\n")
        monkeypatch.setattr(ckernel, "_SOURCE", edited)
        assert _resolve_afresh(monkeypatch).name == "c"
        assert len(_libraries(empty_cache)) == 2  # the stale one is not reused

    def test_library_of_the_one_export_source_is_never_loaded(
        self, monkeypatch, tmp_path, empty_cache
    ):
        """A cache left by a checkout whose C file exported only the row
        loop: that library sits under another digest, and is not what a
        five-export source resolves to."""
        old = tmp_path / "old.c"
        old.write_text("void gotoh_rows(void) {}\n")
        with monkeypatch.context() as patch:
            patch.setattr(ckernel, "_SOURCE", old)
            kern = _resolve_afresh(patch)
            # Built, but it is not the library dp.py calls into.
            assert (kern.name, kern.fallback) == ("numpy", "load_failed")
        (stale,) = _libraries(empty_cache)
        built_at = (empty_cache / stale).stat().st_mtime_ns
        kern = _resolve_afresh(monkeypatch)
        assert kern.name == "c"
        assert all(map(callable, (
            kern.align, kern.align_codes, kern.identity_codes,
            kern.agglomerate, kern.apply,
        )))
        assert len(_libraries(empty_cache)) == 2
        assert (empty_cache / stale).stat().st_mtime_ns == built_at
        got = _align_something()
        assert got.n_columns == len(got.y_map) >= 9


_REPORT = (
    "from repro.align import dp; k = dp.kernel(); "
    "print(k.name, k.fallback, dp.affine_align([[1.0, 0.0], [0.0, 1.0]], 2, 1).score)"
)


class TestConcurrentFirstUse:
    def test_processes_racing_on_an_empty_cache(self, empty_cache):
        env = {**os.environ, "PYTHONPATH": SRC}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _REPORT],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(3)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.split() == ["c", "None", "2.0"]
        libs = _libraries(empty_cache)
        assert len(libs) == 1 and libs[0].endswith(".so")  # and no temp files

    @pytest.mark.parametrize("start_method", ["fork", "forkserver"])
    def test_pool_workers_report_the_compiled_kernel(
        self, monkeypatch, empty_cache, start_method
    ):
        # Forked workers inherit this process's unresolved state and the
        # empty cache, so both build at once; forkserver workers get the
        # environment the fork server was started with.
        monkeypatch.setattr(dp, "_kernel", None)
        monkeypatch.setattr(workers, "START_METHOD", start_method)
        with WorkerPool(max_workers=2) as pool:
            res = pool.run_spmd(2, _rank_kernel)
        assert [name for name, _pid in res.results] == ["c", "c"]
        pids = {pid for _name, pid in res.results}
        assert len(pids) == 2 and os.getpid() not in pids
        if start_method == "fork":
            assert len(_libraries(empty_cache)) == 1


def _rank_kernel(comm):
    _align_something()
    return dp.kernel().name, os.getpid()
