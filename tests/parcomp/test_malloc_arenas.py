"""The process-wide malloc arena cap (:func:`bound_malloc_arenas`).

glibc gives each thread that allocates an arena of its own, and an arena
keeps what was freed into it; a 16-rank ``threads`` run therefore peaked
at several times its live data.  The cap is set once, when
:mod:`repro.parcomp.backends` is imported, before any rank thread
exists.  The unit tests stand a fake libc in for the real one; the
subprocess test compares two fresh ``repro align`` processes on one
host, one capped and one where glibc's own ``MALLOC_ARENA_MAX`` (which
the helper leaves in charge) lifts the cap.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datagen.rose import generate_family
from repro.parcomp import backends
from repro.parcomp.backends import MALLOC_ARENA_MAX, bound_malloc_arenas
from repro.seq.fasta import write_fasta

SRC = str(Path(backends.__file__).resolve().parents[2])


class _FakeLibc:
    """A libc whose ``mallopt`` records its calls and answers
    ``answer`` (glibc: 1 on success, 0 on a refusal)."""

    def __init__(self, answer: int = 1) -> None:
        self.calls = []

        def mallopt(param, value):  # takes argtypes / restype, as ctypes'
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.fixture
def fresh(monkeypatch):
    """An unsettled helper, no ``MALLOC_ARENA_MAX``; returns a setter
    for the libc it will find."""
    monkeypatch.setattr(backends, "_arena_max", None)
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)

    def use(libc):
        monkeypatch.setattr(backends, "_libc", lambda: libc)
        return libc

    return use


class TestHelper:
    def test_calls_mallopt_once(self, fresh):
        libc = fresh(_FakeLibc())
        assert bound_malloc_arenas() == str(MALLOC_ARENA_MAX) == "2"
        assert bound_malloc_arenas() == "2"
        assert libc.calls == [(-8, MALLOC_ARENA_MAX)]  # M_ARENA_MAX, once

    def test_leaves_the_users_setting_alone(self, fresh, monkeypatch):
        libc = fresh(_FakeLibc())
        monkeypatch.setenv("MALLOC_ARENA_MAX", "64")
        assert bound_malloc_arenas() == "64"
        assert libc.calls == []

    def test_no_mallopt_changes_nothing(self, fresh):
        fresh(object())  # musl / macOS: no such symbol
        assert bound_malloc_arenas() == "unbounded"

    def test_refused_mallopt_is_unbounded(self, fresh):
        libc = fresh(_FakeLibc(answer=0))
        assert bound_malloc_arenas() == "unbounded"
        assert bound_malloc_arenas() == "unbounded"
        assert len(libc.calls) == 1

    def test_set_at_import(self):
        """This process imported the module, so the cap is settled."""
        assert backends._arena_max is not None
        assert bound_malloc_arenas() in (
            os.environ.get("MALLOC_ARENA_MAX"), "2", "unbounded"
        )


@pytest.mark.parametrize("module", ["repro.engine", "repro.serve", "repro.pool"])
def test_entry_modules_cap_before_any_thread(module):
    """Importing an entry that later starts rank threads, gateway workers
    or a pool settles the cap, with no thread but the main one alive."""
    probe = (
        f"import sys, threading, {module}; "
        "print('repro.parcomp.backends' in sys.modules, "
        "threading.active_count())"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "1"]


# One `repro align` in a fresh process; stderr's last line is the
# process's cap and its own peak RSS in KiB.  That is VmHWM, not
# ru_maxrss: Linux's ru_maxrss also counts the image the child was
# exec'd from, a copy of this test runner.
_CHILD = """
import sys
from repro.cli import main
from repro.parcomp.backends import bound_malloc_arenas
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    (peak,) = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
print(bound_malloc_arenas(), peak, file=sys.stderr)
sys.exit(rc)
"""


def _align_in_child(fasta: Path, out: Path, arena_max=None):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("MALLOC_ARENA_MAX", None)
    if arena_max is not None:
        env["MALLOC_ARENA_MAX"] = arena_max
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "align", str(fasta), "-p", "16",
         "--backend", "threads", "--seed", "1", "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    cap, peak = proc.stderr.splitlines()[-1].split()
    return cap, int(peak)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM"
)
def test_capped_arenas_lower_peak_rss(tmp_path):
    """N = 400, L = 200, p = 16 on ``threads``: the same bytes, and the
    capped process peaks at most 0.8x the one with 64 arenas allowed."""
    fasta = tmp_path / "family.fasta"
    fam = generate_family(
        n_sequences=400, mean_length=200, seed=1, track_alignment=False
    )
    write_fasta(fasta, fam.sequences)
    capped_cap, capped = _align_in_child(fasta, tmp_path / "capped.fasta")
    if capped_cap != "2":
        pytest.skip(f"no mallopt here (arena cap: {capped_cap})")
    control_cap, control = _align_in_child(
        fasta, tmp_path / "control.fasta", arena_max="64"
    )
    assert control_cap == "64"
    assert (tmp_path / "capped.fasta").read_bytes() == (
        tmp_path / "control.fasta"
    ).read_bytes()
    assert capped <= 0.8 * control, (capped, control)
