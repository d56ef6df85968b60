"""Build-on-first-use loader for the compiled Gotoh alignment kernel
(and the merge-path apply and guide-tree agglomeration that share its
library).

``_gotoh_rows.c`` (beside this file) is compiled with the host C
compiler into a per-user cache directory and loaded through
:mod:`ctypes`.  Nothing here is configurable: the cache lives under
``$XDG_CACHE_HOME`` (default ``~/.cache``) in ``repro/kernels``, the
file name is the sha256 of everything that decides the machine code
(source, flags, compiler version, machine), so an edit to any of them
builds a new file and never loads a stale one.

The build is safe to race: each builder writes its own temp file in
the cache directory and ``os.replace``\\ s it into place, so a reader
sees either no file or a whole one, and two processes that both find
the cache empty both end up with the same bytes under the same name.
A library is loaded only from a directory and file owned by the caller
and writable by nobody else, and only if it still has the checksum
recorded beside it when it was built (``dlopen`` on a truncated shared
object is a bus error, not an exception); anything else is rebuilt.

:func:`load` never raises for a host that cannot do this -- it names
the reason and the caller (``repro.align.dp``) runs its numpy loop.
A library that loads is trusted only once :func:`_reproduces_numpy`
finds it computing the python path's bytes (``check_failed`` if not).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.seq.alignment import code_counts

__all__ = ["load"]

_SOURCE = Path(__file__).with_name("_gotoh_rows.c")
#: ``-ffp-contract=off`` is what keeps the tables bit-identical to
#: numpy's (see the C source); the rest is an ordinary shared object.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILERS = ("cc", "gcc", "clang")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "kernels"


def _private(path: Path, kind: Callable[[int], bool]) -> bool:
    """``path`` is ours alone: right kind, owned by this user, and not
    writable by group or world (nobody else can swap the code we load)."""
    try:
        st = path.stat()
    except OSError:
        return False
    return (
        kind(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _checksum_file(lib: Path) -> Path:
    return lib.with_suffix(".sha256")


def _intact(lib: Path) -> bool:
    """``lib`` is private and is, byte for byte, what a build wrote."""
    if not _private(lib, stat.S_ISREG):
        return False
    try:
        recorded = _checksum_file(lib).read_text()
        return recorded == hashlib.sha256(lib.read_bytes()).hexdigest()
    except OSError:
        return False


def _build(cc: str, source: bytes, target: Path) -> Optional[str]:
    """Compile ``source`` to ``target`` atomically; a reason on failure."""
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        os.close(fd)
    except OSError:
        return "cache_unwritable"
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, timeout=120, check=True,
        )
        os.chmod(tmp, 0o700)
        checksum = hashlib.sha256(Path(tmp).read_bytes()).hexdigest()
        os.replace(tmp, target)
        _checksum_file(target).write_text(checksum)
    except (OSError, subprocess.SubprocessError):
        return "build_failed"
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # replaced into place, or never created
    return None


def load() -> Tuple[Optional[Tuple[Callable[..., int], ...]], Optional[str]]:
    """``((gotoh_align, gotoh_align_codes, gotoh_identity_codes,
    agglomerate, apply_path), None)``, or ``(None, reason)`` with
    ``reason`` one of ``no_compiler``, ``cache_unwritable``,
    ``build_failed``, ``load_failed``."""
    cc = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if cc is None:
        return None, "no_compiler"
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, "no_compiler"
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None, "build_failed"
    digest = hashlib.sha256(
        b"\0".join(
            (source, " ".join(_CFLAGS).encode(), version,
             platform.machine().encode())
        )
    ).hexdigest()
    cache = _cache_dir()
    if not cache.is_absolute():  # no home directory to expand "~" to
        return None, "cache_unwritable"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None, "cache_unwritable"
    if not _private(cache, stat.S_ISDIR):
        return None, "cache_unwritable"
    target = cache / f"gotoh_rows-{digest[:32]}.so"
    if not _intact(target):
        reason = _build(cc, source, target)
        if reason is not None:
            return None, reason
    try:
        lib = ctypes.CDLL(str(target))
        align, align_codes, identity_codes, agglomerate, apply = (
            lib.gotoh_align, lib.gotoh_align_codes, lib.gotoh_identity_codes,
            lib.agglomerate, lib.apply_path,
        )
    except (OSError, AttributeError):
        return None, "load_failed"
    size, ptr, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    # The two single-pair entries: (m, n, <scores>, 4 penalty vectors,
    # tf, H, E, F, cum_x, cum_y, xs, ys, &score) -> path length;
    # <scores> is the dense matrix, or (table, width, x codes, y codes).
    tail = [ptr] * 4 + [real] + [ptr] * 8
    align.argtypes = [size, size, ptr] + tail
    align_codes.argtypes = [size, size, ptr, size, ptr, ptr] + tail
    align.restype = align_codes.restype = size
    # The tile entry: (pairs, ii, jj, codes, offsets, table, width,
    # opens, exts, tf, H, E, F, cum_x, cum_y, xs, ys, counts).
    identity_codes.argtypes = (
        [size] + [ptr] * 5 + [size, ptr, ptr, real] + [ptr] * 8
    )
    identity_codes.restype = None
    # The guide-tree entry: (n, w, linkage, merges, heights, work, iwork).
    agglomerate.argtypes = [size, ptr, ctypes.c_int] + [ptr] * 4
    agglomerate.restype = None
    # The merge entry: (len, xmap, ymap, nx, mx, x codes, x counts, ny,
    # my, y codes, y counts, width, codes, counts) -> 0, or -1.
    side = [size, size, ptr, ptr]
    apply.argtypes = [size, ptr, ptr] + side + side + [size, ptr, ptr]
    apply.restype = size
    return (align, align_codes, identity_codes, agglomerate, apply), None


def _probe_cases():
    """``(S, open_x, ext_x, open_y, ext_y, tf)`` made of the values a
    platform is free to treat its own way (see :func:`_reproduces_numpy`)."""
    nan = np.nan
    zeros3, zeros4 = np.zeros(3), np.zeros(4)
    signed = np.array([
        [0.0, -0.0, 1.0, 0.0],
        [-0.0, 0.0, 0.0, -1.0],
        [1.0, -0.0, 0.0, 0.0],
    ])
    one_nan = signed.copy()
    one_nan[1, 2] = nan
    # Sums whose last bits depend on the order they are taken in.
    tenths3 = np.array([0.1, 0.2, 0.3])
    tenths4 = np.array([0.1, 0.2, 0.3, 0.7])
    ends_early = np.array([
        [3.0, -9.0, -9.0, -9.0],
        [-9.0, 3.0, -9.0, -9.0],
        [-9.0, -9.0, -9.0, -9.0],
    ])
    # Free end gaps (-0.0 boundaries), zero penalties, signed zeros.
    yield signed, zeros3, zeros3, np.array([0.0, 1.0, 0.0, 0.0]), zeros4, 0.0
    # The same with one NaN: it spreads right and down, through the last
    # row and column into both end-cell argmaxes.
    yield one_nan, zeros3, zeros3, np.array([0.0, 1.0, 0.0, 0.0]), zeros4, 0.0
    yield one_nan, tenths3, tenths3, tenths4, tenths4, 0.5
    # End cells off the corner, penalties from order-dependent sums.
    yield ends_early, 2.0 * tenths3, tenths3, 2.0 * tenths4, tenths4, 0.3
    yield ends_early.T.copy(), 2.0 * tenths4, tenths4, 2.0 * tenths3, tenths3, 0.3


def _fingerprint(score, x_map, y_map, tables) -> bytes:
    """Everything one alignment call computed, as bytes: score, maps, and
    the H, E, F, cum_x, cum_y it filled (pooled -- take this before the
    thread's next call)."""
    return b"".join(
        np.asarray(part).tobytes() for part in (score, x_map, y_map, *tables)
    )


def _reproduces_numpy(
    align: Callable[..., int],
    align_codes: Callable[..., int],
    identity_codes: Callable[..., None],
    agglomerate: Callable[..., None],
    apply: Callable[..., int],
) -> bool:
    """Do the compiled entries and the python path compute the same
    bytes here -- tables, cumulative sums, score and maps, the identity
    counts along the maps, merged clades, and guide trees' merges and
    heights?

    Ordinary values agree on any IEEE host by construction.  What a
    platform is free to choose is which of ``+0.0`` / ``-0.0``
    ``np.maximum`` (and ``np.minimum``) returns, how NaN travels and
    where ``np.argmax`` puts it, and the order ``np.cumsum`` adds in, so
    the probe is made of exactly those, plus the ties where
    ``np.argmin`` takes the first minimum
    (:func:`repro.tree.builders._agglomeration_reproduces_numpy`).
    The merge entry is integers only; its cases are the path shapes a
    merge meets (leading and trailing gaps on either side, one-row and
    one-column sides) and paths it must refuse.
    """
    from repro.align.dp import (  # dp imports this module
        _align_compiled, _align_numpy, _apply_compiled, _apply_numpy,
        _identity_compiled, _path_counts, _pooled_tables, _ptr,
    )

    for S, open_x, ext_x, open_y, ext_y, tf in _probe_cases():
        m, n = S.shape
        penalties = (open_x, ext_x, open_y, ext_y, tf)
        expected = _fingerprint(*_align_numpy(S, *penalties))
        dense = _align_compiled(align, (_ptr(S, m * n),), m, n, *penalties)
        if _fingerprint(*dense, _pooled_tables(m, n)) != expected:
            return False
        # The same scores as look-ups: S is table[x][:, y].
        table = np.ascontiguousarray(S[::-1, ::-1])
        x = np.arange(m - 1, -1, -1, dtype=np.uint8)
        y = np.arange(n - 1, -1, -1, dtype=np.uint8)
        head = (_ptr(table, m * n), n, _ptr(x, m, np.uint8), _ptr(y, n, np.uint8))
        coded = _align_compiled(align_codes, head, m, n, *penalties)
        if _fingerprint(*coded, _pooled_tables(m, n)) != expected:
            return False
        # The tile entry over the same look-ups, its one penalty vector
        # pair being the longer side's: (x, y), an empty side on either
        # hand, then (x, y) again in the memory the others left.  The
        # raw entry, unparked: a ``threads`` rank resolving the kernel
        # keeps its run token, so no other rank starts a resolution.
        opens, exts = (open_y, ext_y) if n >= m else (open_x, ext_x)
        _score, x_map, y_map, _ = _align_numpy(
            S, opens[:m], exts[:m], opens[:n], exts[:n], tf
        )
        pair = _path_counts(x, y, x_map, y_map)
        counts = _identity_compiled(
            identity_codes, table, np.concatenate([x, y]),
            np.array([0, m, m + n, m + n]),
            np.array([0, 0, 2, 0]), np.array([1, 2, 1, 1]), opens, exts, tf,
        )
        if counts.tolist() != [pair, [0, 0], [0, 0], pair]:
            return False
    for case in _apply_probe_cases():
        compiled = _applied(
            lambda *arrays: _apply_compiled(apply, *arrays), case
        )
        if compiled != _applied(_apply_numpy, case):
            return False
    from repro.tree.builders import _agglomeration_reproduces_numpy

    return _agglomeration_reproduces_numpy(agglomerate)


def _apply_probe_cases():
    """``(x_codes, x_counts, y_codes, y_counts, x_map, y_map)`` cases for
    the merge entry: the path shapes a merge meets, then paths that are
    not merges (scrambled, a column gapped on both sides, a column left
    over) which both paths must refuse."""
    x = np.array([[0, 3, 1], [2, 2, 3]], dtype=np.uint8)  # 3 is the gap
    y = np.array([[1, 0]], dtype=np.uint8)
    one = np.array([[2]], dtype=np.uint8)
    x_counts, y_counts, one_counts = (
        code_counts(x, 4), code_counts(y, 4), code_counts(one, 4)
    )
    for x_map, y_map in (
        ([-1, 0, 1, -1, 2], [0, -1, -1, 1, -1]),
        ([0, 1, 2, -1, -1], [-1, -1, -1, 0, 1]),
        ([0, 1, 2], [0, -1, 1]),
        ([1, 0, 2, -1, -1], [-1, -1, -1, 0, 1]),
        ([0, 1, 2, -1, -1, -1], [-1, -1, -1, 0, 1, -1]),
        ([0, 1, -1], [-1, 0, 1]),
    ):
        yield x, x_counts, y, y_counts, x_map, y_map
    yield one, one_counts, x, x_counts, [-1, 0, -1], [0, 1, 2]
    yield y, y_counts, one, one_counts, [0, 1], [0, -1]


def _applied(apply: Callable, case) -> Optional[bytes]:
    """What ``apply`` makes of a probe case, as bytes; ``None`` when it
    refuses the path."""
    x_codes, x_counts, y_codes, y_counts, x_map, y_map = case
    maps = (np.array(x_map, dtype=np.int64), np.array(y_map, dtype=np.int64))
    try:
        codes, counts = apply(x_codes, x_counts, y_codes, y_counts, *maps)
    except ValueError:
        return None
    return b"".join(
        np.asarray(part).tobytes()
        for part in (codes.shape, codes, counts.shape, counts)
    )
