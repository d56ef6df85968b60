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
