"""A thread-local grow-only buffer pool for the DP kernels' work tables
(:mod:`repro.align.dp`, :mod:`repro.align.batchdp`)."""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np

__all__ = ["TablePool"]


class TablePool(threading.local):
    """Thread-local grow-only buffer pool: the align-mode H/E/F tables,
    the compiled call's small work buffers, and the batched score
    kernel's padded rows (:mod:`repro.align.batchdp`).

    The traceback path fills three dense ``(m+1, n+1)`` tables per call;
    near the root of a merge DAG those are multi-MB, and a fresh
    ``np.empty`` pays the page-fault cost on every merge.  Every cell of
    every table is written before it is read (row 0 plus each row's full
    slots), so reusing the allocation across calls cannot change a
    single value.  The tables never outlive the call: the traceback
    reads them and returns plain index arrays.

    Each buffer's address is taken once, when it is allocated: a pooled
    buffer is C-contiguous, of its key's dtype and at least as large as
    asked, which is what :func:`repro.align.dp._ptr` checks of a
    caller's array.
    """

    def __init__(self) -> None:
        self.bufs: dict = {}

    def take(
        self, key: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        self.address(key, size, dtype)
        return self.bufs[key][0][:size].reshape(shape)

    def address(self, key: str, size: int, dtype=np.float64) -> int:
        """Where buffer ``key`` (grown to ``size`` items) starts, for a
        compiled call that fills it."""
        entry = self.bufs.get(key)
        if entry is None or entry[0].size < size:
            buf = np.empty(size, dtype=dtype)
            entry = self.bufs[key] = (buf, buf.ctypes.data)
        return entry[1]
