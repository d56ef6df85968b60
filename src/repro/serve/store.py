"""Content-addressed, disk-backed alignment result store.

:class:`ResultStore` is a :class:`~repro.engine.service.CacheBackend`
whose entries live on disk, so cached alignments survive process
restarts.  Entries written by one process are readable by any other
pointed at the same directory (content addressing + atomic publishes
make concurrent reads/writes safe); note however that the LRU *index*
and byte-budget accounting are per-process -- N concurrent writer
processes can jointly hold up to N times the budget until one of them
rescans.  Give each long-lived writer its own directory, or accept the
slack.  Design points:

- **Content addressing.**  Keys are
  :meth:`~repro.engine.api.AlignRequest.content_hash` digests; the entry
  for key ``ab12...`` lives at ``<root>/ab/ab12....json``.  Because the
  key is derived from the full request content, a path never has to be
  invalidated -- a different request is a different path.
- **Atomic writes.**  Entries are written to a temp file in the target
  directory and published with :func:`os.replace`, so readers (including
  other processes) never observe a half-written entry.
- **Corruption tolerance.**  A truncated, garbled or wrong-schema entry
  is treated as a miss: the file is deleted and the store keeps serving.
  A cache never has to be right, only never wrong -- failure mode is
  recomputation, not corruption propagation.
- **LRU-on-disk eviction.**  The store tracks per-entry sizes and evicts
  least-recently-used entries once the total exceeds ``byte_budget``.
  Recency is persisted via file mtimes (refreshed on every hit), so the
  LRU order survives restarts too.
"""

from __future__ import annotations

import json
import os
import string
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.engine.api import AlignResult

__all__ = ["ResultStore", "DEFAULT_BYTE_BUDGET"]

#: Default on-disk budget: generous for alignments (a cached result is a
#: few KB to a few hundred KB of JSON).
DEFAULT_BYTE_BUDGET = 256 * 1024 * 1024

_HEX = set(string.hexdigits.lower())


class ResultStore:
    """Disk-backed content-addressed store of :class:`AlignResult`\\ s.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).
    byte_budget:
        Total on-disk byte budget; least-recently-used entries are
        evicted once it is exceeded.  ``None`` disables eviction.

    Usage::

        store = ResultStore("/var/cache/repro-results", byte_budget=1 << 28)
        svc = AlignmentService(cache=store)   # results now survive restarts
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        byte_budget: Optional[int] = DEFAULT_BYTE_BUDGET,
    ) -> None:
        if byte_budget is not None and byte_budget < 1:
            raise ValueError("byte_budget must be >= 1 (or None)")
        self.root = Path(root)
        self.byte_budget = byte_budget
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._corrupt_dropped = 0
        self.root.mkdir(parents=True, exist_ok=True)
        #: key -> entry size in bytes, least-recently-used first.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        #: Running sum of _index values (puts are hot-path; no O(n) sums).
        self._total_bytes = 0
        self._scan()

    # -- layout ------------------------------------------------------------

    @staticmethod
    def _is_key(key: str) -> bool:
        return len(key) >= 4 and set(key) <= _HEX

    def _path(self, key: str) -> Path:
        if not self._is_key(key):
            raise ValueError(f"not a content-hash key: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    #: A temp file older than this is from a crashed writer, not a live
    #: one in another process, and may be reclaimed at scan time.
    _TMP_STALE_S = 300.0

    def _scan(self) -> None:
        """Rebuild the LRU index from disk (oldest mtime first)."""
        now = time.time()
        entries = []
        for sub in self.root.iterdir():
            if not (sub.is_dir() and len(sub.name) == 2):
                continue
            for path in sub.iterdir():
                if path.suffix != ".json" or not self._is_key(path.stem):
                    # Foreign files are never indexed (eviction could not
                    # address them) and never deleted.  Only our own
                    # staging files (.tmp) are reclaimed, and only when
                    # *stale* -- a fresh one may be a concurrent writer in
                    # another process mid-publish.
                    try:
                        if (path.suffix == ".tmp"
                                and now - path.stat().st_mtime
                                > self._TMP_STALE_S):
                            path.unlink(missing_ok=True)
                    except OSError:
                        pass
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, path.stem, st.st_size))
        entries.sort()
        self._index = OrderedDict((key, size) for _, key, size in entries)
        self._total_bytes = sum(self._index.values())

    # -- CacheBackend ------------------------------------------------------

    def get(self, key: str) -> Optional[AlignResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        A hit is one file read, one ``json.loads`` and
        :meth:`AlignResult.from_dict`, whose alignment decodes with a
        fixed number of numpy calls however many rows it has
        (:meth:`~repro.seq.alignment.Alignment.from_rows` encodes the
        rows as one string).  An unreadable or undecodable entry is
        deleted and counted as a miss.
        """
        # File I/O runs outside the lock (reads of content-addressed,
        # atomically-published files are safe concurrently); the lock
        # only guards the index and counters.
        path = self._path(key)
        try:
            payload = path.read_bytes()
            result = AlignResult.from_dict(json.loads(payload))
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
                self._drop_from_index(key)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated write, garbled JSON, or schema drift: drop the
            # entry and miss -- the service recomputes and re-stores.
            path.unlink(missing_ok=True)
            with self._lock:
                self._corrupt_dropped += 1
                self._misses += 1
                self._drop_from_index(key)
            return None
        with self._lock:
            self._hits += 1
            self._set_index(key, len(payload))
        try:
            os.utime(path)  # persist recency for post-restart LRU order
        except OSError:
            pass
        return result

    def put(self, key: str, result: AlignResult) -> None:
        path = self._path(key)
        payload = json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
        # Stage and publish outside the lock: the temp name is unique per
        # process+thread and os.replace is atomic, so writers never need
        # to serialize on the disk.
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        with self._lock:
            self._set_index(key, len(payload))
            victims = self._pop_over_budget()
        for victim in victims:
            self._path(victim).unlink(missing_ok=True)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._index):
                self._path(key).unlink(missing_ok=True)
            self._index.clear()
            self._total_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    # -- index accounting (lock held) --------------------------------------

    def _set_index(self, key: str, size: int) -> None:
        self._total_bytes += size - self._index.get(key, 0)
        self._index[key] = size
        self._index.move_to_end(key)

    def _drop_from_index(self, key: str) -> None:
        size = self._index.pop(key, None)
        if size is not None:
            self._total_bytes -= size

    # -- eviction ----------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def _pop_over_budget(self) -> list:
        """Drop over-budget index entries (lock held); return their keys.

        The caller unlinks the files outside the lock.
        """
        if self.byte_budget is None:
            return []
        victims = []
        # Never evict the newest entry: a single oversized result simply
        # overflows the budget until something replaces it.
        while self._total_bytes > self.byte_budget and len(self._index) > 1:
            key, size = self._index.popitem(last=False)
            self._total_bytes -= size
            victims.append(key)
            self._evictions += 1
        return victims

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": "disk",
                "root": str(self.root),
                "entries": len(self._index),
                "bytes": self._total_bytes,
                "byte_budget": self.byte_budget,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "corrupt_dropped": self._corrupt_dropped,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore(root={str(self.root)!r}, entries={len(self)}, "
            f"bytes={self.total_bytes})"
        )
