"""Payload transport over :mod:`multiprocessing.shared_memory`.

The pool's wire problem: pickling every payload into a queue means a
10 MB profile block is serialised, copied into a pipe
buffer kernel-side, and copied out again.  This module gives the pool a
second lane: payloads above a size threshold ride a *named shared-memory
segment* and only a tiny :class:`ShmRef` descriptor crosses the queue.

Encoding uses pickle protocol 5 with out-of-band buffers: numpy arrays
(sequence code batches, condensed distance tiles, profile frequency
blocks) are written straight from their source memoryview into the
segment and copied out by the decoder -- one copy in, one copy out, so
the consumer's arrays own their memory once the segment is gone.

Segment lifecycle is explicit because the stdlib resource tracker cannot
express "created here, consumed there":

- every segment carries a compact header (magic, version, buffer table)
  so a stale or foreign segment is rejected instead of misread;
- each process keeps a :class:`SegmentRegistry` of segments it is
  responsible for; the **consumer unlinks** (every payload has exactly
  one consumer -- a rank message or a report);
- senders ``forget`` a segment once its descriptor is queued
  (responsibility travels with the message), and queue *drains* on
  abort/close unlink any descriptors still in flight
  (:func:`unlink_wire`);
- both sides unregister from the stdlib resource tracker, so our
  registry is the single source of truth and interpreter exit never
  double-unlinks or warns.

``encode_payload`` falls back to an inline pickled wire for payloads
below ``threshold`` -- a queue hop is cheaper than a segment for small
messages (barrier clocks, tile offsets, status reports).
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "SegmentRegistry",
    "ShmRef",
    "TransportStats",
    "decode_payload",
    "encode_payload",
    "unlink_segment",
    "unlink_wire",
]

#: Payloads at or above this many serialised bytes ride shared memory;
#: smaller ones stay inline on the queue.
DEFAULT_SHM_THRESHOLD = 64 * 1024

#: Segment header: magic, version, n_buffers, main-blob length.
_MAGIC = b"RPSM"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class ShmRef:
    """Queue-sized descriptor of one shared-memory payload."""

    name: str
    nbytes: int  #: serialised payload bytes inside the segment


@dataclass
class TransportStats:
    """Byte accounting of one endpoint's encodes (shm lane vs pickle lane)."""

    shm_msgs: int = 0
    shm_bytes: int = 0
    pickle_msgs: int = 0
    pickle_bytes: int = 0

    def absorb(self, other: "TransportStats" | Dict[str, int]) -> None:
        if isinstance(other, TransportStats):
            other = other.to_dict()
        self.shm_msgs += int(other.get("shm_msgs", 0))
        self.shm_bytes += int(other.get("shm_bytes", 0))
        self.pickle_msgs += int(other.get("pickle_msgs", 0))
        self.pickle_bytes += int(other.get("pickle_bytes", 0))

    def to_dict(self) -> Dict[str, int]:
        return {
            "shm_msgs": self.shm_msgs,
            "shm_bytes": self.shm_bytes,
            "pickle_msgs": self.pickle_msgs,
            "pickle_bytes": self.pickle_bytes,
        }


_tracker_lock = threading.Lock()


def _open_shm(
    name: Optional[str] = None, create: bool = False, size: int = 0
) -> shared_memory.SharedMemory:
    """Open a segment without registering it with the resource tracker.

    On this interpreter (pre-3.13, no ``track=False``) *both* creating
    and attaching register with the tracker (bpo-39959).  The tracker's
    cache is a set shared by the whole fork tree, so creator/consumer
    register+unregister pairs interleaving across processes corrupt it
    (KeyError spam in the tracker, or a double unlink at exit).  The
    pool manages segment lifecycle itself -- :class:`SegmentRegistry`
    plus the close-time name-prefix sweep -- so registration is
    suppressed at the source by patching ``register`` out for the
    duration of the constructor.
    """
    with _tracker_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(
                name=name, create=create, size=size
            )
        finally:
            resource_tracker.register = original


def _unlink_handle(seg: shared_memory.SharedMemory) -> bool:
    """``seg.unlink()`` without the tracker unregister it would emit.

    The stdlib's ``unlink`` unconditionally unregisters -- but nothing
    was registered (:func:`_open_shm`), and an unmatched unregister
    corrupts the tracker cache shared across the fork tree.
    """
    with _tracker_lock:
        original = resource_tracker.unregister
        resource_tracker.unregister = lambda *a, **k: None
        try:
            seg.unlink()
        except FileNotFoundError:  # raced with another cleaner
            return False
        finally:
            resource_tracker.unregister = original
    return True


def unlink_segment(name: str) -> bool:
    """Unlink segment ``name`` if it still exists; True when it did."""
    try:
        seg = _open_shm(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return _unlink_handle(seg)


def unlink_wire(wire: Any) -> bool:
    """Unlink the segment behind a wire tuple, if it has one.

    Queue drains call this on every in-flight message after an abort or
    at close, so a payload nobody will ever consume cannot leak its
    segment.
    """
    if isinstance(wire, tuple) and len(wire) == 2 and wire[0] in ("s", "S"):
        return unlink_segment(wire[1].name)
    return False


class SegmentRegistry:
    """The segments one process is currently responsible for: those it
    created and has not yet handed off (``forget``) to a queued message,
    or still fans out to several decoders (a shared wire).

    ``close_all`` unlinks everything still owned -- the crash/exit
    backstop that keeps ``/dev/shm`` clean no matter how a run ended.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._seq = 0
        self.stats = TransportStats()
        self.created_total = 0
        self.unlinked_total = 0

    # -- creation / hand-off -------------------------------------------------

    def create(self, size: int) -> shared_memory.SharedMemory:
        """Create (and own) a fresh named segment of at least ``size``."""
        with self._lock:
            self._seq += 1
            name = f"{self.prefix}-{self._seq}-{uuid.uuid4().hex[:8]}"
        seg = _open_shm(name=name, create=True, size=max(size, 1))
        with self._lock:
            self._segments[seg.name] = seg
            self.created_total += 1
        return seg

    def forget(self, name: str) -> None:
        """Hand responsibility off (the descriptor is on a queue now)."""
        with self._lock:
            seg = self._segments.pop(name, None)
        if seg is not None:
            seg.close()

    def release(self, name: str) -> None:
        """Abandon an owned segment (or end a fan-out): close + unlink."""
        with self._lock:
            seg = self._segments.pop(name, None)
        if seg is None:
            return
        seg.close()
        if _unlink_handle(seg):
            with self._lock:
                self.unlinked_total += 1

    def release_all(self) -> None:
        with self._lock:
            names = list(self._segments)
        for name in names:
            self.release(name)

    close_all = release_all

    # -- introspection -------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return list(self._segments)

    @property
    def live_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return sum(s.size for s in self._segments.values())


def encode_payload(
    obj: Any,
    registry: Optional[SegmentRegistry] = None,
    threshold: int = DEFAULT_SHM_THRESHOLD,
    *,
    shared: bool = False,
) -> Tuple[str, Any]:
    """Serialise ``obj`` into a queue-ready wire tuple.

    Returns ``("i", main, buffers)`` (inline pickle, protocol-5
    out-of-band buffers as bytes) for small payloads, or ``("s", ShmRef)``
    with the bytes parked in a fresh segment from ``registry``.  The
    registry owns the segment until the caller ``forget``\\ s it (after
    the descriptor is safely on a queue).

    ``shared=True`` produces a multi-consumer wire (kind ``"S"``): every
    decoder copies out without unlinking, and the *encoder's* registry
    keeps the segment alive until it ``release``\\ s it.  This is how one
    sequence batch fans out to every rank of an SPMD run through a single
    segment instead of ``n_ranks`` pickled copies.
    """
    buffers: List[pickle.PickleBuffer] = []
    main = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [b.raw() for b in buffers]
    total = len(main) + sum(v.nbytes for v in views)
    if registry is None or total < threshold:
        wire = ("i", main, tuple(bytes(v) for v in views))
        if registry is not None:
            registry.stats.pickle_msgs += 1
            registry.stats.pickle_bytes += total
        for b in buffers:
            b.release()
        return wire

    # Segment layout: header | u64 buffer lengths | main | 8-aligned buffers.
    table = struct.pack(f"<{len(views)}Q", *(v.nbytes for v in views))
    offset = _align8(_HEADER.size + len(table) + len(main))
    size = offset
    for v in views:
        size = _align8(size + v.nbytes)
    seg = registry.create(size)
    buf = seg.buf
    _HEADER.pack_into(buf, 0, _MAGIC, _VERSION, len(views), len(main))
    buf[_HEADER.size : _HEADER.size + len(table)] = table
    start = _HEADER.size + len(table)
    buf[start : start + len(main)] = main
    pos = offset
    for v in views:
        # PickleBuffer.raw() already yields a flat uint8 view.
        buf[pos : pos + v.nbytes] = v
        pos = _align8(pos + v.nbytes)
    for b in buffers:
        b.release()
    registry.stats.shm_msgs += 1
    registry.stats.shm_bytes += total
    return ("s" if not shared else "S", ShmRef(name=seg.name, nbytes=total))


def _parse_segment(seg: shared_memory.SharedMemory):
    try:
        magic, version, n_buffers, main_len = _HEADER.unpack_from(seg.buf, 0)
    except struct.error:
        raise ValueError(
            f"shared-memory segment {seg.name!r} is too small for a "
            "pool payload header"
        ) from None
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(
            f"shared-memory segment {seg.name!r} does not carry a "
            f"version-{_VERSION} pool payload (magic {magic!r})"
        )
    table = struct.unpack_from(f"<{n_buffers}Q", seg.buf, _HEADER.size)
    start = _HEADER.size + 8 * n_buffers
    main = bytes(seg.buf[start : start + main_len])
    pos = _align8(start + main_len)
    views = []
    for nbytes in table:
        views.append(seg.buf[pos : pos + nbytes])
        pos = _align8(pos + nbytes)
    return main, views


def decode_payload(wire: Tuple[str, Any]) -> Any:
    """Reconstruct the object behind a wire tuple.

    Shared-memory buffers are copied out, so the result owns its memory,
    and a single-consumer segment is unlinked at once (the consumer
    unlinks -- every payload has exactly one).
    """
    kind = wire[0]
    if kind == "i":
        _, main, views = wire
        return pickle.loads(main, buffers=views)
    if kind not in ("s", "S"):
        raise ValueError(f"unknown pool wire kind {kind!r}")
    ref: ShmRef = wire[1]
    seg = _open_shm(name=ref.name)
    try:
        main, views = _parse_segment(seg)
    except ValueError:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - traceback holds views
            pass
        raise
    # bytearray copies keep reconstructed arrays writable, matching a
    # plain pickle round-trip on the other backends.
    obj = pickle.loads(main, buffers=[bytearray(v) for v in views])
    for v in views:  # drop the exports so the mapping can close
        v.release()
    seg.close()
    if kind == "S":  # multi-consumer: the encoder's registry unlinks
        return obj
    _unlink_handle(seg)
    return obj


def shm_dir_segments(prefix: str) -> List[str]:
    """Names of live segments under ``prefix`` (Linux ``/dev/shm`` scan).

    Best-effort: returns ``[]`` on platforms without a ``/dev/shm``.
    Used by crash cleanup and by the leak-check tests.
    """
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(base) if name.startswith(prefix)
    )
