"""Wire format and segment lifecycle of :mod:`repro.pool.shm`.

Three wire kinds, one ownership rule each: inline (``"i"``) owns
nothing, single-consumer shm (``"s"``) is unlinked by its one decoder,
shared fan-out shm (``"S"``) is unlinked by the encoder's registry.
Every test asserts the segment count in ``/dev/shm`` because leaked
segments are the failure mode this module exists to prevent.
"""

import uuid

import numpy as np
import pytest

from repro.pool import (
    DEFAULT_SHM_THRESHOLD,
    SegmentRegistry,
    ShmRef,
    TransportStats,
    decode_payload,
    encode_payload,
)
from repro.pool.shm import shm_dir_segments, unlink_segment, unlink_wire


@pytest.fixture()
def registry():
    """A registry under a prefix of its own: the leak check covers every
    segment the test creates and nothing a stale run left behind, and a
    test that does leak cleans up after itself so the next run is green."""
    reg = SegmentRegistry(f"rpshm-test-{uuid.uuid4().hex[:12]}")
    yield reg
    reg.close_all()
    leaked = shm_dir_segments(reg.prefix)
    for name in leaked:
        unlink_segment(name)
    assert leaked == []


def _payload():
    return {
        "text": "x" * 100,
        "array": np.arange(64, dtype=np.float64),
        "nested": [(1, 2.5), None, b"bytes"],
    }


def _assert_round_trip(obj, out):
    assert out["text"] == obj["text"]
    assert np.array_equal(out["array"], obj["array"])
    assert out["nested"] == obj["nested"]


class TestInlineWire:
    def test_small_payload_stays_inline(self, registry):
        wire = encode_payload(_payload(), registry)
        assert wire[0] == "i"
        assert registry.live_segments == 0
        _assert_round_trip(_payload(), decode_payload(wire))

    def test_no_registry_means_inline_at_any_size(self):
        big = np.zeros(2 * DEFAULT_SHM_THRESHOLD, dtype=np.uint8)
        wire = encode_payload({"big": big})
        assert wire[0] == "i"
        assert np.array_equal(decode_payload(wire)["big"], big)

    def test_inline_metering(self, registry):
        encode_payload(_payload(), registry)
        assert registry.stats.pickle_msgs == 1
        assert registry.stats.pickle_bytes > 0
        assert registry.stats.shm_msgs == 0


class TestShmWire:
    def test_threshold_forces_segment(self, registry):
        wire = encode_payload(_payload(), registry, threshold=1)
        assert wire[0] == "s"
        assert isinstance(wire[1], ShmRef)
        assert registry.live_segments == 1
        assert registry.live_bytes > 0

    def test_decode_copies_and_unlinks(self, registry):
        wire = encode_payload(_payload(), registry, threshold=1)
        registry.forget(wire[1].name)  # descriptor "on the queue" now
        assert len(shm_dir_segments(registry.prefix)) == 1
        _assert_round_trip(_payload(), decode_payload(wire))
        assert shm_dir_segments(registry.prefix) == []

    def test_large_payload_crosses_default_threshold(self, registry):
        big = np.arange(DEFAULT_SHM_THRESHOLD, dtype=np.uint8)
        wire = encode_payload({"big": big}, registry)
        assert wire[0] == "s"
        registry.forget(wire[1].name)
        assert np.array_equal(decode_payload(wire)["big"], big)

    def test_decoded_arrays_own_their_memory(self, registry):
        arr = np.arange(512, dtype=np.int64)
        wire = encode_payload(arr, registry, threshold=1)
        registry.forget(wire[1].name)
        out = decode_payload(wire)
        out[0] = -1  # segment is gone; the copy must be writable
        assert out[0] == -1 and np.array_equal(out[1:], arr[1:])

    def test_shm_metering(self, registry):
        wire = encode_payload(_payload(), registry, threshold=1)
        assert registry.stats.shm_msgs == 1
        assert registry.stats.shm_bytes == wire[1].nbytes

    def test_unlink_wire(self, registry):
        wire = encode_payload(_payload(), registry, threshold=1)
        registry.forget(wire[1].name)
        assert unlink_wire(wire)
        assert shm_dir_segments(registry.prefix) == []
        assert not unlink_wire(wire)  # second unlink is a no-op
        assert not unlink_wire(("i", b"", ()))  # inline owns nothing


class TestSharedWire:
    def test_fan_out_survives_many_decodes(self, registry):
        obj = _payload()
        wire = encode_payload(obj, registry, threshold=1, shared=True)
        assert wire[0] == "S"
        for _ in range(4):  # every consumer copies; none unlinks
            _assert_round_trip(obj, decode_payload(wire))
            assert len(shm_dir_segments(registry.prefix)) == 1
        registry.release_all()
        assert shm_dir_segments(registry.prefix) == []


class TestValidation:
    def test_unknown_wire_kind(self):
        with pytest.raises(ValueError, match="unknown pool wire kind"):
            decode_payload(("z", None))

    def test_garbage_segment_rejected(self, registry):
        seg = registry.create(64)
        seg.buf[:4] = b"JUNK"
        wire = ("s", ShmRef(name=seg.name, nbytes=64))
        with pytest.raises(ValueError, match="does not carry"):
            decode_payload(wire)

    def test_truncated_segment_rejected(self, registry):
        seg = registry.create(4)
        wire = ("s", ShmRef(name=seg.name, nbytes=4))
        with pytest.raises(ValueError, match="too small"):
            decode_payload(wire)


class TestRegistry:
    def test_create_release_accounting(self, registry):
        seg = registry.create(128)
        assert registry.created_total == 1
        assert registry.live_segments == 1
        registry.release(seg.name)
        assert registry.unlinked_total == 1
        assert registry.live_segments == 0
        registry.release(seg.name)  # idempotent
        assert registry.unlinked_total == 1

    def test_forget_hands_off_without_unlinking(self, registry):
        seg = registry.create(128)
        registry.forget(seg.name)
        assert registry.live_segments == 0
        assert len(shm_dir_segments(registry.prefix)) == 1  # still exists
        assert unlink_segment(seg.name)

    def test_names_are_prefix_scoped_and_unique(self, registry):
        segs = [registry.create(32) for _ in range(3)]
        names = registry.names()
        assert len(set(names)) == 3
        assert all(n.startswith(registry.prefix) for n in names)
        assert sorted(shm_dir_segments(registry.prefix)) == sorted(names)
        del segs


class TestTransportStats:
    def test_absorb_and_to_dict(self):
        a = TransportStats(shm_msgs=1, shm_bytes=10, pickle_msgs=2,
                           pickle_bytes=20)
        b = TransportStats()
        b.absorb(a)
        b.absorb({"shm_msgs": 1, "shm_bytes": 5,
                  "pickle_msgs": 0, "pickle_bytes": 0})
        assert b.to_dict() == {
            "shm_msgs": 2, "shm_bytes": 15,
            "pickle_msgs": 2, "pickle_bytes": 20,
        }


class TestFixture:
    def test_a_stale_segment_outside_the_prefix_is_not_counted(self, registry):
        stale = SegmentRegistry("rpshm-test")
        wire = encode_payload(_payload(), stale, threshold=1)
        stale.forget(wire[1].name)  # left behind, as a killed run would
        try:
            assert shm_dir_segments("rpshm-test") != []
            assert shm_dir_segments(registry.prefix) == []
        finally:
            assert unlink_wire(wire)
