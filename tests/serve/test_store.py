"""ResultStore: persistence, atomicity, corruption tolerance, eviction."""

import json
import os

import pytest

from repro.engine import AlignmentService
from repro.serve.store import ResultStore


def _result_for(make_request, svc_kwargs=None, **req_kwargs):
    """Run one request through a fresh service; return (request, result)."""
    request = make_request(**req_kwargs)
    svc = AlignmentService(max_workers=1, **(svc_kwargs or {}))
    result = svc.run(request)
    return request, result


class TestRoundTrip:
    def test_put_get(self, tmp_path, make_request, counting_engine):
        store = ResultStore(tmp_path)
        request, result = _result_for(make_request)
        key = request.content_hash()
        assert store.get(key) is None  # miss first
        store.put(key, result)
        got = store.get(key)
        assert got is not None
        assert got.alignment == result.alignment
        assert got.request_hash == key
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == len(store) == 1
        assert stats["bytes"] > 0

    def test_persists_across_instances(self, tmp_path, make_request,
                                       counting_engine):
        request, result = _result_for(make_request)
        key = request.content_hash()
        ResultStore(tmp_path).put(key, result)
        # A brand-new instance over the same directory sees the entry.
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(key).alignment == result.alignment

    def test_rejects_non_hash_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="content-hash"):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError, match="content-hash"):
            store.get("zz")

    def test_no_temp_files_left_behind(self, tmp_path, make_request,
                                       counting_engine):
        store = ResultStore(tmp_path)
        request, result = _result_for(make_request)
        store.put(request.content_hash(), result)
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file()
            and p.suffix != ".json"
        ]
        assert leftovers == []


class TestCorruption:
    def test_garbled_entry_is_a_miss_and_dropped(self, tmp_path, make_request,
                                                 counting_engine):
        store = ResultStore(tmp_path)
        request, result = _result_for(make_request)
        key = request.content_hash()
        store.put(key, result)
        path = store._path(key)
        path.write_bytes(b"{not json at all")
        assert store.get(key) is None
        assert not path.exists()  # dropped, not left to fail forever
        assert store.stats()["corrupt_dropped"] == 1
        # The store keeps working: re-put, re-get.
        store.put(key, result)
        assert store.get(key) is not None

    def test_wrong_schema_is_a_miss(self, tmp_path, make_request,
                                    counting_engine):
        store = ResultStore(tmp_path)
        request, result = _result_for(make_request)
        key = request.content_hash()
        store.put(key, result)
        store._path(key).write_text(json.dumps({"engine": "x"}))
        assert store.get(key) is None
        assert store.stats()["corrupt_dropped"] == 1

    def test_scan_removes_stale_temp_files(self, tmp_path):
        import time

        sub = tmp_path / "ab"
        sub.mkdir()
        stale = sub / ".abcd.123.456.tmp"
        stale.write_bytes(b"partial")
        old = time.time() - 2 * ResultStore._TMP_STALE_S
        os.utime(stale, (old, old))
        store = ResultStore(tmp_path)
        assert not stale.exists()
        assert len(store) == 0

    def test_scan_spares_fresh_temp_files(self, tmp_path):
        """A recent temp file may be a live writer in another process."""
        sub = tmp_path / "ab"
        sub.mkdir()
        live = sub / ".abcd.123.456.tmp"
        live.write_bytes(b"mid-publish")
        ResultStore(tmp_path)
        assert live.exists()

    def test_scan_ignores_foreign_json_files(self, tmp_path, make_request,
                                             counting_engine):
        """Non-key .json files are never indexed: eviction and clear()
        must only address content-hash paths."""
        sub = tmp_path / "ab"
        sub.mkdir()
        foreign = sub / "notes.json"
        foreign.write_text("{}")
        store = ResultStore(tmp_path, byte_budget=10)
        assert len(store) == 0
        request, result = _result_for(make_request)
        store.put(request.content_hash(), result)  # evicts; must not raise
        store.clear()
        assert foreign.exists()  # foreign files are left alone


class TestEviction:
    def test_lru_by_byte_budget(self, tmp_path, make_request, counting_engine):
        # Size one entry, then budget for ~2.5 of them.
        probe = ResultStore(tmp_path / "probe")
        request, result = _result_for(make_request)
        probe.put(request.content_hash(), result)
        entry_bytes = probe.total_bytes

        store = ResultStore(tmp_path / "real", byte_budget=int(entry_bytes * 2.5))
        requests = []
        for seed in range(3):
            req, res = _result_for(make_request, seed=seed)
            requests.append(req)
            store.put(req.content_hash(), res)
        assert len(store) == 2
        assert store.total_bytes <= store.byte_budget
        assert store.stats()["evictions"] == 1
        # Oldest (seed=0) was evicted; newest two remain.
        assert store.get(requests[0].content_hash()) is None
        assert store.get(requests[2].content_hash()) is not None

    def test_hit_refreshes_lru_order(self, tmp_path, make_request,
                                     counting_engine):
        probe = ResultStore(tmp_path / "probe")
        request, result = _result_for(make_request)
        probe.put(request.content_hash(), result)
        entry_bytes = probe.total_bytes

        store = ResultStore(tmp_path / "real", byte_budget=int(entry_bytes * 2.5))
        reqs = []
        for seed in range(2):
            req, res = _result_for(make_request, seed=seed)
            reqs.append(req)
            store.put(req.content_hash(), res)
        assert store.get(reqs[0].content_hash()) is not None  # refresh 0
        req2, res2 = _result_for(make_request, seed=2)
        store.put(req2.content_hash(), res2)  # evicts 1, not 0
        assert store.get(reqs[0].content_hash()) is not None
        assert store.get(reqs[1].content_hash()) is None

    def test_single_oversized_entry_is_kept(self, tmp_path, make_request,
                                            counting_engine):
        store = ResultStore(tmp_path, byte_budget=1)
        request, result = _result_for(make_request)
        store.put(request.content_hash(), result)
        assert len(store) == 1  # never evict down to nothing

    def test_clear(self, tmp_path, make_request, counting_engine):
        store = ResultStore(tmp_path)
        request, result = _result_for(make_request)
        store.put(request.content_hash(), result)
        store.clear()
        assert len(store) == 0
        assert store.get(request.content_hash()) is None


class TestTiered:
    def test_memory_front_skips_disk_and_survives_restart(
            self, tmp_path, make_request, counting_engine):
        from repro.engine import MemoryResultCache, TieredResultCache

        def tiered():
            return TieredResultCache(
                MemoryResultCache(8), ResultStore(tmp_path)
            )

        request = make_request()
        key = request.content_hash()
        svc = AlignmentService(max_workers=1, cache=tiered())
        svc.run(request)
        svc.run(request)  # front hit
        assert counting_engine.calls == 1

        # "Restart": cold front, warm back; the get promotes into front.
        cache = tiered()
        svc = AlignmentService(max_workers=1, cache=cache)
        (job,) = svc.run_batch([request])
        assert job.cache_hit
        assert cache.front.get(key) is not None  # promoted
        assert svc.stats["cache_backend"]["backend"] == "tiered"
        assert counting_engine.calls == 1


class TestServiceIntegration:
    def test_results_survive_service_restart(self, tmp_path, make_request,
                                             counting_engine):
        """The acceptance proof: kill the process' service, restart over
        the same store directory, and repeats are served without
        recomputation (engine call counter stays put)."""
        request = make_request()
        svc = AlignmentService(max_workers=2, cache=ResultStore(tmp_path))
        svc.run(request)
        assert counting_engine.calls == 1

        # "Restart": a brand-new service and a brand-new store instance.
        svc = AlignmentService(max_workers=2, cache=ResultStore(tmp_path))
        (job,) = svc.run_batch([request])
        result = job.result
        assert job.cache_hit
        assert svc.stats["computed"] == 0
        assert counting_engine.calls == 1  # never recomputed
        assert result.alignment.n_rows == 5

    def test_put_failure_does_not_fail_the_job(self, tmp_path, make_request,
                                               counting_engine):
        """A backend that cannot store costs a recomputation later, never
        the already-computed result."""

        class BrokenPut(ResultStore):
            def put(self, key, result):
                raise OSError("disk full")

        svc = AlignmentService(max_workers=1, cache=BrokenPut(tmp_path))
        result = svc.run(make_request())
        assert result.alignment.n_rows == 5
        assert svc.stats["cache_put_failures"] == 1
        assert svc.stats["computed"] == 1

    def test_corrupt_store_entry_triggers_recompute(self, tmp_path,
                                                    make_request,
                                                    counting_engine):
        store = ResultStore(tmp_path)
        request = make_request()
        svc = AlignmentService(max_workers=1, cache=store)
        svc.run(request)
        store._path(request.content_hash()).write_bytes(b"\x00garbage")
        svc.run(request)
        assert counting_engine.calls == 2
        # And the recompute healed the entry on disk.
        assert ResultStore(tmp_path).get(request.content_hash()) is not None
