"""Spans: no-op discipline, nesting, collection, export, breakdowns."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.obs.tracing import (
    SpanRecord,
    TraceContext,
    collect,
    disable_tracing,
    drain_spans,
    enable_tracing,
    global_records,
    install_context,
    propagation_context,
    record_spans,
    restore_context,
    span,
    stage_breakdown,
    to_chrome_trace,
    tracing_enabled,
    write_chrome_trace,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        a, b = span("x"), span("y", k=1)
        assert a is b  # one shared singleton: zero allocation per call
        with a as s:
            s.set(irrelevant=True)
        assert drain_spans() == []


class TestEnabledPath:
    def test_records_name_duration_attrs(self):
        enable_tracing()
        with span("work", kind="test") as s:
            s.set(extra=7)
        (rec,) = drain_spans()
        assert rec.name == "work"
        assert rec.attrs == {"kind": "test", "extra": 7}
        assert rec.dur >= 0.0
        assert rec.parent_id is None

    def test_nesting_sets_parent_ids(self):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        recs = {r.name: r for r in drain_spans()}
        assert recs["inner"].parent_id == recs["outer"].span_id
        assert recs["inner"].trace_id == recs["outer"].trace_id

    def test_exception_annotates_and_closes(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        (rec,) = drain_spans()
        assert rec.attrs["error"] == "RuntimeError"
        # The stack unwound: a fresh span is a root again.
        with span("after"):
            pass
        (rec,) = drain_spans()
        assert rec.parent_id is None

    def test_collect_tees_to_global(self):
        enable_tracing()
        with collect() as buf:
            with span("job"):
                pass
        assert [r.name for r in buf.records()] == ["job"]
        assert [r.name for r in global_records()] == ["job"]

    def test_collect_no_tee_keeps_global_clean(self):
        enable_tracing()
        with collect(tee=False) as buf:
            with span("private"):
                pass
        assert len(buf) == 1
        assert global_records() == []

    def test_record_spans_feeds_current_sink(self):
        enable_tracing()
        foreign = SpanRecord(
            name="shipped", span_id="p-1", parent_id=None, trace_id="t",
            pid=1, tid=1, t0=0.0, dur=0.5,
        )
        with collect() as buf:
            record_spans([foreign])
        assert buf.records() == [foreign]
        assert global_records() == [foreign]  # teed like a local span

    def test_recorded_span_is_a_plain_frozen_picklable_record(self):
        enable_tracing()
        with span("work", k=1):
            pass
        (rec,) = drain_spans()
        assert rec.pid == os.getpid()
        assert rec.span_id.startswith(f"{os.getpid():x}-")
        assert rec == SpanRecord(**dataclasses.asdict(rec))
        assert pickle.loads(pickle.dumps(rec)) == rec
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.name = "other"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_records_its_own_pid(self):
        # Forked from a fresh single-threaded interpreter, not from the
        # test session's threads.
        script = textwrap.dedent("""
            import json, os
            from repro.obs.tracing import collect, enable_tracing, span
            enable_tracing()
            with span("in-parent"):
                pass
            read_fd, write_fd = os.pipe()
            child = os.fork()
            if child == 0:
                with collect(tee=False) as buf:
                    with span("in-child"):
                        pass
                (rec,) = buf.records()
                os.write(write_fd, json.dumps([rec.pid, rec.span_id]).encode())
                os._exit(0)
            os.close(write_fd)
            with os.fdopen(read_fd) as fh:
                pid, span_id = json.loads(fh.read())
            os.waitpid(child, 0)
            print(json.dumps([child, pid, span_id]))
        """)
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        ).stdout
        child, pid, span_id = json.loads(out)
        assert pid == child
        assert span_id.startswith(f"{child:x}-")


class TestContextPropagation:
    def test_install_restore_roundtrip(self):
        enable_tracing()
        with span("parent"):
            ctx = propagation_context()
            assert isinstance(ctx, TraceContext)
            assert ctx.parent_id is not None

            result = {}

            def worker():
                buf, token = install_context(ctx)
                try:
                    with span("child"):
                        pass
                    result["spans"] = buf.drain()
                finally:
                    restore_context(token)

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        (child,) = result["spans"]
        assert child.parent_id == ctx.parent_id
        assert child.trace_id == ctx.trace_id
        # The worker's spans were shipped, not teed into the global sink.
        assert [r.name for r in drain_spans()] == ["parent"]

    def test_install_force_enables(self):
        disable_tracing()
        ctx = TraceContext(trace_id="t", parent_id=None)
        buf, token = install_context(ctx)
        try:
            assert tracing_enabled()
            with span("in-worker"):
                pass
            assert len(buf) == 1
        finally:
            restore_context(token)
        assert not tracing_enabled()


class TestExports:
    def _records(self):
        enable_tracing()
        with span("a", backend="threads"):
            with span("b"):
                pass
        return drain_spans()

    def test_chrome_trace_shape(self):
        doc = to_chrome_trace(self._records())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        by_name = {e["name"]: e for e in events}
        assert by_name["b"]["args"]["parent_id"] == by_name["a"]["args"]["span_id"]
        assert by_name["a"]["args"]["backend"] == "threads"
        assert all(e["ts"] > 0 and e["dur"] >= 0 for e in events)

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._records())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2

    def test_stage_breakdown_groups_by_name(self):
        enable_tracing()
        with span("root"):
            for _ in range(3):
                with span("step"):
                    pass
        (node,) = stage_breakdown(drain_spans())
        assert node["stage"] == "root"
        assert node["count"] == 1
        (child,) = node["children"]
        assert child["stage"] == "step"
        assert child["count"] == 3
        assert 0.0 <= child["total_s"] <= node["total_s"]

    def test_stage_breakdown_orphans_become_roots(self):
        rec = SpanRecord(
            name="orphan", span_id="s", parent_id="missing", trace_id="t",
            pid=1, tid=1, t0=0.0, dur=1.0,
        )
        (node,) = stage_breakdown([rec])
        assert node["stage"] == "orphan"
        assert node["total_s"] == 1.0

    def test_stage_breakdown_sorts_by_total(self):
        recs = [
            SpanRecord(name="slow", span_id="a", parent_id=None,
                       trace_id="t", pid=1, tid=1, t0=0.0, dur=2.0),
            SpanRecord(name="fast", span_id="b", parent_id=None,
                       trace_id="t", pid=1, tid=1, t0=0.0, dur=0.5),
        ]
        assert [n["stage"] for n in stage_breakdown(recs)] == ["slow", "fast"]
