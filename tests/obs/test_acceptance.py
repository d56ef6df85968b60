"""End-to-end acceptance: one traced request covers the whole pipeline.

A single gateway-submitted clustalw alignment must produce a span tree
covering gateway -> service -> engine -> distance -> tree -> merge ->
DP, with per-stage durations that actually account for the wall clock
(children sum to >= 90% of their parents at the top level), and an
``AlignResult`` whose diagnostics carry the same breakdown.
"""

from __future__ import annotations

import pytest

from repro.datagen.rose import generate_family
from repro.engine.api import AlignRequest
from repro.obs.tracing import (
    drain_spans,
    enable_tracing,
    stage_breakdown,
    to_chrome_trace,
)
from repro.serve.gateway import AlignmentGateway

REQUIRED_STAGES = {
    "gateway.admit",
    "gateway.compute",
    "service.execute",
    "engine.align",
    "distance.all_pairs",
    "tree.build",
    "tree.merge",
    # Every walk merges node by node, one span per merge, with the
    # merge's DP span inside.
    "tree.merge_node",
    "dp.profile_align",
    "dp.align",
}


@pytest.fixture(scope="module")
def traced_run():
    # Big enough that the span-less python around the stages (leaf
    # profiles, sequence weights: about 1 ms) stays a few per cent of
    # the request now that one merge DP is one compiled call.
    fam = generate_family(
        n_sequences=24, mean_length=250, seed=3, track_alignment=False
    )
    request = AlignRequest(
        sequences=tuple(fam.sequences), engine="clustalw"
    )
    drain_spans()
    enable_tracing()
    gateway = AlignmentGateway(n_workers=1)
    try:
        ticket = gateway.submit(request, client_id="acceptance")
        result = ticket.wait(60)
    finally:
        gateway.close()
        from repro.obs.tracing import disable_tracing

        disable_tracing()
    return result, drain_spans()


def _index(breakdown):
    out = {}

    def walk(nodes, parent):
        for node in nodes:
            out[node["stage"]] = (node, parent)
            walk(node.get("children", []), node)

    walk(breakdown, None)
    return out


class TestPipelineCoverage:
    def test_all_stages_present(self, traced_run):
        _, records = traced_run
        names = {r.name for r in records}
        assert REQUIRED_STAGES <= names, REQUIRED_STAGES - names

    def test_tree_shape(self, traced_run):
        _, records = traced_run
        stages = _index(stage_breakdown(records))
        # One thread answers the request: the gateway worker that took
        # it runs the service, which runs the engine, so the chain nests.
        assert stages["gateway.compute"][1] is None
        assert stages["service.execute"][1]["stage"] == "gateway.compute"
        assert stages["engine.align"][1]["stage"] == "service.execute"
        assert stages["distance.all_pairs"][1]["stage"] == "engine.align"
        assert stages["dp.profile_align"][1]["stage"] == "tree.merge_node"

    def test_children_account_for_parent_time(self, traced_run):
        _, records = traced_run
        stages = _index(stage_breakdown(records))
        for parent_name in ("service.execute", "engine.align"):
            parent, _ = stages[parent_name]
            child_total = sum(
                c["total_s"] for c in parent.get("children", [])
            )
            assert child_total >= 0.9 * parent["total_s"], parent_name
            assert child_total <= 1.1 * parent["total_s"], parent_name

    def test_stage_durations_cover_the_wall_clock(self, traced_run):
        result, records = traced_run
        execute = [r for r in records if r.name == "service.execute"]
        assert len(execute) == 1
        # The engine's own wall_time must be essentially all inside the
        # service.execute span (within 10%).
        assert execute[0].dur >= 0.9 * result.wall_time

    def test_result_diagnostics_carry_breakdown(self, traced_run):
        result, _ = traced_run
        breakdown = result.diagnostics.get("stage_breakdown")
        assert breakdown, "traced service runs must attach the breakdown"
        stages = _index(breakdown)
        # The per-job view starts at the service (admission is outside).
        assert "service.execute" in stages
        assert "dp.profile_align" in stages

    def test_chrome_export_is_perfetto_shaped(self, traced_run):
        _, records = traced_run
        doc = to_chrome_trace(records)
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == len(records)
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}


class TestDistanceRouteIsVisible:
    """Which path the ``full-dp`` distance stage took is readable from a
    trace and from ``/metrics`` without reading code.  Under either
    kernel it runs pair by pair: one ``dp.pairs`` span per tile whose
    ``kernel`` names the path, the work counted in ``dp.align_calls`` /
    ``dp.align_cells``, and no ``dp.batch_*`` counter moves."""

    N_PAIRS = 9 * 8 // 2

    @pytest.fixture(scope="class")
    def fulldp_runs(self, each_dp_kernel):
        """``{kernel: (spans, metric delta)}`` of one request per kernel."""
        from repro.obs.metrics import registry
        from repro.obs.tracing import disable_tracing

        fam = generate_family(
            n_sequences=9, mean_length=50, seed=4, track_alignment=False
        )
        request = AlignRequest(
            sequences=tuple(fam.sequences),
            engine="clustalw",
            engine_kwargs={"distance": "full-dp"},
        )
        runs = {}
        for name in each_dp_kernel():
            drain_spans()
            enable_tracing()
            before = registry().snapshot()
            gateway = AlignmentGateway(n_workers=1)
            try:
                gateway.submit(request, client_id="acceptance").wait(60)
            finally:
                gateway.close()
                disable_tracing()
            runs[name] = drain_spans(), registry().snapshot().diff(before)
        return runs

    @staticmethod
    def _value(delta, name):
        metric = delta.metrics.get(name)
        return 0 if metric is None else metric.value

    def test_distance_stage_spans_name_the_kernel(self, fulldp_runs):
        for kernel, (records, _) in fulldp_runs.items():
            by_id = {r.span_id: r for r in records}

            def under(rec, name):
                while rec is not None:
                    if rec.name == name:
                        return True
                    rec = by_id.get(rec.parent_id)
                return False

            in_distance = [
                r for r in records
                if r.name.startswith("dp.") and under(r, "distance.all_pairs")
            ]
            assert in_distance
            assert {r.name for r in in_distance} == {"dp.pairs"}
            assert {r.attrs["kernel"] for r in in_distance} == {kernel}
            assert sum(r.attrs["pairs"] for r in in_distance) == self.N_PAIRS
            assert all(r.attrs["cells"] > 0 for r in in_distance)
            assert not [r for r in records if r.name == "dp.batch"]

    def test_distance_pairs_count_as_align_calls(self, fulldp_runs):
        for kernel, (records, delta) in fulldp_runs.items():
            per_pair = sum(r.name == "dp.align" for r in records)
            assert self._value(delta, "dp.batch_calls") == 0
            assert self._value(delta, "dp.batch_pairs") == 0
            assert (
                self._value(delta, "dp.align_calls")
                == self.N_PAIRS + per_pair
            )
            cells = sum(
                r.attrs["cells"] if r.name == "dp.pairs"
                else r.attrs["m"] * r.attrs["n"]
                for r in records if r.name in ("dp.pairs", "dp.align")
            )
            assert self._value(delta, "dp.align_cells") == cells

    def test_trace_and_prometheus_exports_carry_it(self, fulldp_runs):
        from repro.obs.metrics import registry
        from repro.obs.prom import render_prometheus

        for kernel, (records, _) in fulldp_runs.items():
            events = to_chrome_trace(records)["traceEvents"]
            args = [e["args"] for e in events if e.get("name") == "dp.pairs"]
            assert args and {a["kernel"] for a in args} == {kernel}
        prom = render_prometheus(registry().snapshot())
        assert "dp_align_calls" in prom


class TestCladeReuseIsVisible:
    """How much of a tree a walk took from its clade table is on every
    ``tree.merge`` span (``merged`` nodes run, ``reused`` nodes taken)
    and summed in ``tree.merge_reused_nodes``."""

    def test_stage2_reuses_and_nothing_else_does(self, traced_run):
        from repro.obs.metrics import registry
        from repro.obs.tracing import disable_tracing

        fam = generate_family(
            n_sequences=16, mean_length=50, seed=8, track_alignment=False
        )
        request = AlignRequest(
            sequences=tuple(fam.sequences), engine="muscle-p"
        )
        enable_tracing()
        before = registry().snapshot()
        gateway = AlignmentGateway(n_workers=1)
        try:
            gateway.submit(request, client_id="acceptance").wait(60)
        finally:
            gateway.close()
            disable_tracing()
        delta = registry().snapshot().diff(before)
        stage1, stage2 = sorted(
            (r for r in drain_spans() if r.name == "tree.merge"),
            key=lambda r: r.t0,
        )
        assert stage1.attrs["reused"] == 0 and stage1.attrs["merged"] == 15
        assert stage2.attrs["reused"] > 0
        assert stage2.attrs["merged"] + stage2.attrs["reused"] == 15
        assert (
            delta.metrics["tree.merge_reused_nodes"].value
            == stage2.attrs["reused"]
        )
        # ClustalW's weighted merges take no table.
        _, records = traced_run
        (clustalw,) = [r for r in records if r.name == "tree.merge"]
        assert clustalw.attrs["reused"] == 0
        assert clustalw.attrs["merged"] == clustalw.attrs["n_leaves"] - 1


class TestTokenWaitIsAttributed:
    """Two distinct requests from two caller threads on one service: the
    one that has to wait for the compute token shows the wait as its own
    span, not as unexplained ``service.execute`` time, and the service
    counts it."""

    @pytest.fixture(scope="class")
    def contended_run(self):
        import threading

        from repro.engine.service import AlignmentService
        from repro.obs.tracing import disable_tracing

        requests = [
            AlignRequest(
                sequences=tuple(
                    generate_family(
                        # ~0.1 s of muscle each on the compiled kernel
                        # (16 x 200 took 0.045-0.05 s on a 2-core Xeon):
                        # over the 0.05 s floor the test below needs.
                        n_sequences=24, mean_length=250, seed=seed,
                        track_alignment=False,
                    ).sequences
                ),
                engine="muscle",
            )
            for seed in (21, 22)
        ]
        drain_spans()
        enable_tracing()
        service = AlignmentService(max_workers=2)
        callers = [
            threading.Thread(target=service.run, args=(r,)) for r in requests
        ]
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            stats = service.stats
        finally:
            disable_tracing()
        return stats, drain_spans()

    def test_token_wait_sits_under_service_execute(self, contended_run):
        _, records = contended_run
        by_id = {r.span_id: r for r in records}
        waits = [r for r in records if r.name == "service.token_wait"]
        assert len(waits) == 2
        for wait in waits:
            assert by_id[wait.parent_id].name == "service.execute"
        stages = _index(stage_breakdown(records))
        assert stages["service.token_wait"][1]["stage"] == "service.execute"

    def test_wait_and_engine_account_for_service_execute(self, contended_run):
        stats, records = contended_run
        parts = ("service.token_wait", "engine.align", "engine.score")
        executes = [r for r in records if r.name == "service.execute"]
        assert len(executes) == 2
        checked = 0
        for execute in executes:
            children = {
                r.name: r.dur for r in records
                if r.parent_id == execute.span_id and r.name in parts
            }
            assert set(children) == set(parts)
            if children["engine.align"] < 0.05:
                continue  # too short for a 5 % bound on this host
            checked += 1
            assert sum(children.values()) == pytest.approx(
                execute.dur, rel=0.05
            )
        assert checked >= 1
        # One of the two waited for the other, and the counters saw it.
        waited = sum(
            r.dur for r in records if r.name == "service.token_wait"
        )
        assert stats["compute_waits"] >= 1
        assert stats["compute_wait_s"] == pytest.approx(waited, rel=0.05)


class TestRowKernelIsVisible:
    """Which scalar row loop ran (compiled or numpy) is on every
    ``dp.profile_align`` / ``dp.align`` span (and which agglomeration
    loop on every ``tree.build`` span) and in ``/metrics``, with the
    reason when the numpy fallback was taken."""

    def _run(self, traced):
        fam = generate_family(
            n_sequences=8, mean_length=40, seed=6, track_alignment=False
        )
        request = AlignRequest(sequences=tuple(fam.sequences), engine="muscle")

        def serve():
            gateway = AlignmentGateway(n_workers=1)
            try:
                gateway.submit(request, client_id="acceptance").wait(60)
                return gateway.metrics()
            finally:
                gateway.close()

        metrics, records = traced(serve)
        return records, metrics

    def test_spans_and_metrics_name_the_kernel(self, dp_kernel, traced):
        from repro.obs.prom import render_prometheus

        records, metrics = self._run(traced)
        for name in ("dp.profile_align", "dp.align", "tree.build"):
            spans = [r for r in records if r.name == name]
            assert spans and {r.attrs["kernel"] for r in spans} == {dp_kernel}
        by_id = {r.span_id: r for r in records}
        fills = [r for r in records if r.name == "dp.align"]
        assert {by_id[r.parent_id].name for r in fills} == {"dp.profile_align"}
        assert metrics["dp.kernel"] == dp_kernel
        prom = render_prometheus(None, extra={"gateway": metrics})
        assert f'repro_gateway_dp_kernel_info{{kernel="{dp_kernel}"}} 1' in prom
        if dp_kernel == "c":
            assert "dp.kernel_fallback" not in metrics
        else:
            assert metrics["dp.kernel_fallback"] == "forced"
            assert 'dp_kernel_fallback_info{fallback="forced"} 1' in prom

    def test_counters_keep_their_meaning(self, dp_kernel, traced):
        from repro.obs.metrics import registry

        before = registry().snapshot()
        records, _ = self._run(traced)
        delta = registry().snapshot().diff(before)
        fills = [r for r in records if r.name == "dp.align"]
        assert delta.metrics["dp.align_calls"].value == len(fills)
        assert delta.metrics["dp.align_cells"].value == sum(
            r.attrs["m"] * r.attrs["n"] for r in fills
        )
