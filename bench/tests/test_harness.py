"""Checks of the benchmark harness itself; runs no workload."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from bench.checks import alignment_problems
from bench.layers import PER_LAYER_UNITS
from bench.stats import best_tenth, summarize, tail_percentile
from bench.trace import Recorder, Span, self_time_by_name, self_times
from bench.workloads import WORKLOADS, derive_seed, zipf_streams

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(span_id, name, parent, start, end):
    return Span(span_id, name, solve=1, parent=parent, start=start, end=end)


def test_self_time_is_duration_minus_children():
    spans = [
        _span(1, "msa.local_align", None, 0.0, 10.0),
        _span(2, "distance.all_pairs", 1, 1.0, 3.0),
        _span(3, "tree.merge", 1, 3.0, 8.0),
        _span(4, "dp", 3, 4.0, 5.0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    by_name = self_time_by_name(spans)
    assert sum(by_name.values()) == 10.0  # every second lands in one layer


def test_recorder_nests_per_thread_and_tags_the_solve():
    rec = Recorder()
    rec.solve = 7
    with rec.span("outer", rank=0) as outer:
        with rec.span("inner"):
            pass
    inner, recorded_outer = rec.spans
    assert recorded_outer is outer and outer.parent is None
    assert inner.parent == outer.span_id
    assert {s.solve for s in rec.spans} == {7}
    assert outer.start <= inner.start <= inner.end <= outer.end

    off = Recorder(enabled=False)
    with off.span("anything") as nothing:
        pass
    assert nothing is None and off.spans == []


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(39)) is None
    assert tail_percentile(range(40)) == (75.0, 29)  # ranks 31..40 lie beyond
    assert tail_percentile(range(100)) == (90.0, 89)
    assert tail_percentile(range(1000)) == (99.0, 989)
    assert tail_percentile(range(10000)) == (99.9, 9989)


def test_summary_reports_median_iqr_and_count():
    stats = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (stats["median"], stats["n"]) == (3.0, 5)
    assert stats["iqr"] == 3.0  # quartiles 1.5 and 4.5 (exclusive method)
    assert stats["tail_percentile"] is None
    assert summarize([2.5])["iqr"] == 0.0


def test_best_tenth_is_the_mean_of_the_highest_tenth():
    assert best_tenth(range(40)) == (39 + 38 + 37 + 36) / 4
    assert best_tenth([3.0, 9.0, 1.0]) == 9.0  # never fewer than one


def test_zipf_stream_repeats_for_a_seed_and_differs_across_seeds():
    a = zipf_streams(derive_seed("serve", 1, "stream"), 400, 32)
    assert a == zipf_streams(derive_seed("serve", 1, "stream"), 400, 32)
    assert a != zipf_streams(derive_seed("serve", 2, "stream"), 400, 32)
    assert [len(s) for s in a] == [200, 200]
    assert all(0 <= i < 32 for s in a for i in s)
    # Skewed: the head family is asked for far more often than the mean.
    counts = np.bincount([i for s in a for i in s], minlength=32)
    assert counts[0] > 4 * counts.mean()


def test_alignment_invariants_catch_each_violation():
    from repro.seq.alignment import Alignment
    from repro.seq.sequence import Sequence

    inputs = [Sequence("a", "MKT"), Sequence("b", "MT")]
    good = Alignment.from_rows(["a", "b"], ["MKT", "M-T"])
    assert alignment_problems(good, inputs) == []
    assert alignment_problems(
        Alignment.from_rows(["a", "b"], ["MKT-", "M-T-"]), inputs
    ) == ["all-gap column"]
    assert "degap" in alignment_problems(
        Alignment.from_rows(["a", "b"], ["MKT", "MK-"]), inputs
    )[0]
    assert "ids" in alignment_problems(
        Alignment.from_rows(["b", "a"], ["M-T", "MKT"]), inputs
    )[0]
    assert "ids" in alignment_problems(
        Alignment.from_rows(["a"], ["MKT"]), inputs
    )[0]


def test_benchmark_json_names_what_the_harness_measures():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "solve_wall_s", "warm_rps", "quality_q", "peak_rss_mib",
    ]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_bounds_are_shares_and_setup_has_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("lower", "higher")
