"""Tests of the benchmark's own arithmetic.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import statistics

import pytest

from layers import layer_metrics
from spans import Tracer, inclusive_times, self_times, union_length
from stats import iqr_share, median, percentile, quartiles, tail_permille


def span(name, start, end, parent=-1, run="r"):
    return [name, start, end, parent, run]


def test_self_time_subtracts_nested_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_back_to_back_and_overlapping_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 3.0, 5.0, parent=0),  # starts where a ends
        span("c", 4.0, 6.0, parent=0),  # overlaps b: counted once
        span("d", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (2, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert union_length([(-1, 1), (0.5, 0.7)], 0, 10) == pytest.approx(1)
    assert union_length([], 0, 10) == 0


def test_inclusive_time_counts_recursion_once_and_filters_runs():
    spans = [
        span("vdtuning", 0.0, 4.0),
        span("vdtuning", 1.0, 2.0, parent=0),
        span("dbf", 2.0, 3.0, parent=0),
        span("vdtuning", 5.0, 6.0, run="other"),
    ]
    totals = inclusive_times(spans, "r")
    assert totals["vdtuning"] == pytest.approx(4.0)
    assert totals["dbf"] == pytest.approx(1.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_permille(19) is None
    assert tail_permille(20) == 500
    assert tail_permille(99) == 500
    assert tail_permille(100) == 900
    assert tail_permille(999) == 900
    assert tail_permille(1000) == 990
    assert tail_permille(10_000) == 999


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 500) == 50.0
    assert percentile(values, 900) == 90.0
    assert percentile([3.0], 900) == 3.0
    assert percentile([], 500) == 0.0


def test_median_and_iqr_match_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 30.0, 11.5, 10.5, 12.5, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert median(values) == statistics.median(values)
    assert iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert iqr_share([5.0]) == 0.0
    with pytest.raises(ValueError):
        median([])


def test_layer_metrics_from_spans_and_counts():
    tracer = Tracer()
    first = tracer.begin("r")
    tracer.spans.extend(
        [
            span("run", 0.0, 10.0),
            span("runner", 0.5, 9.5, parent=0),
            span("allocator", 1.0, 5.0, parent=1),
            span("probe", 1.5, 4.5, parent=2),
            span("vdtuning", 2.0, 4.0, parent=3),
            span("dbf", 2.5, 3.0, parent=4),
        ]
    )
    tracer.counts.update({"allocator.calls": 1, "allocator.accepted": 1})
    metrics, rows = layer_metrics(
        tracer,
        first,
        {"qpa-runs": 2, "approx-accept": 5, "approx-reject": 1, "qpa-iterations": 7},
        {"count": 4, "iterations": 9, "accepted": 3, "rejected": 1},
    )
    assert metrics["runner.self_s"][0] == pytest.approx(5.0)
    assert metrics["vdtuning.self_s"][0] == pytest.approx(1.5)
    assert metrics["vdtuning.share"][0] == pytest.approx(0.15)
    assert metrics["vdtuning.incl_share"][0] == pytest.approx(0.2)
    assert metrics["dbf.screen_ratio"][0] == pytest.approx(6 / 8)
    assert metrics["descent.reject_ratio"][0] == pytest.approx(0.25)
    assert metrics["allocator.ms_p50"][0] == pytest.approx(4000.0)
    assert rows[0][0] == "runner"


def test_per_layer_metrics_match_benchmark_definition():
    import json
    from pathlib import Path

    definition = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    tracer = Tracer()
    first = tracer.begin("r")
    tracer.spans.append(span("run", 0.0, 1.0))
    metrics, _ = layer_metrics(tracer, first, {}, {})
    produced = set(metrics) | {
        "trace.tasksets_per_s",
        "trace.untraced_tasksets_per_s",
        "trace.overhead",
    }
    assert produced == {entry["name"] for entry in definition["per_layer"]}
    assert all(
        metrics[entry["name"]][1] == entry["unit"]
        for entry in definition["per_layer"]
        if entry["name"] in metrics
    )


def test_failed_evaluations_count_whole_buckets():
    from run import check_sweep

    reference = {
        "0.1": {"samples": 10, "accepted": {"a": 10, "b": 9}},
        "0.2": {"samples": 8, "accepted": {"a": 3, "b": 1}},
    }
    same = {"seconds": 1.0, "counts": {k: dict(v) for k, v in reference.items()}}
    assert check_sweep(same, reference, 2) == (36, 0)
    wrong = {"seconds": 1.0, "counts": dict(reference)}
    wrong["counts"]["0.2"] = {"samples": 8, "accepted": {"a": 3, "b": 2}}
    assert check_sweep(wrong, reference, 2) == (36, 16)
    missing = {"seconds": 1.0, "counts": {"0.1": reference["0.1"]}}
    assert check_sweep(missing, reference, 2) == (36, 16)
    assert check_sweep({"seconds": 1.0, "error": "boom"}, reference, 2) == (36, 36)
