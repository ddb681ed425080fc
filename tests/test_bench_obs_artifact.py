"""The committed BENCH_obs.json must stay parseable and well-formed.

The obs benchmark writes the traced fig4 slice's snapshot (plus a
``bench`` overhead block) to the repo root so the documented
``repro-obs-snapshot/1`` example travels with the code; this check keeps a
malformed or hand-mangled artifact from landing silently.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_obs.json"

REQUIRED_TOP_KEYS = {
    "schema",
    "mode",
    "counters",
    "gauges",
    "histograms",
    "spans",
    "bench",
}

HISTOGRAM_SUMMARY_KEYS = {"count", "total", "min", "max", "p50", "p95", "p99"}


def test_bench_obs_json_parses():
    data = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    missing = REQUIRED_TOP_KEYS - set(data)
    assert not missing, f"snapshot missing {sorted(missing)}"
    assert data["schema"] == "repro-obs-snapshot/1"
    assert data["mode"] == "trace"

    counters = data["counters"]
    assert list(counters) == sorted(counters)
    for prefix in ("alloc.", "dbf.", "prefilter."):
        assert any(name.startswith(prefix) for name in counters), prefix
    assert all(value >= 0 for value in counters.values())

    histograms = data["histograms"]
    assert "runner.shard-seconds" in histograms
    for name, summary in histograms.items():
        gap = HISTOGRAM_SUMMARY_KEYS - set(summary)
        assert not gap, f"{name} summary missing {sorted(gap)}"
        assert summary["count"] > 0, f"{name} committed empty"
        assert summary["min"] <= summary["p50"] <= summary["p99"]
        assert summary["p99"] <= summary["max"] * (1 + 1e-9)

    spans = data["spans"]
    assert spans["count"] == sum(spans["by_name"].values()) > 0
    assert {"sweep", "shard"} <= set(spans["by_name"])

    bench = data["bench"]
    assert bench["tasksets"] > 0
    assert set(bench["seconds"]) == {"off", "metrics", "trace"}
    assert all(value > 0 for value in bench["seconds"].values())
    assert set(bench["overhead_vs_off"]) == {"metrics", "trace"}
    assert bench["tasksets_per_sec_off"] > 0
