"""``repro report``: journal aggregation, baselines and the CI tripwire.

The acceptance bar: the command exits non-zero on a synthetic regressed
journal and zero on self-compare — that exact behavior, through the real
CLI entry point, is pinned here alongside the pure summarize/compare
layers underneath it.
"""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    DEFAULT_THRESHOLD,
    compare_runs,
    load_baseline,
    render_report,
    summarize_journal,
)


def write_journal(path, shard_seconds: float, shards: int = 12, label="fig3"):
    """A synthetic campaign journal with a controlled latency profile."""
    lines = [
        {"ev": "open", "mono": 0.0, "ts": 0.0, "pid": 1,
         "schema": "repro-journal/1", "campaign": "synthetic"},
        {"ev": "sweep-start", "mono": 0.01, "ts": 0.01, "pid": 1,
         "label": label, "m": 2, "units": shards, "cached": 2},
    ]
    t = 0.1
    for i in range(shards):
        t += shard_seconds
        lines.append(
            {"ev": "exec-done", "mono": t, "ts": t, "pid": 2,
             "key": f"k{i}", "label": label, "m": 2,
             "seconds": shard_seconds}
        )
        lines.append({"ev": "done", "mono": t, "ts": t, "pid": 1,
                      "key": f"k{i}", "label": label, "m": 2})
    lines.append({"ev": "retry", "mono": t, "ts": t, "pid": 1, "key": "k0",
                  "label": label, "m": 2, "attempt": 2})
    lines.append({"ev": "worker-lost", "mono": t, "ts": t, "pid": 1,
                  "slot": 0})
    lines.append({"ev": "campaign-end", "mono": t + 0.01, "ts": t + 0.01,
                  "pid": 1, "campaign": "synthetic"})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


class TestSummarize:
    def test_summary_fields(self, tmp_path):
        path = write_journal(tmp_path / "run.jsonl", 0.1, shards=10)
        summary = summarize_journal(path)
        assert summary.campaign == "synthetic"
        assert summary.executed == 10
        assert summary.cached == 2
        assert summary.retries == 1
        assert summary.lost_workers == 1
        assert summary.wall_seconds == pytest.approx(1.11, abs=0.01)
        assert summary.shards_per_sec == pytest.approx(10 / 1.11, rel=0.05)
        assert summary.latency["p95"] == pytest.approx(0.1, rel=0.1)
        sweep = summary.sweeps[("fig3", 2)]
        assert sweep["executed"] == 10
        assert sweep["seconds"] == pytest.approx(1.0, rel=1e-6)

    def test_render_report_never_raises_on_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_journal(path)
        assert summary.executed == 0 and summary.shards_per_sec is None
        assert "runs" in render_report([summary])


class TestCompare:
    def test_self_compare_is_clean(self, tmp_path):
        summary = summarize_journal(write_journal(tmp_path / "a.jsonl", 0.1))
        comparisons = compare_runs(summary, summary)
        assert comparisons and all(not c.regressed for c in comparisons)
        assert all(c.ratio == pytest.approx(1.0) for c in comparisons)

    def test_throughput_drop_and_latency_rise_regress(self, tmp_path):
        fast = summarize_journal(write_journal(tmp_path / "fast.jsonl", 0.05))
        slow = summarize_journal(write_journal(tmp_path / "slow.jsonl", 0.5))
        regressed = {
            c.metric for c in compare_runs(slow, fast) if c.regressed
        }
        assert "shards_per_sec" in regressed
        assert "shard_seconds.p95" in regressed
        # the fast run against the slow baseline is an improvement, not
        # a regression — the rule is one-sided
        assert not any(c.regressed for c in compare_runs(fast, slow))

    def test_threshold_tolerates_small_drift(self, tmp_path):
        fast = summarize_journal(write_journal(tmp_path / "a.jsonl", 0.100))
        near = summarize_journal(write_journal(tmp_path / "b.jsonl", 0.105))
        assert not any(
            c.regressed for c in compare_runs(near, fast, threshold=0.2)
        )
        assert any(
            c.regressed for c in compare_runs(near, fast, threshold=0.01)
        )

    def test_threshold_validated(self, tmp_path):
        summary = summarize_journal(write_journal(tmp_path / "a.jsonl", 0.1))
        with pytest.raises(ValueError, match="threshold"):
            compare_runs(summary, summary, threshold=0.0)


class TestBenchBaseline:
    def test_mines_best_shards_per_sec(self, tmp_path):
        artifact = tmp_path / "BENCH_fabric.json"
        artifact.write_text(json.dumps({
            "schema": "repro-bench-fabric/1",
            "backends": {
                "serial": {"shards_per_sec": 40.0},
                "cluster": {"shards_per_sec": 25.0},
            },
        }))
        baseline = load_baseline(artifact)
        assert baseline.synthetic
        assert baseline.shards_per_sec == 40.0
        assert baseline.latency["p95"] is None

    def test_journal_baseline_roundtrips(self, tmp_path):
        path = write_journal(tmp_path / "base.jsonl", 0.1)
        baseline = load_baseline(path)
        assert not baseline.synthetic
        assert baseline.executed == 12

    def test_artifact_gates_throughput_only(self, tmp_path):
        artifact = tmp_path / "BENCH.json"
        artifact.write_text(json.dumps({"x": {"shards_per_sec": 1e9}}))
        current = summarize_journal(write_journal(tmp_path / "run.jsonl", 0.1))
        comparisons = compare_runs(current, load_baseline(artifact))
        assert [c.metric for c in comparisons] == ["shards_per_sec"]
        assert comparisons[0].regressed


class TestCliExitCodes:
    """The ISSUE's acceptance bar, through the real entry point."""

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        path = write_journal(tmp_path / "run.jsonl", 0.1)
        code = main(["report", str(path), "--baseline", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline diff" in out and "REGRESSED" not in out

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        fast = write_journal(tmp_path / "fast.jsonl", 0.05)
        slow = write_journal(tmp_path / "slow.jsonl", 0.5)
        code = main(["report", str(slow), "--baseline", str(fast)])
        assert code != 0
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "REGRESSION" in captured.err

    def test_first_journal_anchors_the_rest(self, tmp_path):
        fast = write_journal(tmp_path / "fast.jsonl", 0.05)
        slow = write_journal(tmp_path / "slow.jsonl", 0.5)
        assert main(["report", str(fast), str(slow)]) != 0
        assert main(["report", str(fast), str(fast)]) == 0

    def test_single_journal_has_nothing_to_diff(self, tmp_path, capsys):
        path = write_journal(tmp_path / "run.jsonl", 0.1)
        assert main(["report", str(path)]) == 0
        assert "baseline diff" not in capsys.readouterr().out

    def test_generous_threshold_silences_noise(self, tmp_path):
        fast = write_journal(tmp_path / "fast.jsonl", 0.10)
        slow = write_journal(tmp_path / "slow.jsonl", 0.15)
        assert main(["report", str(slow), "--baseline", str(fast),
                     "--threshold", "0.05"]) != 0
        assert main(["report", str(slow), "--baseline", str(fast),
                     "--threshold", "0.9"]) == 0

    def test_missing_journal_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "absent.jsonl")])

    def test_bad_threshold_rejected(self, tmp_path):
        path = write_journal(tmp_path / "run.jsonl", 0.1)
        with pytest.raises(SystemExit):
            main(["report", str(path), "--threshold", "-1"])

    def test_default_threshold_is_documented_value(self):
        assert DEFAULT_THRESHOLD == 0.2
