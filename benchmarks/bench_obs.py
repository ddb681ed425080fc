"""Observability overhead and the committed obs snapshot (BENCH_obs.json).

PR 6 threads :mod:`repro.obs` through the analysis -> partition ->
campaign stack under the rule that recording is observe-only and the
off-path costs one branch.  This benchmark runs the same fig4 slice
(implicit deadlines, m=4, generation included) under all three recorders
and records in ``BENCH_obs.json`` at the repo root (also a CI artifact):

* **parity** — the non-negotiable invariant that every recorder mode
  produces identical shard outcomes (the differential test suite asserts
  the same over cache bytes; here it rides the perf measurement);
* **overhead** — wall cost of ``metrics`` and ``trace`` relative to the
  ``off`` (null-recorder) run, plus the null run's absolute throughput
  (the null recorder is budgeted at < 3%; the tripwires below stay
  looser so noisy CI runners don't flake);
* **the snapshot itself** — the artifact doubles as the documented
  example of the ``repro-obs-snapshot/1`` schema: it IS the ``to_json``
  export of the traced run, with a ``bench`` block appended, and the
  matching Chrome-trace dump lands in ``benchmarks/results/``.

Scale knob: ``REPRO_SAMPLES`` (default 10).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro import obs
from repro.experiments.acceptance import SweepConfig
from repro.experiments.figures import FIG45_ALGORITHMS
from repro.runner.pool import run_sweep

from conftest import RESULTS_DIR, bench_samples, emit

REPO_ROOT = Path(__file__).resolve().parent.parent

RECORDERS = (
    ("off", obs.NullRecorder),
    ("metrics", obs.MetricsRecorder),
    ("trace", obs.TraceRecorder),
)


def _run_slice(samples, recorder_factory, repeats=2):
    """Best-of-N fig4 slice under ``recorder_factory``; goes through the
    serial shard runner so the span/latency instrumentation is on the
    measured path, exactly as a ``repro figure`` run drives it."""
    config = SweepConfig(
        label="fig4", m=4, deadline_type="implicit",
        samples_per_bucket=samples,
    )
    previous = obs.set_recorder(recorder_factory(obs.REGISTRY))
    try:
        best = None
        outcomes = None
        for _ in range(repeats):
            obs.clear()
            diagnostics = []
            start = time.process_time()
            run_sweep(
                config, list(FIG45_ALGORITHMS), jobs=1,
                diagnostics=diagnostics,
            )
            elapsed = time.process_time() - start
            if best is None or elapsed < best:
                best = elapsed
            outcomes = diagnostics
        # captured before the recorder is swapped back: the traced run's
        # registry + spans become the committed snapshot example
        snapshot = obs.to_json(obs.REGISTRY, obs.spans(), mode=obs.mode())
        spans = obs.spans()
        return best, outcomes, snapshot, spans
    finally:
        obs.set_recorder(previous)
        obs.clear()


def test_bench_obs_report():
    """Recorder parity + overhead; emits the BENCH_obs.json artifact."""
    samples = bench_samples()
    times = {}
    outcomes = {}
    snapshot = None
    spans = []
    for mode, factory in RECORDERS:
        times[mode], outcomes[mode], snap, recorded = _run_slice(
            samples, factory
        )
        if mode == "trace":
            snapshot, spans = snap, recorded

    # The non-negotiable invariant: recording never changes results.
    assert outcomes["off"] == outcomes["metrics"], "metrics recorder diverged"
    assert outcomes["off"] == outcomes["trace"], "trace recorder diverged"

    n_sets = sum(o.samples for o in outcomes["off"])
    overhead = {
        mode: times[mode] / times["off"] - 1.0
        for mode in ("metrics", "trace")
    }
    snapshot["bench"] = {
        "workload": "fig4 slice, implicit m=4, batched pipeline",
        "samples_per_bucket": samples,
        "tasksets": n_sets,
        "algorithms": list(FIG45_ALGORITHMS),
        "host": {"python": platform.python_version()},
        "seconds": {mode: round(times[mode], 4) for mode, _ in RECORDERS},
        "overhead_vs_off": {
            mode: round(value, 4) for mode, value in overhead.items()
        },
        "tasksets_per_sec_off": round(n_sets / times["off"], 1),
    }

    lines = [
        f"fig4 m=4 {n_sets} sets, batched pipeline:",
        *(
            f"  {mode:<8} {times[mode]:6.3f}s"
            + (
                f"  ({overhead[mode]:+.1%} vs off)"
                if mode in overhead
                else f"  ({n_sets / times['off']:.1f} tasksets/sec)"
            )
            for mode, _ in RECORDERS
        ),
        f"  trace collected {snapshot['spans']['count']} spans, "
        f"{len(snapshot['histograms'])} histograms",
    ]
    emit("BENCH_obs", "\n".join(lines))

    payload = json.dumps(snapshot, indent=2) + "\n"
    (REPO_ROOT / "BENCH_obs.json").write_text(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_obs.json").write_text(payload)
    obs.write_chrome_trace(spans, RESULTS_DIR / "repro-trace.json")

    # Sanity of the committed snapshot example.
    assert snapshot["mode"] == "trace"
    assert snapshot["spans"]["count"] > 0
    assert "runner.shard-seconds" in snapshot["histograms"]

    # Regression tripwires, far looser than the locally measured cost
    # (sub-1% for metrics, a few % for trace) so CI noise doesn't flake:
    # the recorders must stay cheap relative to the analysis they watch.
    assert overhead["metrics"] < 0.15, (
        f"metrics recorder overhead {overhead['metrics']:+.1%}"
    )
    assert overhead["trace"] < 0.25, (
        f"trace recorder overhead {overhead['trace']:+.1%}"
    )
