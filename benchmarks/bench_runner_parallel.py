"""Campaign-runner benchmarks: parallel speedup and cache-hit latency.

Measures the execution paths of ``repro.runner`` over the same
fig3-style sweep so their relative cost is tracked release over release:

* serial (the pre-runner baseline path),
* ``jobs=2`` on the auto-selected cluster backend (expect <1x wall time,
  approaching 0.5x for shard-dominated runs),
* a fully warm shard cache (expect near-zero compute, i.e. the cost of
  hashing + JSON loads only).

Scale with ``REPRO_SAMPLES`` as usual; results land in
``benchmarks/results/runner_parallel.txt``.
"""

from __future__ import annotations

import time

from conftest import bench_samples, emit

from repro.experiments.acceptance import SweepConfig
from repro.runner import FsStore, run_sweep
from repro.util.tables import format_table

ALGORITHMS = ("ca-udp-edf-vd", "cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")


def _config() -> SweepConfig:
    return SweepConfig(
        label="bench-runner",
        m=4,
        samples_per_bucket=bench_samples(),
    )


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_runner_speedup_and_cache(once, tmp_path):
    config = _config()

    serial_s, serial = _timed(lambda: run_sweep(config, ALGORITHMS, jobs=1))

    parallel_s, parallel = _timed(
        lambda: run_sweep(config, ALGORITHMS, jobs=2)
    )
    assert parallel == serial  # determinism is part of the contract

    cache = FsStore(tmp_path / "cache")
    warm_s, _ = _timed(lambda: run_sweep(config, ALGORITHMS, cache=cache))
    hit_s, cached = _timed(lambda: run_sweep(config, ALGORITHMS, cache=cache))
    assert cached == serial
    assert cache.hits == cache.stored > 0

    rows = [
        ["serial jobs=1", f"{serial_s:.3f}", "1.00x"],
        ["cluster jobs=2", f"{parallel_s:.3f}", f"{serial_s / parallel_s:.2f}x"],
        ["cold cache", f"{warm_s:.3f}", f"{serial_s / warm_s:.2f}x"],
        ["warm cache", f"{hit_s:.3f}", f"{serial_s / hit_s:.2f}x"],
    ]
    emit(
        "runner_parallel",
        format_table(
            ["path", "seconds", "speedup"],
            rows,
            title=f"runner paths, {config.samples_per_bucket} samples/bucket",
        ),
    )

    # pytest-benchmark records the parallel path as the tracked series
    once(run_sweep, config, ALGORITHMS, jobs=2)
