"""Campaign-fabric throughput: serial vs cluster, and retry cost.

Drives the fig3 campaign slice (implicit deadlines, the paper's headline
sweep, all three processor counts — 30 shards) through both executor
backends, asserts the fabric contract — identical shard outcomes
either way — and records wall-clock shard throughput in
``BENCH_fabric.json`` at the repo root (also uploaded as a CI artifact).
A second pass measures the price of fault tolerance: the same cluster
run with 10% of units SIGKILLing their worker mid-shard (via
:mod:`repro.runner.faults`, at-most-once markers so retries succeed),
reported as an overhead factor over the clean cluster run.

Wall time, not CPU time: the parallel backend spends its budget in
worker subprocesses, and the fault pass *is* latency (kill detection,
respawn, backoff) rather than compute.  Speedups are bounded by the
host's CPU count (recorded in the artifact) — on a one-CPU runner the
cluster row measures pure fabric overhead, which is the regression
signal CI actually needs.

Scale knob: ``REPRO_SAMPLES`` (task sets per UB bucket, default 50 here
— large enough that worker startup amortizes and the parallel backend
shows real speedup).  The worker count is pinned at 4 so numbers stay
comparable across runs.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.experiments.acceptance import SweepConfig
from repro.experiments.figures import FIG3_ALGORITHMS
from repro.runner import ClusterBackend, decompose_sweep, execute_units, unit_key

from conftest import RESULTS_DIR, bench_samples, emit

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Worker count for the parallel backend (pinned for comparability).
JOBS = 4

#: The fig3 processor sweep — one campaign-shaped batch of shards.
M_VALUES = (2, 4, 8)

#: Injected unit-loss rate for the fault-tolerance pass.
LOSS_RATE = 0.1


def fabric_units(samples: int):
    """Every shard of the fig3 campaign slice, across all m values.

    One sweep alone is ~10 shards dominated by its high-UB tail; batching
    the whole m sweep (as ``repro campaign`` does) gives the cluster 30
    shards of varied cost — actual load to balance.
    """
    units = []
    for m in M_VALUES:
        config = SweepConfig(label="fig3", m=m, samples_per_bucket=samples)
        units.extend(decompose_sweep(config, FIG3_ALGORITHMS))
    return units


def doomed_rate(units) -> tuple[float, int]:
    """A ``crash:rate=`` threshold that dooms ~``LOSS_RATE`` of ``units``.

    The rate selector compares each unit's key-hash fraction against the
    threshold; on a small slice a nominal 0.1 can select zero units, so
    the bench derives the threshold from the actual key population —
    deterministic, and honest about how many units it kills.
    """
    fractions = sorted(int(unit_key(u)[:8], 16) / 0xFFFFFFFF for u in units)
    doomed = max(1, round(LOSS_RATE * len(units)))
    return fractions[doomed - 1] + 1e-9, doomed


def cluster_backend() -> ClusterBackend:
    # Tight failure-detection timings so the fault pass measures the
    # machinery, not a production-scale 300s lease.
    return ClusterBackend(JOBS, heartbeat_interval=0.2, lease_timeout=60.0)


def timed_units(units, *, backend, jobs, repeats=2):
    """Best-of-N wall-clock pass of the whole batch through one backend."""
    best = None
    result = None
    for _ in range(repeats):
        instance = cluster_backend() if backend == "cluster" else backend
        start = time.perf_counter()
        current = execute_units(units, jobs=jobs, backend=instance)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, result = elapsed, current
    return best, result


def test_bench_fabric_report(tmp_path, monkeypatch):
    """Backend parity + throughput + retry overhead; emits BENCH_fabric.json."""
    samples = bench_samples(50)
    units = fabric_units(samples)
    shards = len(units)

    monkeypatch.delenv("REPRO_RUNNER_FAULT", raising=False)
    monkeypatch.delenv("REPRO_RUNNER_FAULT_DIR", raising=False)

    t_serial, r_serial = timed_units(units, backend="serial", jobs=1)
    t_cluster, r_cluster = timed_units(units, backend="cluster", jobs=JOBS)
    # The non-negotiable fabric contract: identical results everywhere.
    assert r_cluster == r_serial, "cluster backend diverged from serial"

    # Fault pass: ~10% of units kill their worker once, then succeed.
    rate, doomed = doomed_rate(units)
    monkeypatch.setenv("REPRO_RUNNER_FAULT", f"crash:rate={rate!r}")
    monkeypatch.setenv("REPRO_RUNNER_FAULT_DIR", str(tmp_path / "markers"))
    faulty = cluster_backend()
    start = time.perf_counter()
    r_faulty = execute_units(units, jobs=JOBS, backend=faulty)
    t_faulty = time.perf_counter() - start
    assert r_faulty == r_serial, "fault-recovered run diverged from serial"
    overhead = t_faulty / t_cluster

    backends = {
        "serial": {"jobs": 1, "seconds": round(t_serial, 4)},
        "cluster": {"jobs": JOBS, "seconds": round(t_cluster, 4)},
    }
    for row, seconds in (("serial", t_serial), ("cluster", t_cluster)):
        backends[row]["shards_per_sec"] = round(shards / seconds, 2)
        backends[row]["speedup_vs_serial"] = round(t_serial / seconds, 3)

    report = {
        "figure": "fig3",
        "m_values": list(M_VALUES),
        "samples_per_bucket": samples,
        "shards": shards,
        "algorithms": list(FIG3_ALGORITHMS),
        # cpus matters for reading the speedup: on a single-CPU host the
        # cluster can only measure its overhead, never a gain.
        "host": {
            "python": platform.python_version(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1),
        },
        "backends": backends,
        "fault_tolerance": {
            "loss_rate": LOSS_RATE,
            "doomed_units": doomed,
            "clean_cluster_s": round(t_cluster, 4),
            "faulty_cluster_s": round(t_faulty, 4),
            "overhead_factor": round(overhead, 3),
            "retries": faulty.stats["retries"],
            "lost_workers": faulty.stats["lost_workers"],
            "duplicates": faulty.stats["duplicates"],
        },
    }

    lines = [f"backend   jobs   {shards} shards    shards/s   vs serial"]
    for row in ("serial", "cluster"):
        b = backends[row]
        lines.append(
            f"{row:<9} {b['jobs']:<6} {b['seconds']:>9.3f}s "
            f"{b['shards_per_sec']:>9.1f} {b['speedup_vs_serial']:>9.2f}x"
        )
    lines.append(
        f"cluster +{LOSS_RATE:.0%} worker loss ({doomed} doomed shards): "
        f"{t_faulty:.3f}s ({overhead:.2f}x clean, "
        f"{faulty.stats['retries']} retries, "
        f"{faulty.stats['lost_workers']} workers lost)"
    )

    emit("BENCH_fabric", "\n".join(lines))
    payload = json.dumps(report, indent=2) + "\n"
    (REPO_ROOT / "BENCH_fabric.json").write_text(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fabric.json").write_text(payload)

    # Regression tripwires, deliberately loose for noisy CI runners: the
    # fault pass must actually have exercised recovery, and surviving 10%
    # worker loss must not cost an order of magnitude over a clean run.
    assert faulty.stats["retries"] >= 1, "fault injection never fired"
    assert faulty.stats["lost_workers"] >= 1
    assert overhead < 10.0, f"retry overhead blew up: {overhead:.2f}x"
