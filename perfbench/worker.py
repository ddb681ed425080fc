"""One benchmark worker process: ``worker.py <spawn time> <mode> <json args>``.

The parent (``run.py``) starts each worker with every ``REPRO_*`` variable
removed and ``PYTHONPATH`` set to the checkout's ``src``; the worker prints
one JSON object on its last stdout line.  ``<spawn time>`` is the parent's
``time.monotonic()`` just before the spawn (a system-wide clock on Linux),
so ``setup_s`` covers interpreter start, ``import repro``, algorithm and
test construction and sweep validation.

Modes:

* ``setup`` — set up, report ``setup_s`` and the environment, and (with
  ``fingerprint``) hash the first inputs of this seed and of the next one;
* ``measure`` — set up, then run the workload's sweeps (anchor, then seed
  sample; see ``workloads.py``) repeatedly, each with a fresh ``fs`` shard
  store, until ``seconds`` have passed;
* ``trace`` — the sweeps traced, untraced and traced again in the same
  process, with layer spans, counts and a Chrome-trace file;
* ``oracle`` — the reference acceptance counts of some buckets of one
  part through the ``scalar`` pipeline.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

from workloads import M, PARTS, WORKLOADS, parts

T_SPAWN = float(sys.argv[1])

import repro  # noqa: E402 - setup time includes the import
import repro.runner as runner  # noqa: E402
from repro.experiments.algorithms import get_algorithm  # noqa: E402
from repro.experiments.figures import figure_plan  # noqa: E402


def sweep_configs(workload, seed: int):
    """``({part: SweepConfig}, algorithm names)`` of one run: the figure's
    m=4 sweep plan under each part's label and size."""
    configs = {}
    for part, (label, samples) in parts(workload, seed).items():
        (job,) = figure_plan(workload.figure, samples=samples, m_values=(M,))
        configs[part] = replace(job.config, label=label)
    return configs, list(job.algorithms)


def environment() -> dict:
    """What the run actually used, and whether it is the user default."""
    import numpy

    from repro import obs
    from repro.analysis import dbf, verdict_cache
    from repro.util import env

    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "repro": str(Path(repro.__file__).resolve().parent),
        "inherited_repro_vars": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "obs_mode": obs.mode(),
    }
    problems = list(info["inherited_repro_vars"])
    if hasattr(dbf, "demand_kernel") and hasattr(env, "demand_kernel_from_env"):
        info["kernel"] = dbf.demand_kernel()
        default = env.demand_kernel_from_env()
        if info["kernel"] != default:
            problems.append(f"kernel {info['kernel']} is not the default {default}")
    if hasattr(verdict_cache, "enabled"):
        info["verdict_cache"] = "on" if verdict_cache.enabled() else "off"
        if verdict_cache.enabled():
            problems.append("verdict cache is on")
    if info["obs_mode"] != "off":
        problems.append(f"obs mode is {info['obs_mode']}")
    info["problems"] = problems
    return info


def fingerprint(config, buckets: int = 2) -> str:
    """Hash of the task parameters (not names or ids) of the first
    ``buckets`` replicates of every bucket."""
    import hashlib

    from repro.experiments.acceptance import AcceptanceSweep

    sweep = AcceptanceSweep(replace(config, samples_per_bucket=buckets))
    digest = hashlib.sha256()
    for bucket, points in sweep.bucket_points().items():
        for taskset in sweep.tasksets_for_bucket(bucket, points):
            params = [
                (t.period, t.wcet_lo, t.wcet_hi, t.deadline, t.is_high) for t in taskset
            ]
            digest.update(repr(params).encode())
    return digest.hexdigest()


def one_sweep(config, names, store_factory, scratch: Path) -> dict:
    """Run the sweep once with a fresh store; seconds and accepted counts."""
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        store = store_factory(root)
        start = time.perf_counter()
        try:
            result = runner.run_sweep(config, names, cache=store)
        except Exception:  # a failing sweep is counted, not fatal
            return {
                "seconds": time.perf_counter() - start,
                "error": traceback.format_exc(limit=4),
            }
        seconds = time.perf_counter() - start
    counts = {
        repr(bucket): {
            "samples": samples,
            "accepted": {
                name: round(result.ratios[name][i] * samples) for name in names
            },
        }
        for i, (bucket, samples) in enumerate(zip(result.buckets, result.samples))
    }
    return {"seconds": seconds, "counts": counts}


def fs_store(root):
    return runner.create_store("fs", root)


def one_run(configs, names, store_factory, scratch: Path) -> dict:
    """Every part's sweep once: ``{part: sweep}``."""
    return {
        part: one_sweep(configs[part], names, store_factory, scratch) for part in PARTS
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(configs, names, args, scratch) -> dict:
    """Repetitions until ``seconds`` have passed; also the peak RSS when the
    first anchor sweep ends, before any seed-sample set ran."""
    runs = []
    anchor_rss = None
    start = time.perf_counter()
    while True:
        run = {}
        for part in PARTS:
            run[part] = one_sweep(configs[part], names, fs_store, scratch)
            if anchor_rss is None:
                anchor_rss = peak_rss_mb()
        runs.append(run)
        if time.perf_counter() - start >= args["seconds"]:
            break
    return {"runs": runs, "anchor_peak_rss_mb": anchor_rss}


def trace(configs, names, args, scratch) -> dict:
    """Traced, untraced, traced: the per-layer metrics come from the first
    traced repetition, the overhead from the two later, warm ones."""
    from layers import EXACT_COUNTERS, install, layer_metrics
    from spans import END, NAME, PARENT, RUN, START, Tracer

    from repro import obs
    from repro.analysis import dbf
    from repro.obs.export import chrome_trace
    from repro.obs.recorder import MetricsRecorder, NullRecorder, SpanRecord

    tracer = Tracer()
    store_class = install(tracer)
    kernel_counters = getattr(dbf, "kernel_counters", dict)

    def traced_run(index: int) -> dict:
        obs.set_recorder(MetricsRecorder(obs.REGISTRY))
        obs.clear()
        before = kernel_counters()
        first = tracer.begin(f"{args['workload']}/seed={args['seed']}/pass={index}")
        run = tracer.wrap("run", one_run)(configs, names, store_class, scratch)
        kernel = {key: value - before.get(key, 0) for key, value in kernel_counters().items()}
        histogram = obs.REGISTRY.histogram("descent.iterations")
        descent = obs.REGISTRY.counters("descent.")
        metrics, rows = layer_metrics(
            tracer,
            first,
            kernel,
            {
                "count": histogram.count if histogram else 0,
                "iterations": int(histogram.total) if histogram else 0,
                "accepted": descent.get("descent.accepted", 0),
                "rejected": descent.get("descent.rejected", 0),
            },
        )
        return {
            "run": run,
            "metrics": metrics,
            "rows": rows,
            "counters": {name: metrics[name][0] for name in EXACT_COUNTERS},
            "first_span": first,
        }

    passes = [traced_run(1)]
    tracer.enabled = False
    obs.set_recorder(NullRecorder(obs.REGISTRY))
    untraced = one_run(configs, names, store_class, scratch)
    tracer.enabled = True
    passes.append(traced_run(2))
    first, end = passes[0]["first_span"], passes[1]["first_span"]
    records = [
        SpanRecord(
            name=record[NAME],
            start=record[START],
            duration=record[END] - record[START],
            pid=os.getpid(),
            tid=0,
            depth=0,
            parent=tracer.spans[record[PARENT]][NAME] if record[PARENT] >= 0 else None,
            attrs={"span_id": index, "parent_id": record[PARENT], "run_id": record[RUN]},
        )
        for index, record in enumerate(tracer.spans[first:end], start=first)
    ]
    trace_path = Path(args["trace_out"])
    trace_path.write_text(json.dumps(chrome_trace(records)), encoding="utf-8")
    for entry in passes:
        del entry["first_span"]
    return {"untraced": untraced, "passes": passes, "trace_file": str(trace_path)}


def oracle(configs, names, args, scratch) -> dict:
    from repro.experiments.acceptance import AcceptanceSweep

    sweep = AcceptanceSweep(configs[args["part"]], pipeline="scalar")
    algorithms = [get_algorithm(name) for name in names]
    points = sweep.bucket_points()
    counts = {}
    for key in args["buckets"]:
        bucket = float(key)
        outcome = sweep.run_bucket(bucket, points[bucket], algorithms)
        if outcome.samples:
            counts[key] = {
                "samples": outcome.samples,
                "accepted": {
                    name: round(outcome.ratios[name] * outcome.samples)
                    for name in names
                },
            }
    return {"counts": counts}


def main() -> None:
    mode = sys.argv[2]
    args = json.loads(sys.argv[3])
    workload = WORKLOADS[args["workload"]]
    configs, names = sweep_configs(workload, args["seed"])
    for name in names:
        get_algorithm(name)
    units = {part: runner.decompose_sweep(configs[part], names) for part in PARTS}
    setup_s = time.monotonic() - T_SPAWN
    scratch = Path(args["scratch"])
    out = {"setup_s": setup_s}
    if mode != "oracle":
        out["env"] = environment()
    if mode == "setup":
        out["buckets"] = [repr(unit.bucket) for unit in units["seed"]]
        if args.get("fingerprint"):
            out["fingerprint"] = fingerprint(configs["seed"])
            others, _ = sweep_configs(workload, args["seed"] + 1)
            out["fingerprint_next_seed"] = fingerprint(others["seed"])
    elif mode == "measure":
        out.update(measure(configs, names, args, scratch))
    elif mode == "trace":
        out.update(trace(configs, names, args, scratch))
    elif mode == "oracle":
        out.update(oracle(configs, names, args, scratch))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["algorithms"] = names
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
