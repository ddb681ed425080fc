"""The repository benchmark: fig3/fig4/fig5 sweep throughput, verdict-checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-implicit --seed 1 --seconds 15 --trace 0

Each workload (see ``workloads.py``) runs one paper figure's m=4 sweeps
through ``repro.runner.run_sweep`` with a fresh ``fs`` shard store, as
``repro campaign`` does, on the defaults a user gets.  All program work
happens in worker processes (``worker.py``) started with every ``REPRO_*``
variable removed; they report the kernel, verdict-cache and obs settings
they actually ran with, and a non-default one fails the run.

``--trace 0`` prints the end-to-end metrics: ``tasksets_per_s`` (median
over the repetitions run until ``--seconds`` pass), ``setup_s`` (median over
several process starts) and ``peak_rss_mb``, the measuring process's peak
resident memory when its first paper-slice sweep ends (the seed sample's
peak depends on the one heaviest set it drew, so it is printed but not
reported), plus the error rate ``failed / attempted``.

``--trace 1`` runs the sweeps traced, untraced and traced again in one
process and prints the per-layer metrics of the first traced repetition, a
table of layer self times and shares, and the tracing overhead (untraced
against the second traced repetition, both after a first one warmed the
process); it writes the spans as a Chrome trace under ``perfbench/out/``.

Every sweep's per-bucket, per-algorithm acceptance counts are checked
against a reference: committed in ``reference/<workload>.json`` for the
paper slice and for the seed-0 sample (rebuild with ``--write-reference``),
otherwise built by the ``scalar`` pipeline before the checks and kept under
``perfbench/out/``.  A bucket whose counts differ, or a sweep that raises,
counts all its task-set evaluations (sets times algorithms) as failed.
Traced runs also require the work counters to repeat exactly across the
two traced repetitions and across earlier traced runs of the same seed and
code.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's sources
(``src/repro``) the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from stats import iqr_share, median
from workloads import PARTS, WORKLOADS, parts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Whole-run budget: every worker must finish within it.
RUN_BUDGET_S = 170.0

#: Setup-only process starts per untraced run (plus the measuring one).
SETUP_PROBES = 4


class BenchmarkError(RuntimeError):
    """A worker could not run: no result is printed."""


def code_hash() -> str:
    """Content hash of the program and the benchmark sources."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            if OUT in path.parents:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode: str, args: dict) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "worker.py")]
    command += [repr(time.monotonic()), mode, json.dumps(args)]
    return subprocess.Popen(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def collect(processes: list[subprocess.Popen], deadline: float) -> list[dict]:
    """Wait for every worker; kill them all on failure or timeout."""
    results = []
    try:
        for process in processes:
            timeout = max(deadline - time.monotonic(), 1.0)
            stdout, stderr = process.communicate(timeout=timeout)
            lines = stdout.strip().splitlines()
            if process.returncode != 0 or not lines:
                raise BenchmarkError(
                    f"worker exited with {process.returncode}:\n{stderr[-2000:]}"
                )
            results.append(json.loads(lines[-1]))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the run budget: {exc}") from None
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
    return results


def run_worker(mode: str, args: dict, deadline: float) -> dict:
    return collect([spawn(mode, args)], deadline)[0]


def build_reference(args: dict, part: str, buckets: list[str], deadline: float) -> dict:
    """One part's acceptance counts from the scalar pipeline, computed by
    two worker processes; costly (high-utilization) buckets are dealt out
    in snake order so both get a similar share."""
    shares = [[], []]
    for index, bucket in enumerate(sorted(buckets, key=float, reverse=True)):
        shares[(0, 1, 1, 0)[index % 4]].append(bucket)
    processes = [
        spawn("oracle", {**args, "part": part, "buckets": share}) for share in shares
    ]
    counts = {}
    for result in collect(processes, deadline):
        counts.update(result["counts"])
    return counts


def describe(workload, seed: int, part: str, names: list[str], counts: dict) -> dict:
    label, samples = parts(workload, seed)[part]
    return {"label": label, "samples_per_bucket": samples, "algorithms": names, "counts": counts}


def reference_for(workload, seed: int, args: dict, buckets, names, deadline):
    """``({part: counts}, source)`` the sweeps are checked against."""
    path = HERE / "reference" / f"{workload.name}.json"
    if not path.is_file():
        raise BenchmarkError(f"missing committed reference {path}")
    committed = json.loads(path.read_text(encoding="utf-8"))
    for part in PARTS:
        expected = describe(workload, 0, part, names, committed[part]["counts"])
        if committed[part] != expected:
            raise BenchmarkError(f"{path} does not describe the {part} sweep")
    if seed == 0:
        return {part: committed[part]["counts"] for part in PARTS}, "committed"
    cached = OUT / "reference" / f"{workload.name}-seed{seed}-{args['code']}.json"
    if cached.is_file():
        sample, source = json.loads(cached.read_text(encoding="utf-8"))["counts"], "cached"
    else:
        sample, source = build_reference(args, "seed", buckets, deadline), "scalar oracle"
        cached.parent.mkdir(parents=True, exist_ok=True)
        cached.write_text(
            json.dumps(describe(workload, seed, "seed", names, sample), indent=1),
            encoding="utf-8",
        )
    return {"anchor": committed["anchor"]["counts"], "seed": sample}, f"committed + {source}"


def write_reference(workload, args: dict, buckets, names, deadline) -> Path:
    """Rebuild the committed seed-0 reference with the scalar pipeline."""
    path = HERE / "reference" / f"{workload.name}.json"
    document = {
        part: describe(workload, 0, part, names, build_reference(args, part, buckets, deadline))
        for part in PARTS
    }
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return path


def check_sweep(sweep: dict, reference: dict, n_algorithms: int) -> tuple[int, int]:
    """``(attempted, failed)`` task-set evaluations of one sweep."""
    attempted = sum(entry["samples"] for entry in reference.values()) * n_algorithms
    if "error" in sweep:
        return attempted, attempted
    failed = 0
    for bucket in set(reference) | set(sweep["counts"]):
        expected = reference.get(bucket)
        got = sweep["counts"].get(bucket)
        if expected != got:
            failed += (expected or got)["samples"] * n_algorithms
    return attempted, min(failed, attempted)


def format_rows(header: list[str], rows: list[list]) -> str:
    cells = [header] + [
        [f"{cell:.4g}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in cells
    )


def seconds_of(run: dict) -> float:
    return sum(run[part]["seconds"] for part in PARTS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="rebuild the committed seed-0 reference from the scalar pipeline",
    )
    options = parser.parse_args(argv)
    if options.seed < 0 or options.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[options.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    seed = 0 if options.write_reference else options.seed
    args = {
        "workload": workload.name,
        "seed": seed,
        "scratch": str(OUT / "tmp"),
        "code": code_hash(),
    }

    # The first start compiles bytecode, so it is not a setup sample.
    first = run_worker("setup", {**args, "fingerprint": True}, deadline)
    names, buckets, env = first["algorithms"], first["buckets"], first["env"]
    if options.write_reference:
        print(f"wrote {write_reference(workload, args, buckets, names, deadline)}")
        return 0

    problems = [f"environment: {problem}" for problem in env["problems"]]
    if first["fingerprint"] == first["fingerprint_next_seed"]:
        problems.append(f"seeds {seed} and {seed + 1} give the same inputs")

    if options.trace:
        args["trace_out"] = str(OUT / f"{workload.name}.trace.json")
        traced = run_worker("trace", args, deadline)
        runs = [traced["untraced"]] + [entry["run"] for entry in traced["passes"]]
    else:
        setups = [run_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        measured = run_worker("measure", {**args, "seconds": options.seconds}, deadline)
        setups.append(measured["setup_s"])
        runs = measured["runs"]

    reference, source = reference_for(workload, seed, args, buckets, names, deadline)
    attempted = failed = 0
    for run in runs:
        for part in PARTS:
            tried, lost = check_sweep(run[part], reference[part], len(names))
            attempted += tried
            failed += lost
            if "error" in run[part]:
                problems.append(f"{part} sweep raised:\n{run[part]['error']}")
    if failed:
        problems.append(f"{failed} of {attempted} evaluations differ from the reference")
    sets = sum(entry["samples"] for part in PARTS for entry in reference[part].values())

    labels = ", ".join(f"{label} x{samples}" for label, samples in parts(workload, seed).values())
    lines = [
        f"workload {workload.name}  seed {seed}  sweeps {labels} per bucket"
        f"  = {sets} sets  algorithms {','.join(names)}",
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}"
        f"  kernel {env.get('kernel', '-')}  verdict cache {env.get('verdict_cache', '-')}"
        f"  obs {env['obs_mode']}  reference {source}",
    ]
    if options.trace:
        metrics = traced_metrics(traced, sets, args, problems, lines)
        record = {"untraced": traced["untraced"], "passes": traced["passes"]}
    else:
        throughputs = [sets / seconds_of(run) for run in runs]
        metrics = {
            "tasksets_per_s": (median(throughputs), "1/s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (measured["anchor_peak_rss_mb"], "MB"),
        }
        rows = [[name, value, unit] for name, (value, unit) in metrics.items()]
        rows.append(["peak_rss_mb incl. seed sample", measured["peak_rss_mb"], "MB"])
        rows.append(["error_rate", failed / attempted, "ratio"])
        lines.append(format_rows(["metric", "value", "unit"], rows))
        lines.append(
            f"repetitions {len(runs)}: {' '.join(f'{value:.2f}' for value in throughputs)}"
            f" sets/s (IQR {iqr_share(throughputs):.1%} of the median); setup samples"
            f" {len(setups)}: {' '.join(f'{value:.3f}' for value in setups)} s"
            f" (IQR {iqr_share(setups):.1%})"
        )
        record = {"runs": runs, "setup_samples": setups}
    lines.extend(f"PROBLEM: {problem}" for problem in problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = OUT / f"{workload.name}-seed{seed}-trace{options.trace}.json"
    detail.write_text(
        json.dumps({"env": env, "problems": problems, "result": result, **record}, indent=1),
        encoding="utf-8",
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def traced_metrics(traced: dict, sets: int, args: dict, problems: list, lines: list) -> dict:
    """Per-layer metrics of the first traced repetition, plus the overhead;
    records a problem for every work counter that did not repeat."""
    first, second = traced["passes"]
    for name, value in first["counters"].items():
        if second["counters"][name] != value:
            problems.append(
                f"work counter {name} drifted between traced repetitions: "
                f"{value} then {second['counters'][name]}"
            )
    path = OUT / "counters" / f"{args['workload']}-seed{args['seed']}-{args['code']}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        for name, value in first["counters"].items():
            if earlier.get(name) != value:
                problems.append(
                    f"work counter {name} differs from an earlier run of this seed: "
                    f"{earlier.get(name)} then {value}"
                )
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first["counters"], indent=1), encoding="utf-8")

    metrics = {name: tuple(entry) for name, entry in first["metrics"].items()}
    untraced = sets / seconds_of(traced["untraced"])
    traced_rate = sets / seconds_of(second["run"])
    metrics["trace.tasksets_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_tasksets_per_s"] = (untraced, "1/s")
    metrics["trace.overhead"] = (untraced / traced_rate - 1.0, "ratio")
    lines.append(
        format_rows(["layer", "self s", "self share", "incl s", "incl share"], first["rows"])
    )
    lines.append(
        f"traced {traced_rate:.2f} sets/s, untraced {untraced:.2f} sets/s: "
        f"tracing overhead {metrics['trace.overhead'][0]:+.1%}"
    )
    lines.append(f"work counters {json.dumps(first['counters'])}")
    lines.append(f"chrome trace {traced['trace_file']}")
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
