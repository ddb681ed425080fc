"""The program's layers as the traced run sees them.

:func:`install` wraps each layer's public entry point (named after its
module) so that every call records a span and the counts the per-layer
metrics need; :func:`layer_metrics` turns one run's spans and counts into
the ``per_layer`` metrics of ``BENCHMARK.json``.

Span nesting in the default pipeline::

    run > runner (run_sweep) > generator (AcceptanceSweep.batch_for_bucket)
                             > ledger (partition_batch) > prefilter (PrefilterBank.apply)
                                                        > allocator (partition) > probe (AnalysisContext.probe)
                                                              > vdtuning (run_tuning_stages) > dbf (qpa_violation_search)
                                                              > amc (amc_max_response)
                             > store (ShardStore.put)

``ledger`` is the self time of ``partition_batch``: the utilization-ledger
replay plus batch bookkeeping, without its prefilter and partition children.
"""

from __future__ import annotations

from spans import END, NAME, RUN, START, Tracer, inclusive_times, patch_function, patch_method, self_times
from stats import percentile, tail_permille

#: Layers with a span, in pipeline order; each gets ``<layer>.self_s`` and
#: ``<layer>.share``.
LAYERS = (
    "runner",
    "generator",
    "prefilter",
    "ledger",
    "allocator",
    "probe",
    "vdtuning",
    "dbf",
    "amc",
    "store",
)

#: Work counters that must repeat exactly across runs of one seed.
EXACT_COUNTERS = (
    "generator.sets",
    "prefilter.settled",
    "ledger.settled",
    "allocator.calls",
    "probe.calls",
    "descent.iterations",
    "dbf.qpa_iterations",
)


def _counting(tracer: Tracer, calls: str, hits: str | None = None):
    """Wrapper factory counting calls (and non-None results) without a span."""

    def make(fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer.enabled:
                return result
            tracer.counts[calls] += 1
            if hits is not None and result is not None:
                tracer.counts[hits] += 1
            return result

        return counted

    return make


def install(tracer: Tracer):
    """Wrap every layer entry point; returns the ``ShardStore`` class whose
    instances record ``store`` spans."""
    from repro.analysis import amc, dbf, vdtuning
    from repro.analysis.context import AnalysisContext
    from repro.analysis.prefilter import PrefilterBank
    from repro.core import allocator, batch
    from repro.experiments.acceptance import AcceptanceSweep
    from repro.generator.mcgen import MCTaskSetGenerator
    from repro.runner import pool, units
    from repro.runner.store import FsStore

    counts = tracer.counts

    def on_batch(args, result):
        counts["generator.sets"] += len(result)

    def on_prefilter(args, result):
        counts["prefilter.sets"] += len(args[1])
        counts["prefilter.settled"] += sum(result.counts.values())

    def on_partition_batch(args, result):
        counts["ledger.replayed"] += sum(
            source in ("ledger", "full") for source in result.settled
        )
        counts["ledger.settled"] += result.settled.count("ledger")

    def on_partition(args, result):
        counts["allocator.calls"] += 1
        counts["allocator.accepted"] += bool(result.success)

    def on_probe(args, result):
        counts["probe.calls"] += 1
        counts["probe.admitted"] += bool(result)

    def on_tuning(args, result):
        counts["vdtuning.calls"] += 1
        counts["vdtuning.accepted"] += bool(result.schedulable)

    def on_amc(args, result):
        counts["amc.calls"] += 1

    patch_method(
        MCTaskSetGenerator,
        "generate_columns",
        _counting(tracer, "generator.calls", "generator.yielded"),
    )
    patch_method(
        AcceptanceSweep,
        "batch_for_bucket",
        lambda fn: tracer.wrap("generator", fn, on_batch),
    )
    patch_method(
        PrefilterBank, "apply", lambda fn: tracer.wrap("prefilter", fn, on_prefilter)
    )
    patch_function(
        batch,
        "partition_batch",
        lambda fn: tracer.wrap("ledger", fn, on_partition_batch),
    )
    patch_function(
        allocator, "partition", lambda fn: tracer.wrap("allocator", fn, on_partition)
    )
    patch_method(
        AnalysisContext, "probe", lambda fn: tracer.wrap("probe", fn, on_probe)
    )
    patch_function(
        vdtuning,
        "run_tuning_stages",
        lambda fn: tracer.wrap("vdtuning", fn, on_tuning),
    )
    patch_function(
        dbf,
        "qpa_violation_search",
        lambda fn: tracer.wrap("dbf", fn),
    )
    patch_function(
        amc, "amc_max_response", lambda fn: tracer.wrap("amc", fn, on_amc)
    )
    patch_function(units, "run_unit", _counting(tracer, "runner.units"))
    patch_function(pool, "run_sweep", lambda fn: tracer.wrap("runner", fn))

    def on_store(args, result):
        counts["store.writes"] += 1
        counts["store.bytes"] += len(args[2].encode("utf-8"))

    class TracedStore(FsStore):
        """The default ``fs`` shard store, timing and sizing every write."""

        put = tracer.wrap("store", FsStore.put, on_store)

    return TracedStore


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    first_span: int,
    kernel: dict[str, float],
    descent: dict[str, float],
) -> tuple[dict[str, tuple[float, str]], list[list]]:
    """Per-layer metrics of the run whose spans start at ``first_span``,
    and the table rows ``[layer, self s, share, inclusive s, inclusive
    share]``.

    ``kernel`` holds the run's ``kernel_counters()`` deltas and ``descent``
    the obs registry's ``descent.*`` totals for the run.
    """
    spans = tracer.spans
    run_id = spans[first_span][RUN]
    own = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    allocator_ms = []
    wall = 0.0
    for index in range(first_span, len(spans)):
        record = spans[index]
        if record[RUN] != run_id:
            continue
        name = record[NAME]
        if name == "run":
            wall += record[END] - record[START]
        elif name in self_s:
            self_s[name] += own[index]
            if name == "allocator":
                allocator_ms.append((record[END] - record[START]) * 1e3)
    c = tracer.counts
    screens = kernel.get("approx-accept", 0) + kernel.get("approx-reject", 0)
    qpa_runs = kernel.get("qpa-runs", 0)
    tail = tail_permille(len(allocator_ms))
    metrics: dict[str, tuple[float, str]] = {
        "run.wall_s": (wall, "s"),
        "generator.sets": (c["generator.sets"], "count"),
        "generator.yield": (_ratio(c["generator.yielded"], c["generator.calls"]), "ratio"),
        "prefilter.settled": (c["prefilter.settled"], "count"),
        "prefilter.settle_ratio": (_ratio(c["prefilter.settled"], c["prefilter.sets"]), "ratio"),
        "ledger.settled": (c["ledger.settled"], "count"),
        "ledger.settle_ratio": (_ratio(c["ledger.settled"], c["ledger.replayed"]), "ratio"),
        "allocator.calls": (c["allocator.calls"], "count"),
        "allocator.accept_ratio": (_ratio(c["allocator.accepted"], c["allocator.calls"]), "ratio"),
        "allocator.ms_p50": (percentile(allocator_ms, 500), "ms"),
        "allocator.ms_p90": (percentile(allocator_ms, 900), "ms"),
        "allocator.ms_tail": (percentile(allocator_ms, tail) if tail else 0.0, "ms"),
        "allocator.tail_pct": (tail / 10 if tail else 0.0, "%"),
        "probe.calls": (c["probe.calls"], "count"),
        "probe.admit_ratio": (_ratio(c["probe.admitted"], c["probe.calls"]), "ratio"),
        "vdtuning.calls": (c["vdtuning.calls"], "count"),
        "vdtuning.accept_ratio": (_ratio(c["vdtuning.accepted"], c["vdtuning.calls"]), "ratio"),
        "descent.count": (descent.get("count", 0), "count"),
        "descent.iterations": (descent.get("iterations", 0), "count"),
        "descent.reject_ratio": (
            _ratio(descent.get("rejected", 0), descent.get("accepted", 0) + descent.get("rejected", 0)),
            "ratio",
        ),
        "dbf.qpa_runs": (qpa_runs, "count"),
        "dbf.qpa_iterations": (kernel.get("qpa-iterations", 0), "count"),
        "dbf.screen_ratio": (_ratio(screens, screens + qpa_runs), "ratio"),
        "amc.calls": (c["amc.calls"], "count"),
        "runner.units": (c["runner.units"], "count"),
        "store.writes": (c["store.writes"], "count"),
        "store.bytes": (c["store.bytes"], "count"),
    }
    for name in LAYERS:
        key = "store.write_s" if name == "store" else f"{name}.self_s"
        metrics[key] = (self_s[name], "s")
        metrics[f"{name}.share"] = (_ratio(self_s[name], wall), "ratio")
    totals = inclusive_times(spans, run_id)
    metrics["vdtuning.incl_share"] = (_ratio(totals.get("vdtuning", 0.0), wall), "ratio")
    rows = [
        [
            name,
            self_s[name],
            _ratio(self_s[name], wall),
            totals.get(name, 0.0),
            _ratio(totals.get(name, 0.0), wall),
        ]
        for name in LAYERS
    ]
    return metrics, rows
