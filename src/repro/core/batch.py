"""Batched partitioning over columnar task-set batches.

:func:`partition_batch` answers the sweep question — does
:func:`repro.core.allocator.partition` succeed? — for every set of a
:class:`~repro.model.batch.TaskSetBatch` at once, settling as much as
possible from the utilization columns alone:

1. the exact prefilter bank (:mod:`repro.analysis.prefilter`) rejects sets
   whose column sums prove partition failure for *any* allocation order;
2. the **utilization-ledger replay** walks the actual allocation loop —
   same task order, same fit order, same probe arithmetic — but answers
   each admission probe through the test's O(1)
   :class:`~repro.analysis.prefilter.ProbeScreen`.  For EDF-VD the screen
   is complete and the whole partition is a pure function of the ledger;
   for EY/ECDF the screen covers the utilization-decided region and the
   replay abandons a set the moment a probe would need dbf work;
3. everything still pending falls through to the per-taskset
   :func:`partition` loop on lazily materialized task sets.

Exactness
---------
The replay maintains one float ledger per core — ``(U_LL, U_LH, U_HH,
U_res)`` — updated by the identical ``+=`` fold the scalar path's
:class:`~repro.core.allocator.ProcessorState` and
:class:`~repro.analysis.context.AnalysisContext` accumulators perform, and
computes fit metrics with the same expressions those objects' properties
evaluate.  Allocation order comes from the strategy's declarative
``order_spec``/``fit_spec`` metadata, whose interpretation reproduces the
callable rules' sort keys exactly (tie-breaks included).  Together with the
screens' bit-exact mirrors of the context pre-screens, a replayed verdict
equals the scalar ``partition(...).success`` — the differential suite in
``tests/core/test_partition_batch.py`` asserts this across strategies,
tests and service models rather than trusting the argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model import TaskSetBatch
from repro import obs as _obs
from repro.analysis.interface import SchedulabilityTest
from repro.analysis.prefilter import (
    PrefilterBank,
    ProbeScreen,
    default_prefilter_bank,
)
from repro.core.allocator import (
    PartitioningStrategy,
    UnsupportedTasksetError,
    partition,
)

__all__ = ["BatchPartitionOutcome", "partition_batch"]


@dataclass
class BatchPartitionOutcome:
    """Per-set verdicts of one batched partitioning run.

    ``accepted[i]`` is exactly ``partition(batch.taskset(i), ...).success``;
    ``settled[i]`` records which mechanism produced it — a prefilter name
    (``"sum-lo"``, ``"sum-hi"``, ``"lone-task"``), ``"ledger"`` for the
    columnar replay, or ``"full"`` for the per-taskset fallback.

    Demand-kernel diagnostics formerly carried here as ``kernel_counts``
    now live in the :mod:`repro.obs` registry (the sweep layer records
    per-algorithm deltas under ``kernel.<algorithm>.*``) — outcome
    equality and cache identity never depended on them.
    """

    accepted: list[bool] = field(default_factory=list)
    settled: list[str] = field(default_factory=list)

    @property
    def accepted_count(self) -> int:
        """Number of sets partitioned successfully."""
        return sum(self.accepted)

    def settled_counts(self) -> dict[str, int]:
        """How many sets each mechanism settled (the per-filter report)."""
        counts: dict[str, int] = {}
        for source in self.settled:
            counts[source] = counts.get(source, 0) + 1
        return counts


def _validate_batch_support(
    batch: TaskSetBatch,
    test: SchedulabilityTest,
    strategy: PartitioningStrategy,
) -> None:
    """The batch-level twin of ``partition``'s up-front support gates.

    Mirrors the per-set checks on the columns: every registered test
    requires constrained deadlines (``D <= T``) and implicit-only tests
    (``supports_deadline_type("constrained")`` is False) require ``D == T``
    — the exact structure :meth:`SchedulabilityTest.supports` inspects.
    Empty sets are exempt, as in the scalar path.
    """
    service = batch.service_model
    if len(batch) and batch.n_tasks and not test.supports_service_model(service):
        raise UnsupportedTasksetError(
            strategy.name,
            test.name,
            f"the test does not analyze LC tasks under the "
            f"{service.spec()!r} service model (see "
            "SchedulabilityTest.supports_service_model)",
        )
    implicit_only = not test.supports_deadline_type("constrained")
    bad = (
        (batch.deadline != batch.period)
        if implicit_only
        else (batch.deadline > batch.period)
    )
    if bad.any():
        raise UnsupportedTasksetError(
            strategy.name,
            test.name,
            "the batch contains task sets that violate the test's model "
            "assumptions (see SchedulabilityTest.supports, e.g. EDF-VD "
            "requires implicit deadlines)",
        )


def _order_indices(
    spec: tuple,
    n: int,
    is_high: list[bool],
    u_own: list[float],
    u_lo: list[float],
    tie: list[int],
) -> list[int]:
    """Local task indices in allocation order — the ``order_spec`` twin.

    Reproduces the sort keys of :mod:`repro.core.strategies` exactly:
    ``(-utilization_at_own_level, task_id)`` with Python's stable sort, so
    the returned permutation equals ``strategy.order(taskset)``.
    """
    indices = range(n)
    kind = spec[0]
    if kind == "ca":
        high = sorted(
            (i for i in indices if is_high[i]), key=lambda i: (-u_own[i], tie[i])
        )
        low = sorted(
            (i for i in indices if not is_high[i]),
            key=lambda i: (-u_own[i], tie[i]),
        )
        return high + low
    if kind == "ca-nosort":
        return [i for i in indices if is_high[i]] + [
            i for i in indices if not is_high[i]
        ]
    if kind == "cu":
        return sorted(indices, key=lambda i: (-u_own[i], tie[i]))
    if kind == "heavy-lc-first":
        threshold = spec[1]
        heavy = sorted(
            (i for i in indices if not is_high[i] and u_lo[i] >= threshold),
            key=lambda i: (-u_own[i], tie[i]),
        )
        light = sorted(
            (i for i in indices if not is_high[i] and u_lo[i] < threshold),
            key=lambda i: (-u_own[i], tie[i]),
        )
        high = sorted(
            (i for i in indices if is_high[i]), key=lambda i: (-u_own[i], tie[i])
        )
        return heavy + high + light
    raise ValueError(f"unknown order spec {spec!r}")


def _fit_indices(
    spec: tuple,
    m: int,
    a: list[float],
    b: list[float],
    c: list[float],
    res: list[float],
) -> list[int] | range:
    """Core indices in try order — the ``fit_spec`` twin.

    The metric expressions transcribe the :class:`ProcessorState`
    properties term by term (``res-difference`` is ``(U_HH + U_res) -
    U_LH``, the property's evaluation order), and the sort keys match
    ``worst_fit_by``/``best_fit_by`` including the index tie-break.
    """
    kind = spec[0]
    if kind == "first":
        return range(m)
    metric_name = spec[1]
    if metric_name == "difference":
        metric = [c[j] - b[j] for j in range(m)]
    elif metric_name == "res-difference":
        metric = [(c[j] + res[j]) - b[j] for j in range(m)]
    elif metric_name == "u-hh":
        metric = list(c)
    elif metric_name == "u-lo":
        metric = [a[j] + b[j] for j in range(m)]
    else:
        raise ValueError(f"unknown fit metric {metric_name!r}")
    if kind == "worst":
        return sorted(range(m), key=lambda j: (metric[j], j))
    if kind == "best":
        return sorted(range(m), key=lambda j: (-metric[j], j))
    raise ValueError(f"unknown fit spec {spec!r}")


def _set_lists(batch: TaskSetBatch, index: int, u_res_column):
    """Per-set plain-Python columns, cached on the batch across algorithms."""
    lists = batch.replay_cache.get(index)
    if lists is None:
        rows = batch.set_slice(index)
        u_lo = batch.u_lo[rows].tolist()
        u_hi = batch.u_hi[rows].tolist()
        is_high = batch.is_high[rows].tolist()
        implicit_task = (batch.deadline[rows] == batch.period[rows]).tolist()
        res_task = (
            u_res_column[rows].tolist() if u_res_column is not None else None
        )
        u_own = [
            u_hi[i] if is_high[i] else u_lo[i] for i in range(len(u_lo))
        ]
        lists = (u_lo, u_hi, is_high, implicit_task, res_task, u_own)
        batch.replay_cache[index] = lists
    return lists


def _row_view(batch: TaskSetBatch, index: int):
    """Per-set :class:`~repro.analysis.prefilter.RowView`, cached."""
    from repro.analysis.prefilter import RowView

    view = batch.replay_cache.get(("rows", index))
    if view is None:
        rows = batch.set_slice(index)
        service = batch.service_model
        view = RowView(
            period=batch.period[rows].tolist(),
            wcet_lo=batch.wcet_lo[rows].tolist(),
            wcet_hi=batch.wcet_hi[rows].tolist(),
            deadline=batch.deadline[rows].tolist(),
            is_high=batch.is_high[rows].tolist(),
            degraded=service is not None and not service.is_full_drop,
        )
        batch.replay_cache[("rows", index)] = view
    return view


def _replay_set(
    batch: TaskSetBatch,
    index: int,
    m: int,
    screen: ProbeScreen,
    strategy: PartitioningStrategy,
    u_res_column,
) -> bool | None:
    """Columnar replay of one set's allocation walk; None = undecidable."""
    u_lo, u_hi, is_high, implicit_task, res_task, u_own = _set_lists(
        batch, index, u_res_column
    )
    n = len(u_lo)
    ties = _tiebreak(batch, index, n)
    order = _order_indices(
        strategy.order_spec, n, is_high, u_own, u_lo, ties
    )
    view = _row_view(batch, index) if screen.uses_rows else None

    a = [0.0] * m
    b = [0.0] * m
    c = [0.0] * m
    res = [0.0] * m
    implicit = [True] * m
    members: list[list[int]] = [[] for _ in range(m)]
    for i in order:
        high = is_high[i]
        spec = strategy.hc_fit_spec if high else strategy.lc_fit_spec
        placed = False
        for j in _fit_indices(spec, m, a, b, c, res):
            ca, cb, cc, cres = a[j], b[j], c[j], res[j]
            if high:
                cb += u_lo[i]
                cc += u_hi[i]
            else:
                ca += u_lo[i]
                if res_task is not None:
                    cres += res_task[i]
            if view is not None:
                verdict = screen.decide_rows(
                    ca,
                    cb,
                    cc,
                    cres,
                    implicit[j] and implicit_task[i],
                    members[j],
                    i,
                    view,
                )
            else:
                verdict = screen.decide(
                    ca, cb, cc, cres, implicit[j] and implicit_task[i]
                )
            if verdict is None:
                return None
            if verdict:
                a[j], b[j], c[j], res[j] = ca, cb, cc, cres
                implicit[j] = implicit[j] and implicit_task[i]
                members[j].append(i)
                placed = True
                break
        if not placed:
            return False
    return True


def _tiebreak(batch: TaskSetBatch, index: int, n: int) -> list[int]:
    """Per-task sort tie-break equal to the task-id order.

    A set already materialized (or built from existing task sets) carries
    real task ids; an unmaterialized generated set will be materialized in
    column order, which assigns strictly increasing ids — so the local row
    index induces the identical tie-break order.
    """
    ts = batch._sets.get(index)
    if ts is not None:
        return [t.task_id for t in ts]
    return list(range(n))


def partition_batch(
    batch: TaskSetBatch,
    m: int,
    test: SchedulabilityTest,
    strategy: PartitioningStrategy,
    *,
    bank: PrefilterBank | None = None,
) -> BatchPartitionOutcome:
    """Partition every set of ``batch``; see module docstring.

    ``accepted[i]`` equals ``partition(batch.taskset(i), m, test,
    strategy).success`` for every set — the settling layers only change
    *how cheaply* the boolean is obtained.  Raises
    :class:`UnsupportedTasksetError` up front when the batch violates the
    test's model assumptions (the batch-level twin of the scalar gates) and
    ``ValueError`` when ``m`` is not positive.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    outcome = BatchPartitionOutcome()
    if len(batch) == 0:
        return outcome
    _validate_batch_support(batch, test, strategy)

    if bank is None:
        bank = default_prefilter_bank()
    report = bank.apply(batch, m, test)

    screen = test.batch_screen()
    replay = screen is not None and strategy.replayable
    service = batch.service_model
    degraded = service is not None and not service.is_full_drop
    u_res_column = batch.u_res if degraded else None

    for i in range(len(batch)):
        source = report.settled[i]
        if source is not None:
            outcome.accepted.append(False)
            outcome.settled.append(source)
            continue
        verdict: bool | None = None
        if replay:
            verdict = _replay_set(batch, i, m, screen, strategy, u_res_column)
        if verdict is not None:
            outcome.accepted.append(verdict)
            outcome.settled.append("ledger")
            continue
        result = partition(batch.taskset(i), m, test, strategy)
        outcome.accepted.append(result.success)
        outcome.settled.append("full")
    if _obs.active():
        # Counters total across runs; the histograms keep the per-run
        # settle distribution (one observation per stage per batch).
        for source, count in outcome.settled_counts().items():
            _obs.REGISTRY.add(f"prefilter.{source}", count)
            _obs.REGISTRY.observe(f"prefilter.{source}.settled", float(count))
    return outcome
