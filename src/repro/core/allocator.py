"""Generic partitioned-allocation engine.

A :class:`PartitioningStrategy` is three pluggable pieces:

* ``order`` — maps the input task set to the allocation sequence (this is
  where criticality-aware vs criticality-unaware and all sorting rules
  live);
* ``hc_fit`` / ``lc_fit`` — given the current processor states, return the
  order in which processors are *tried* for an HC / LC task (first-fit,
  worst-fit on a metric, ...).

The engine walks the allocation sequence; for each task it tries processors
in fit order and assigns the task to the first processor whose uniprocessor
MC schedulability test still passes with the task added.  If no processor
admits the task, partitioning fails (matching Algorithm 1 of the paper).
Every strategy expressed this way "considers all processors for allocation
of a task before declaring failure", which is the premise of the 8/3
speed-up inheritance result for the EDF-VD test (Baruah et al. 2014,
Theorem 9).

Tests that provide an :class:`~repro.analysis.context.AnalysisContext` get
one per core, so each admission probe reuses the core's accumulated
analysis state instead of rebuilding a :class:`TaskSet` and re-deriving
everything from scratch.  Tests whose ``make_context`` returns None (AMC
with OPA priorities) are probed from scratch: the candidate core is rebuilt
and the test run on it.  Contexts are bit-identical to the from-scratch
probes by construction (and by the differential test suite, which hides a
test's contexts to force the from-scratch loop).  :class:`ProcessorState`
stays the shared accumulator either way — fit rules read their utilization
sums from it, never from the contexts.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.model import MCTask, TaskSet
from repro import obs as _obs
from repro.analysis import verdict_cache as _vcache
from repro.analysis.interface import SchedulabilityTest

__all__ = [
    "ProcessorState",
    "FitRule",
    "OrderRule",
    "PartitioningStrategy",
    "PartitionResult",
    "UnsupportedTasksetError",
    "partition",
]


class UnsupportedTasksetError(ValueError):
    """A (strategy, test) pairing was asked to partition a task set that
    violates the test's model assumptions (``test.supports`` is False).

    Raised up front by :func:`partition`, before any probing, so an
    incompatible pairing (e.g. EDF-VD's implicit-deadline-only utilization
    test against a constrained-deadline sweep) fails with a clear, typed
    error instead of an arbitrary ``ValueError`` from deep inside the
    analysis mid-campaign.  Subclasses ``ValueError`` for backward
    compatibility with callers that caught the old behavior.
    """

    def __init__(self, strategy_name: str, test_name: str, reason: str):
        self.strategy_name = strategy_name
        self.test_name = test_name
        self.reason = reason
        super().__init__(
            f"strategy {strategy_name!r} with test {test_name!r} cannot "
            f"partition this task set: {reason}"
        )


class ProcessorState:
    """Mutable per-core accumulator used during allocation.

    Tracks the assigned tasks and the utilization sums the fit rules key on
    (``U_LL``, ``U_LH``, ``U_HH`` of the core, plus — when a degraded LC
    service model is in force — the residual LC HI-mode utilization
    ``U_res``).  ``service`` is the task set's LC service model (None =
    drop-at-switch); it propagates into the core task sets so per-core
    analyses see it.
    """

    __slots__ = ("index", "tasks", "u_ll", "u_lh", "u_hh", "u_res",
                 "service", "_degraded", "_taskset")

    def __init__(self, index: int, service=None):
        self.index = index
        self.service = service
        self._degraded = service is not None and not service.is_full_drop
        self.tasks: list[MCTask] = []
        self.u_ll = 0.0
        self.u_lh = 0.0
        self.u_hh = 0.0
        self.u_res = 0.0
        self._taskset: TaskSet | None = TaskSet((), service_model=service)

    def add(self, task: MCTask) -> None:
        """Assign ``task`` to this core."""
        self.tasks.append(task)
        if task.is_high:
            self.u_lh += task.utilization_lo
            self.u_hh += task.utilization_hi
        else:
            self.u_ll += task.utilization_lo
            if self._degraded:
                self.u_res += self.service.residual_utilization(task)
        self._taskset = None

    @property
    def utilization_difference(self) -> float:
        """``U_HH(core) - U_LH(core)`` — the UDP balancing metric."""
        return self.u_hh - self.u_lh

    @property
    def residual_difference(self) -> float:
        """``U_HH(core) + U_res(core) - U_LH(core)`` — the degradation-aware
        UDP balancing metric: the extra utilization the core absorbs at a
        mode switch when LC tasks keep residual service.  Equals
        :attr:`utilization_difference` under drop semantics (``U_res`` is
        identically 0)."""
        return self.u_hh + self.u_res - self.u_lh

    @property
    def utilization_lo(self) -> float:
        """Total LO-mode utilization on this core."""
        return self.u_ll + self.u_lh

    def taskset(self) -> TaskSet:
        """The core's current tasks as an immutable :class:`TaskSet`."""
        if self._taskset is None:
            self._taskset = TaskSet(self.tasks, service_model=self.service)
        return self._taskset


#: Returns the processor *indices* to try, most preferred first.
FitRule = Callable[[Sequence[ProcessorState]], list[int]]

#: Maps the input task set to the allocation order.
OrderRule = Callable[[TaskSet], list[MCTask]]


@dataclass(frozen=True)
class PartitioningStrategy:
    """A named (order, HC fit, LC fit) triple; see module docstring.

    The optional ``*_spec`` fields are declarative twins of the callable
    rules, consumed by the columnar allocation replay of
    :func:`repro.core.batch.partition_batch`: an order spec is
    ``("ca",)``, ``("ca-nosort",)``, ``("cu",)`` or
    ``("heavy-lc-first", threshold)``; a fit spec is ``("first",)``,
    ``("worst", metric)`` or ``("best", metric)`` with ``metric`` one of
    ``"difference"``, ``"res-difference"``, ``"u-hh"`` or ``"u-lo"``
    (matching the :class:`ProcessorState` properties the callable reads).
    A spec must describe the callable exactly — the differential tests
    compare the replayed walk against the real rules; strategies without
    specs simply opt out of the replay.
    """

    name: str
    order: OrderRule
    hc_fit: FitRule
    lc_fit: FitRule
    description: str = ""
    order_spec: tuple | None = None
    hc_fit_spec: tuple | None = None
    lc_fit_spec: tuple | None = None

    def fit_for(self, task: MCTask) -> FitRule:
        """The fit rule that applies to ``task``'s criticality."""
        return self.hc_fit if task.is_high else self.lc_fit

    @property
    def replayable(self) -> bool:
        """True when every rule carries a spec for the columnar replay."""
        return (
            self.order_spec is not None
            and self.hc_fit_spec is not None
            and self.lc_fit_spec is not None
        )


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a partitioning attempt."""

    success: bool
    strategy_name: str
    test_name: str
    m: int
    cores: tuple[TaskSet, ...]
    assignment: dict[int, int] = field(default_factory=dict)
    failed_task: MCTask | None = None

    def __bool__(self) -> bool:
        return self.success

    def core_of(self, task: MCTask) -> int:
        """Core index ``task`` was assigned to (KeyError when unassigned)."""
        return self.assignment[task.task_id]

    def describe(self) -> str:
        """Human-readable multi-line summary (used by the examples).

        Under a degraded LC service model each core line additionally
        reports ``U_res`` (the residual LC HI-mode utilization) and
        ``rdiff`` (``U_HH + U_res - U_LH``) — the quantity the residual-
        aware strategies (``ca-udp-res``/``cu-udp-res``) actually balance —
        so the printout matches what ``res_udp_fit`` sorted cores by.
        """
        lines = [
            f"{self.strategy_name} + {self.test_name} on m={self.m}: "
            + ("SUCCESS" if self.success else "FAILED")
        ]
        for idx, core in enumerate(self.cores):
            util = core.utilization
            names = ", ".join(t.name for t in core) or "-"
            line = (
                f"  core {idx}: [{names}]  U_LL={util.u_ll:.3f} "
                f"U_LH={util.u_lh:.3f} U_HH={util.u_hh:.3f} "
                f"diff={util.difference:.3f}"
            )
            service = core.service_model
            if service is not None and not service.is_full_drop:
                u_res = core.residual_utilization
                rdiff = util.u_hh + u_res - util.u_lh
                line += f" U_res={u_res:.3f} rdiff={rdiff:.3f}"
            lines.append(line)
        if self.failed_task is not None:
            lines.append(f"  could not place: {self.failed_task}")
        return "\n".join(lines)


def partition(
    taskset: TaskSet,
    m: int,
    test: SchedulabilityTest,
    strategy: PartitioningStrategy,
) -> PartitionResult:
    """Statically assign ``taskset`` to ``m`` cores; see module docstring.

    The schedulability ``test`` is evaluated on the candidate core's tasks
    *plus* the new task before every assignment, exactly as in Algorithm 1
    of the paper (lines 5 and 16).  When the test provides an analysis
    context, probes run against per-core
    :class:`~repro.analysis.context.AnalysisContext` objects; otherwise each
    probe rebuilds the candidate task set from scratch.  Both loops produce
    the identical :class:`PartitionResult`.

    Raises :class:`UnsupportedTasksetError` when ``test.supports(taskset)``
    is False (the task set violates the test's model assumptions), and
    ``ValueError`` when ``m`` is not positive.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if len(taskset) and not test.supports(taskset):
        raise UnsupportedTasksetError(
            strategy.name,
            test.name,
            "the task set violates the test's model assumptions "
            "(see SchedulabilityTest.supports, e.g. EDF-VD requires "
            "implicit deadlines)",
        )
    service = taskset.service_model
    if len(taskset) and not test.supports_service_model(service):
        raise UnsupportedTasksetError(
            strategy.name,
            test.name,
            f"the test does not analyze LC tasks under the "
            f"{service.spec()!r} service model (see "
            "SchedulabilityTest.supports_service_model; e.g. the AMC "
            "analyses assume drop-at-switch)",
        )
    # Opt-in canonical verdict cache: repeated (taskset, m, test,
    # strategy, service) probes — across sweep buckets, strategies and
    # campaign resumes — replay the recorded placement instead of paying
    # the probes again.  Consulted after the support checks so unsupported
    # pairings keep raising their typed errors.
    cached = _vcache.lookup_partition(taskset, m, test, strategy)
    if cached is not None:
        return cached
    processors = [ProcessorState(i, service=service) for i in range(m)]
    contexts = [test.make_context(service) for _ in range(m)]
    if any(context is None for context in contexts):
        contexts = None
    assignment: dict[int, int] = {}
    fit_attempts = 0
    commits = 0

    for task in strategy.order(taskset):
        fit = strategy.fit_for(task)
        placed = False
        for proc_index in fit(processors):
            fit_attempts += 1
            if contexts is not None:
                admitted = contexts[proc_index].probe(task)
            else:
                candidate = processors[proc_index].taskset().with_task(task)
                admitted = test.is_schedulable(candidate)
            if admitted:
                processors[proc_index].add(task)
                if contexts is not None:
                    contexts[proc_index].commit(task)
                assignment[task.task_id] = proc_index
                placed = True
                commits += 1
                break
        if not placed:
            _record_partition_metrics(strategy.name, fit_attempts, commits, False)
            result = PartitionResult(
                success=False,
                strategy_name=strategy.name,
                test_name=test.name,
                m=m,
                cores=tuple(p.taskset() for p in processors),
                assignment=assignment,
                failed_task=task,
            )
            _vcache.store_partition(taskset, m, test, strategy, result)
            return result
    _record_partition_metrics(strategy.name, fit_attempts, commits, True)
    result = PartitionResult(
        success=True,
        strategy_name=strategy.name,
        test_name=test.name,
        m=m,
        cores=tuple(p.taskset() for p in processors),
        assignment=assignment,
    )
    _vcache.store_partition(taskset, m, test, strategy, result)
    return result


def _record_partition_metrics(
    strategy_name: str, fit_attempts: int, commits: int, success: bool
) -> None:
    """Fold one :func:`partition` run's totals into the obs registry.

    Local integers are accumulated unconditionally (two additions per
    probe) and only published here, so the per-probe hot loop stays free
    of registry lookups when recording is off.
    """
    if not _obs.active():
        return
    _obs.REGISTRY.add_counters(
        {
            f"alloc.{strategy_name}.fit-attempts": fit_attempts,
            f"alloc.{strategy_name}.commits": commits,
            f"alloc.{strategy_name}.placed" if success
            else f"alloc.{strategy_name}.failed": 1,
        }
    )
