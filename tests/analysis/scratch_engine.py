"""From-scratch reference for the memo-backed :class:`DemandEngine`.

The production engine answers the descent's dbf queries from a shared memo
and inlines the single-task shrink arithmetic in closed form.  This module
keeps the reference those layers are pinned to:

* the single-task shrink functions (:func:`_hi_gain`,
  :func:`_min_shrink_for_gain`, :func:`_shrink_to_clear` and the
  bisection :func:`_shrink_to_clear_bisect`) that
  ``vdtuning._rank_candidates`` and ``DemandEngine.hi_gain`` inline;
* :class:`ScratchEngine`, whose HI checks, HI gain and LO shrink search
  evaluate every query on a fresh :class:`DemandScenario` — the
  memo-free evaluation the differential suites compare the production
  engine against.
"""

from __future__ import annotations

from repro.analysis.dbf import HorizonExceeded, hi_mode_dbf
from repro.analysis.vdtuning import DemandEngine, _invert_shrink
from repro.model import MCTask, TaskSet


def _hi_gain(task: MCTask, vd_now: int, shrink: int, length: int) -> int:
    """HI-demand reduction at ``length`` when ``Dv`` shrinks by ``shrink``."""
    return hi_mode_dbf(task, vd_now, length) - hi_mode_dbf(
        task, vd_now - shrink, length
    )


def _min_shrink_for_gain(task: MCTask, vd_now: int, length: int) -> int | None:
    """Smallest shrink with positive HI-demand gain at ``length``; None if
    no shrink up to the structural limit (``Dv >= C_L``) helps."""
    max_shrink = vd_now - task.wcet_lo
    if max_shrink <= 0:
        return None
    residual = task.deadline - vd_now
    x = length - residual
    if x < 0:
        return None  # shrinking moves the carry-over even further out
    r0 = x % task.period
    # Inside the carry-over ramp every unit shrink gains one unit; above the
    # ramp the first ``r0 - C_L + 1`` units gain nothing.
    first = 1 if r0 < task.wcet_lo else (r0 - task.wcet_lo + 1)
    if first > max_shrink:
        return None
    return first


def _shrink_to_clear(
    task: MCTask, vd_now: int, length: int, deficit: int
) -> int:
    """Smallest shrink whose HI gain at ``length`` reaches
    ``min(deficit, the task's maximum achievable gain)``.

    When the task alone cannot clear the deficit, this still returns the
    *minimal* shrink realizing its best contribution — over-shrinking would
    needlessly inflate LO-mode demand and strand later adjustments.
    Relies on HI-demand being non-increasing in the shrink amount; the
    minimal shrink is recovered in closed form by inverting the task's
    single-task HI staircase (``vdtuning._invert_shrink``), which the
    differential suite checks against the historical bisection
    (:func:`_shrink_to_clear_bisect`) point for point.
    """
    max_shrink = vd_now - task.wcet_lo
    target = min(deficit, _hi_gain(task, vd_now, max_shrink, length))
    if target <= 0:
        return max_shrink
    return _invert_shrink(task, vd_now, length, target)


def _shrink_to_clear_bisect(
    task: MCTask, vd_now: int, length: int, deficit: int
) -> int:
    """The historical bisection — the differential oracle for
    :func:`_shrink_to_clear` (identical results, O(log D) gain probes)."""
    max_shrink = vd_now - task.wcet_lo
    target = min(deficit, _hi_gain(task, vd_now, max_shrink, length))
    if target <= 0:
        return max_shrink
    lo, hi = 1, max_shrink
    while lo < hi:
        mid = (lo + hi) // 2
        if _hi_gain(task, vd_now, mid, length) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class ScratchEngine(DemandEngine):
    """A :class:`DemandEngine` whose descent queries skip the memo.

    ``hi_check``, ``hi_feasible``, ``hi_gain`` and
    ``max_lo_feasible_shrink`` are evaluated from scratch: each HI query
    builds a fresh :class:`DemandScenario` and scans it in full, the HI
    gain is the :func:`~repro.analysis.dbf.hi_mode_dbf` difference, and
    the LO shrink is a desired-bounded bisection over a fresh
    :class:`~repro.analysis.dbf.LoShrinkProbe`.  The LO full-deadline check
    and the uniform-scaling bookkeeping still pass through a private memo,
    which only deduplicates pure queries.
    """

    def __init__(self, taskset: TaskSet, horizon_cap: int):
        super().__init__(taskset, horizon_cap, memo={})

    def hi_check(
        self, vd: dict[int, int], refine: bool, not_before: int = 0
    ) -> tuple[int | None, int | None]:
        scenario = self.scenario(vd)
        violation = scenario.hi_violation(refine=refine)
        if violation is None:
            return (None, None)
        return (violation, scenario.hi_demand_at(violation, refine=refine))

    def hi_feasible(self, vd: dict[int, int], refine: bool) -> bool:
        return self.hi_violation(vd, refine) is None

    def hi_gain(self, task: MCTask, vd_now: int, shrink: int, length: int) -> int:
        return _hi_gain(task, vd_now, shrink, length)

    def max_lo_feasible_shrink(
        self,
        vd: dict[int, int],
        task: MCTask,
        desired: int,
    ) -> int:
        base = vd[task.task_id]
        # From-scratch behavior: desired-bounded binary search per call.
        try:
            probe = self.scenario(vd).lo_shrink_probe(task)
        except HorizonExceeded:
            return 0
        if probe.feasible(base - desired):
            return desired
        lo, hi = 0, desired - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if probe.feasible(base - mid):
                lo = mid
            else:
                hi = mid - 1
        return lo
