"""Adaptive Mixed-Criticality response-time analyses — AMC-rtb and AMC-max (S8).

Implements the two schedulability tests of Baruah, Burns and Davis,
"Response-time analysis for mixed criticality systems" (RTSS 2011), for
fixed-priority preemptive scheduling where all LC tasks are dropped at the
mode switch:

LO-mode test (all tasks)
    Classic RTA with LO-mode budgets: ``R_i^LO <= D_i``.

AMC-rtb (HC tasks)
    A single recurrence bounding the post-switch response time::

        R_i^HI = C_i^H + sum_{j in hpH(i)} ceil(R_i^HI / T_j) C_j^H
                       + sum_{j in hpL(i)} ceil(R_i^LO / T_j) C_j^L

    LC interference is frozen at the LO-mode response time (no LC job can be
    released after the switch).

AMC-max (HC tasks)
    Maximizes over the mode-switch instant ``s`` inside the busy period::

        R_i(s) = C_i^H + sum_{j in hpL(i)} (floor(s/T_j) + 1) C_j^L
               + sum_{k in hpH(i)} [ M(k,s,R) C_k^H + (ceil(R/T_k) - M(k,s,R)) C_k^L ]

    with ``M(k,s,t) = min(ceil((t - s - (T_k - D_k)) / T_k) + 1, ceil(t/T_k))``
    clamped to ``[0, ceil(t/T_k)]`` — the maximum number of τk jobs that can
    execute at HI budget inside ``[s, t]``.  The LC term only increases at LC
    release instants and the M term is non-increasing in ``s``, so it
    suffices to evaluate ``s = 0`` and ``s = a*T_j < R_i^LO`` for LC tasks j
    (the candidate set used in the original paper).

The paper's pessimism shrinks with the utilization difference of the HC
tasks on the core (the ``C_k^H - C_k^L`` gaps drive the M-term), which is
why the UDP partitioning strategies help AMC as well (Section IV of the
DATE 2017 paper).

Priority assignment is deadline-monotonic by default; Audsley's OPA is
available via ``priority_policy="opa"`` (both tests are OPA-compatible, see
:mod:`repro.analysis.fixed_priority`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.model import MCTask, TaskSet
from repro.util.intmath import ceil_div
from repro.analysis.fixed_priority import (
    audsley_assignment,
    deadline_monotonic_order,
    priority_map,
    response_time_lo,
)
from repro.analysis.interface import (
    AnalysisResult,
    SchedulabilityTest,
    register_test,
)

__all__ = ["AMCrtbTest", "AMCmaxTest", "amc_rtb_response", "amc_max_response"]


def _split_hp(higher_priority: Sequence[MCTask]) -> tuple[list[MCTask], list[MCTask]]:
    hp_high = [t for t in higher_priority if t.is_high]
    hp_low = [t for t in higher_priority if not t.is_high]
    return hp_high, hp_low


def amc_rtb_response(
    task: MCTask, higher_priority: Sequence[MCTask]
) -> int | None:
    """AMC-rtb HI-mode response-time bound for an HC ``task``.

    Returns None when the bound exceeds the deadline (unschedulable) —
    including the case where the LO-mode response time already fails.
    """
    if not task.is_high:
        raise ValueError(f"{task.name}: AMC HI analysis applies to HC tasks only")
    r_lo = response_time_lo(task, higher_priority)
    if r_lo is None:
        return None
    hp_high, hp_low = _split_hp(higher_priority)
    lc_interference = sum(
        ceil_div(r_lo, j.period) * j.wcet_lo for j in hp_low
    )
    response = task.wcet_hi
    while True:
        nxt = (
            task.wcet_hi
            + lc_interference
            + sum(ceil_div(response, k.period) * k.wcet_hi for k in hp_high)
        )
        if nxt > task.deadline:
            return None
        if nxt == response:
            return response
        response = nxt


def _m_jobs(k: MCTask, s: int, t: int) -> int:
    """``M(k, s, t)``: max jobs of τk executing with HI budget in [s, t]."""
    total = ceil_div(t, k.period)
    hi_capable = ceil_div(t - s - (k.period - k.deadline), k.period) + 1
    return max(0, min(hi_capable, total))


def _amc_max_at_switch(
    task: MCTask,
    hp_high: Sequence[MCTask],
    hp_low: Sequence[MCTask],
    s: int,
) -> int | None:
    """Fixed point of the AMC-max recurrence for one switch instant ``s``."""
    lc_interference = sum(
        (s // j.period + 1) * j.wcet_lo for j in hp_low
    )
    response = task.wcet_hi
    while True:
        hc_interference = 0
        for k in hp_high:
            m = _m_jobs(k, s, response)
            releases = ceil_div(response, k.period)
            hc_interference += m * k.wcet_hi + (releases - m) * k.wcet_lo
        nxt = task.wcet_hi + lc_interference + hc_interference
        if nxt > task.deadline:
            return None
        if nxt == response:
            return response
        response = nxt


def amc_max_response(
    task: MCTask, higher_priority: Sequence[MCTask]
) -> int | None:
    """AMC-max HI-mode response-time bound for an HC ``task``.

    Evaluates the recurrence at every candidate switch instant (LC release
    times below the LO-mode response time) and returns the maximum, or None
    when any candidate exceeds the deadline.
    """
    if not task.is_high:
        raise ValueError(f"{task.name}: AMC HI analysis applies to HC tasks only")
    r_lo = response_time_lo(task, higher_priority)
    if r_lo is None:
        return None
    hp_high, hp_low = _split_hp(higher_priority)
    candidates = {0}
    for j in hp_low:
        release = j.period
        while release < r_lo:
            candidates.add(release)
            release += j.period
    worst = 0
    for s in sorted(candidates):
        response = _amc_max_at_switch(task, hp_high, hp_low, s)
        if response is None:
            return None
        worst = max(worst, response)
    return worst


class _AMCBase(SchedulabilityTest):
    """Shared machinery of the two AMC tests."""

    def __init__(self, priority_policy: str = "dm"):
        if priority_policy not in ("dm", "opa"):
            raise ValueError(
                f"priority_policy must be 'dm' or 'opa', got {priority_policy!r}"
            )
        self.priority_policy = priority_policy
        if priority_policy == "opa":
            # The registered name: verdicts differ from the DM variant's.
            self.name = f"{type(self).name}-opa"

    def _hi_response(
        self, task: MCTask, higher_priority: Sequence[MCTask]
    ) -> int | None:
        raise NotImplementedError

    def _feasible_at_level(
        self, task: MCTask, higher_priority: Sequence[MCTask]
    ) -> bool:
        if response_time_lo(task, higher_priority) is None:
            return False
        if task.is_high:
            return self._hi_response(task, higher_priority) is not None
        return True

    def analyze(self, taskset: TaskSet) -> AnalysisResult:
        if not taskset.is_constrained_deadline:
            raise ValueError("AMC analyses require constrained deadlines")
        if self.priority_policy == "opa":
            order = audsley_assignment(taskset, self._feasible_at_level)
            if order is None:
                return AnalysisResult(False, detail="no OPA assignment exists")
            return AnalysisResult(True, priorities=priority_map(order))
        order = deadline_monotonic_order(taskset)
        for level, task in enumerate(order):
            if not self._feasible_at_level(task, order[:level]):
                return AnalysisResult(
                    False,
                    priorities=priority_map(order),
                    detail=f"{task.name} fails at DM level {level}",
                )
        return AnalysisResult(True, priorities=priority_map(order))

    def make_context(self, service=None):
        """Incremental context memoizing per-level RTA verdicts (DM only).

        OPA re-derives the whole priority order per candidate, so it keeps
        the from-scratch path (None disables the incremental route).
        The AMC recurrences assume LC tasks are dropped at the switch, so
        degraded service models are rejected by ``supports_service_model``
        (the interface default) before any context is created.
        """
        if self.priority_policy != "dm":
            return None
        from repro.analysis.context import AMCContext

        return AMCContext(self, service=service)


class AMCrtbTest(_AMCBase):
    """AMC with the release-time-bound (rtb) HI-mode recurrence."""

    name = "amc-rtb"

    def _hi_response(
        self, task: MCTask, higher_priority: Sequence[MCTask]
    ) -> int | None:
        return amc_rtb_response(task, higher_priority)


class AMCmaxTest(_AMCBase):
    """AMC maximizing over mode-switch instants (dominates AMC-rtb)."""

    name = "amc-max"

    def _hi_response(
        self, task: MCTask, higher_priority: Sequence[MCTask]
    ) -> int | None:
        return amc_max_response(task, higher_priority)


register_test("amc-rtb", AMCrtbTest)
register_test("amc-max", AMCmaxTest)
register_test("amc-rtb-opa", lambda: AMCrtbTest("opa"))
register_test("amc-max-opa", lambda: AMCmaxTest("opa"))
