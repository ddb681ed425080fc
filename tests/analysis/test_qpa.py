"""Differential suite for the demand kernel against the forward oracle.

The QPA backward fixed-point search, the Fisher–Baruah-style upper-bound
screens and the descent warm starts are all *cost* layers: every verdict,
violation point and tuning outcome must equal the forward breakpoint
scan's.  The forward scan is reached through :func:`forward_oracle`, which
makes every screen decline and every QPA search abort — the documented
fallback then hands each exact decision to the forward scan.  These tests
assert the equivalence across random and pinned task sets, service
models, refinement on/off, horizon caps, scenario- and engine-level entry
points, the batch pre-screen and whole figures — on the memo-backed
engine and the from-scratch ``ScratchEngine`` reference alike — plus the
closed-form shrink inversion against the historical bisection, the
descent's inlined shrink arithmetic against its reference functions, the
window-tiling
regression of ``_window_points`` and the verdict neutrality of every
cost constant (scan chunk, screen depth, screen valve, QPA budget,
scalar peek).
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import dbf, vdtuning
from repro.analysis.dbf import (
    DemandScenario,
    HorizonExceeded,
    _ModeTask,
    _first_violation,
    _hi_point_demand,
    _lo_point_demand,
    _next_breakpoint,
    _prev_breakpoint,
    approx_accepts,
    lo_feasible_exact,
    qpa_violation_search,
)
from repro.analysis.vdtuning import (
    DemandEngine,
    _invert_shrink,
    _rank_candidates,
    _window_points,
    run_tuning_stages,
)
from repro.degradation.service import parse_service_model
from repro.model import Criticality, MCTask, TaskSet

from tests.analysis.scratch_engine import (
    ScratchEngine,
    _hi_gain,
    _min_shrink_for_gain,
    _shrink_to_clear,
    _shrink_to_clear_bisect,
)

SERVICES = ("full-drop", "imprecise:0.5", "elastic:1.5")

CHAINS = (
    (("steepest", False),),
    (("ratio", True), ("steepest", True), ("steepest", False)),
)


def _decline(*args, **kwargs) -> bool:
    return False


def _abort(*args, **kwargs) -> tuple:
    return ("abort", None, 0)


@contextlib.contextmanager
def forward_oracle():
    """Decide every exact demand check by the forward breakpoint scan.

    ``approx_accepts`` declines and ``qpa_violation_search`` aborts in
    every ``repro`` module that holds a reference to them, so each
    decision falls through to the forward scan — the path QPA itself
    takes when it exhausts its iteration budget.  (The O(1) density
    accept of the LO shrink search stays on: it is a closed-form bound
    the V* search never contradicts, not a demand scan.)
    """
    replacements = ((approx_accepts, _decline), (qpa_violation_search, _abort))
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                for original, replacement in replacements:
                    if value is original:
                        patch.setattr(module, attr, replacement)
        yield


def run_forward(fn):
    with forward_oracle():
        return fn()


# -- task-set generation -----------------------------------------------------

@st.composite
def mc_taskset(draw, implicit=None):
    """A small random dual-criticality task set (optionally implicit)."""
    n = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for _ in range(n):
        period = draw(st.integers(min_value=4, max_value=60))
        high = draw(st.booleans())
        wcet_lo = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        if implicit is None:
            make_implicit = draw(st.booleans())
        else:
            make_implicit = implicit
        if high:
            wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
            floor = max(wcet_hi, wcet_lo)
        else:
            wcet_hi = wcet_lo
            floor = wcet_lo
        deadline = (
            period
            if make_implicit
            else draw(st.integers(min_value=floor, max_value=period))
        )
        tasks.append(
            MCTask(
                period=period,
                criticality=Criticality.HC if high else Criticality.LC,
                wcet_lo=wcet_lo,
                wcet_hi=wcet_hi,
                deadline=deadline,
            )
        )
    return TaskSet(tasks)


@st.composite
def scenario_inputs(draw):
    """(taskset, virtual deadlines, service spec) for scenario checks."""
    ts = draw(mc_taskset())
    vd = {}
    for task in ts:
        if task.is_high:
            vd[task.task_id] = draw(
                st.integers(min_value=task.wcet_lo, max_value=task.deadline)
            )
    service = draw(
        st.sampled_from(["full-drop", "imprecise:0.5", "elastic:1.5"])
    )
    return ts, vd, service


def attach(ts, service):
    if service == "full-drop":
        return ts
    return TaskSet(list(ts), service_model=parse_service_model(service))


def scenario_checks(ts, vd, cap=100_000):
    """LO and HI (refined and not) earliest violations, HorizonExceeded
    recorded as ``"raise"``."""
    scenario = DemandScenario(ts, vd, horizon_cap=cap)
    try:
        out = [("lo", scenario.lo_violation())]
    except HorizonExceeded:
        out = [("lo", "raise")]
    for refine in (False, True):
        try:
            out.append((refine, scenario.hi_violation(refine=refine)))
        except HorizonExceeded:
            out.append((refine, "raise"))
    return out


def make_engine(ts, cap, memo):
    """The production memo-backed engine, or the from-scratch reference."""
    return DemandEngine(ts, cap, memo={}) if memo else ScratchEngine(ts, cap)


def tuning_outcome(ts, stages, cap=100_000, memo=True):
    """The comparable fields of one run_tuning_stages outcome (``memo``
    False runs the from-scratch :class:`ScratchEngine`)."""
    engine = make_engine(ts, cap, memo)
    outcome = run_tuning_stages(ts, stages, cap, engine=engine)
    return (
        outcome.schedulable,
        outcome.virtual_deadlines,
        outcome.detail,
        outcome.iterations,
    )


# -- kernel primitives -------------------------------------------------------

class TestQPASearch:
    @given(scenario_inputs())
    @settings(max_examples=120, deadline=None)
    def test_qpa_matches_breakpoint_oracle(self, inputs):
        """QPA decides exactly the forward oracle's predicate, and a
        violation witness is the largest violating breakpoint."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        for tasks, ramps, refine in (
            (scenario._lo, False, False),
            (scenario._hi + scenario._hi_lc, True, False),
            (scenario._hi + scenario._hi_lc, True, True),
        ):
            if not tasks:
                continue
            horizon = 200
            n_trigger = len(scenario._hi) if ramps else None
            if ramps:
                demand_at = lambda t: _hi_point_demand(
                    tasks, t, refine, n_trigger
                )
            else:
                demand_at = lambda t: _lo_point_demand(tasks, t)
            status, witness, iterations = qpa_violation_search(
                tasks, horizon, demand_at, ramps=ramps, max_iters=10_000
            )
            points = DemandScenario._breakpoints(tasks, horizon, ramps=ramps)
            violating = [int(p) for p in points if demand_at(int(p)) > int(p)]
            assert status in ("pass", "violation")
            if status == "pass":
                assert not violating
            else:
                assert violating
                assert witness == max(violating)
            assert iterations >= 1

    @given(scenario_inputs(), st.integers(min_value=0, max_value=150))
    @settings(max_examples=80, deadline=None)
    def test_breakpoint_walkers_are_inverse(self, inputs, point):
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        tasks = scenario._lo
        nxt = _next_breakpoint(tasks, point, ramps=False)
        if nxt is not None:
            assert nxt >= point
            # nothing between point and nxt
            assert _prev_breakpoint(tasks, nxt, ramps=False) is None or (
                _prev_breakpoint(tasks, nxt, ramps=False) < point
                or _prev_breakpoint(tasks, nxt, ramps=False) < nxt
            )
            prev = _prev_breakpoint(tasks, nxt + 1, ramps=False)
            assert prev == nxt

    @given(scenario_inputs())
    @settings(max_examples=100, deadline=None)
    def test_upper_bound_screen_is_sound(self, inputs):
        """approx_accepts == True implies the exact scan finds no
        violation (for every k, both modes, refined and not)."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        horizon = 150
        for tasks, hi in ((scenario._lo, False), (scenario._hi + scenario._hi_lc, True)):
            if not tasks:
                continue
            for k in (1, 2, 5):
                if not approx_accepts(tasks, horizon, hi=hi, k=k):
                    continue
                points = DemandScenario._breakpoints(tasks, horizon, ramps=hi)
                if hi:
                    demand = DemandScenario._hi_demand(
                        tasks, points, False, len(scenario._hi)
                    )
                    refined = DemandScenario._hi_demand(
                        tasks, points, True, len(scenario._hi)
                    )
                    assert not (refined > points).any()
                else:
                    demand = DemandScenario._lo_demand(tasks, points)
                assert not (demand > points).any()

    def test_refined_hi_demand_is_monotone(self):
        """The refined demand is non-decreasing (the property QPA's
        exactness rests on): dbf - cut_j is non-decreasing for every j."""
        tasks = [
            _ModeTask(16, 8, 42, 7),
            _ModeTask(9, 3, 20, 4),
            _ModeTask(5, 0, 11, 5),
        ]
        previous = None
        for t in range(0, 300):
            value = _hi_point_demand(tasks, t, True, len(tasks))
            if previous is not None:
                assert value >= previous, f"refined demand dropped at {t}"
            previous = value


# -- scenario- and engine-level differentials --------------------------------

class TestKernelEquivalence:
    @given(scenario_inputs(), st.sampled_from([100_000, 60]))
    @settings(max_examples=100, deadline=None)
    def test_scenario_checks_identical(self, inputs, cap):
        """LO and HI verdicts and earliest-violation points agree with the
        forward oracle, refinement on and off; a small horizon cap drives
        the HorizonExceeded paths too."""
        ts, vd, service = inputs
        tagged = attach(ts, service)
        checks = lambda: scenario_checks(tagged, vd, cap)
        assert run_forward(checks) == checks()

    @given(
        mc_taskset(),
        st.sampled_from(SERVICES),
        st.sampled_from([100_000, 60]),
    )
    # Pinned: a constrained HC pair whose HI horizon overruns the cap.
    @example(
        TaskSet(
            [
                MCTask(
                    period=50,
                    criticality=Criticality.HC,
                    wcet_lo=10,
                    wcet_hi=30,
                    deadline=40,
                ),
                MCTask(
                    period=70,
                    criticality=Criticality.HC,
                    wcet_lo=12,
                    wcet_hi=25,
                    deadline=45,
                ),
            ]
        ),
        "full-drop",
        80,
    )
    @settings(max_examples=60, deadline=None)
    def test_tuning_outcomes_identical(self, ts, service, cap):
        """run_tuning_stages returns the identical TuningOutcome —
        schedulable, deadlines, detail and iteration count — with and
        without the forward oracle, for EY and ECDF chains, on the
        from-scratch reference engine and the memo-backed one alike.  The
        small horizon caps reach the "HI horizon cap exceeded" exits."""
        tagged = attach(ts, service)
        for stages in CHAINS:
            outcomes = []
            for oracle in (True, False):
                for memo in (False, True):
                    run = lambda: tuning_outcome(tagged, stages, cap, memo)
                    outcomes.append(run_forward(run) if oracle else run())
            assert outcomes.count(outcomes[0]) == len(outcomes)

    def test_anchor_dominance_regression(self):
        """Pinned regression: QPA's witness is the largest *breakpoint*
        violation, but a dominated assignment's breakpoints differ — the
        warm-start anchor must bound the largest violating *integer*
        (demand(witness) - 1), or this engine accepts an infeasible
        assignment.  Derived from a real fig5 divergence."""
        task = MCTask(
            period=42,
            criticality=Criticality.HC,
            wcet_lo=7,
            wcet_hi=16,
            deadline=18,
        )
        ts = TaskSet([task])
        engine = DemandEngine(ts, 100_000, memo={})
        full = {task.task_id: task.deadline}
        shrunk = {task.task_id: 10}
        # Prime the anchor via the full-deadline check, then query the
        # dominated assignment whose own breakpoint (t = 8) violates.
        engine.hi_feasible(full, False)
        fast = engine.hi_feasible(shrunk, False)
        scenario = DemandScenario(ts, shrunk)
        assert fast == (scenario.hi_violation(refine=False) is None)
        assert fast is False

    @given(mc_taskset(implicit=False))
    @settings(max_examples=40, deadline=None)
    def test_lo_feasible_exact_matches_scenario(self, ts):
        tasks = [
            _ModeTask(t.wcet_lo, t.deadline, t.period, t.wcet_lo) for t in ts
        ]
        scenario = DemandScenario(ts, {})
        try:
            expected = scenario.lo_violation() is None
        except HorizonExceeded:
            expected = False
        assert lo_feasible_exact(tasks, scenario.horizon_cap) == expected


# -- closed-form shrink inversion --------------------------------------------

@st.composite
def shrink_case(draw):
    period = draw(st.integers(min_value=3, max_value=50))
    wcet_lo = draw(st.integers(min_value=1, max_value=period))
    wcet_hi = draw(st.integers(min_value=wcet_lo, max_value=period))
    deadline = draw(st.integers(min_value=wcet_hi, max_value=period))
    task = MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=deadline,
    )
    vd_now = draw(st.integers(min_value=wcet_lo, max_value=deadline))
    length = draw(st.integers(min_value=0, max_value=400))
    deficit = draw(st.integers(min_value=1, max_value=80))
    return task, vd_now, length, deficit


class TestShrinkInversion:
    @given(shrink_case())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_bisection(self, case):
        task, vd_now, length, deficit = case
        assert _shrink_to_clear(task, vd_now, length, deficit) == (
            _shrink_to_clear_bisect(task, vd_now, length, deficit)
        )

    @given(shrink_case())
    @settings(max_examples=200, deadline=None)
    def test_inversion_is_minimal(self, case):
        task, vd_now, length, deficit = case
        max_shrink = vd_now - task.wcet_lo
        target = min(deficit, _hi_gain(task, vd_now, max_shrink, length))
        if target <= 0:
            return
        shrink = _invert_shrink(task, vd_now, length, target)
        assert 1 <= shrink <= max_shrink
        assert _hi_gain(task, vd_now, shrink, length) >= target
        if shrink > 1:
            assert _hi_gain(task, vd_now, shrink - 1, length) < target


@st.composite
def ranking_case(draw):
    """HC tasks at drawn virtual deadlines, plus one violation point, one
    deficit and a policy — the inputs of one descent ranking."""
    cases = draw(st.lists(shrink_case(), min_size=1, max_size=4))
    tasks = [task for task, _, _, _ in cases]
    vd = {task.task_id: vd_now for task, vd_now, _, _ in cases}
    _, _, violation, deficit = cases[0]
    policy = draw(st.sampled_from(["steepest", "ratio"]))
    return tasks, vd, violation, deficit, policy


class TestInlinedClosedForms:
    """The descent's hot loop inlines the single-task shrink arithmetic;
    these properties pin each inlined form to its reference function."""

    @given(shrink_case(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_engine_hi_gain_matches_reference(self, case, data):
        task, vd_now, length, _ = case
        shrink = data.draw(st.integers(min_value=0, max_value=vd_now - task.wcet_lo))
        engine = DemandEngine(TaskSet([task]), 100_000, memo={})
        assert engine.hi_gain(task, vd_now, shrink, length) == (
            _hi_gain(task, vd_now, shrink, length)
        )

    @given(ranking_case())
    @settings(max_examples=200, deadline=None)
    def test_ranked_desired_matches_reference(self, case):
        tasks, vd, violation, deficit, policy = case
        for _key, task, desired in _rank_candidates(
            tasks, vd, violation, deficit, policy
        ):
            vd_now = vd[task.task_id]
            assert desired == max(
                _min_shrink_for_gain(task, vd_now, violation),
                _shrink_to_clear(task, vd_now, violation, deficit),
            )

    @given(ranking_case())
    @settings(max_examples=200, deadline=None)
    def test_unranked_tasks_cannot_gain(self, case):
        tasks, vd, violation, deficit, policy = case
        ranked = {
            task.task_id
            for _key, task, _desired in _rank_candidates(
                tasks, vd, violation, deficit, policy
            )
        }
        for task in tasks:
            if task.task_id in ranked:
                continue
            vd_now = vd[task.task_id]
            for shrink in range(1, vd_now - task.wcet_lo + 1):
                assert _hi_gain(task, vd_now, shrink, violation) <= 0


# -- window tiling regression (satellite) ------------------------------------

class TestWindowTiling:
    @given(scenario_inputs(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_window_tiles_reproduce_breakpoint_multiset(self, inputs, width):
        """Tiling the axis with _window_points reproduces the exact
        _breakpoints multiset — the property the windowed scan's
        correctness (and the simplified clamps) rests on."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        for tasks, ramps in (
            (scenario._lo, False),
            (scenario._hi + scenario._hi_lc, True),
        ):
            if not tasks:
                continue
            horizon = 120
            tiles = []
            start = 0
            while start <= horizon:
                tiles.append(
                    _window_points(tasks, horizon, start, start + width, ramps)
                )
                start += width
            tiled = np.sort(np.concatenate(tiles))
            reference = DemandScenario._breakpoints(tasks, horizon, ramps)
            assert tiled.tolist() == reference.tolist()


# -- oracle routing / counters ------------------------------------------------

class TestKernelControls:
    TS = TaskSet(
        [
            MCTask(
                period=20,
                criticality=Criticality.HC,
                wcet_lo=2,
                wcet_hi=4,
                deadline=12,
            )
        ]
    )

    def test_forward_oracle_bypasses_screens_and_qpa(self):
        """Under the oracle no screen or QPA pass settles a check, and the
        patches are gone once the block exits."""
        scenario = DemandScenario(self.TS, {self.TS[0].task_id: 6})
        dbf.reset_kernel_counters()
        with forward_oracle():
            assert dbf.approx_accepts is _decline
            oracle = scenario.schedulable(), scenario.schedulable(refine=True)
        counters = dbf.kernel_counters()
        assert counters["approx-accept"] == counters["qpa-accept"] == 0
        assert counters["qpa-runs"] == 0
        assert dbf.approx_accepts is approx_accepts
        fast = scenario.schedulable(), scenario.schedulable(refine=True)
        assert fast == oracle
        settled = dbf.kernel_counters()
        assert settled["approx-accept"] + settled["qpa-accept"] > 0

    def test_counters_accumulate_and_reset(self):
        dbf.reset_kernel_counters()
        DemandScenario(self.TS, {self.TS[0].task_id: 6}).schedulable()
        counters = dbf.kernel_counters()
        assert set(counters) == {
            "qpa-accept",
            "approx-accept",
            "approx-reject",
            "qpa-iterations",
            "qpa-runs",
        }
        assert sum(counters.values()) > 0
        dbf.reset_kernel_counters()
        assert sum(dbf.kernel_counters().values()) == 0


class TestForwardOracle:
    @given(scenario_inputs())
    @settings(max_examples=60, deadline=None)
    def test_first_violation_agrees_with_pointwise_scan(self, inputs):
        """The chunked forward scan (the oracle itself) equals a naive
        full-array evaluation — anchoring the whole differential chain."""
        ts, vd, service = inputs
        scenario = DemandScenario(attach(ts, service), vd)
        tasks = scenario._lo
        horizon = 100
        points = DemandScenario._breakpoints(tasks, horizon, ramps=False)
        found = _first_violation(
            points, lambda chunk: DemandScenario._lo_demand(tasks, chunk)
        )
        demand = DemandScenario._lo_demand(tasks, points)
        mask = demand > points
        expected = int(points[np.argmax(mask)]) if mask.any() else None
        assert found == expected


# -- engine entry points ---------------------------------------------------------

class TestEngineEntryPoints:
    """The DemandEngine queries the descent drives — HI verdicts with and
    without refinement, and the LO shrink bound — agree with the forward
    oracle, on the from-scratch reference engine and the memo-backed one
    alike."""

    @pytest.mark.parametrize("service", SERVICES)
    @given(inputs=scenario_inputs())
    @settings(max_examples=40, deadline=None)
    def test_hi_feasible_matches_oracle(self, service, inputs):
        ts, vd, _ = inputs
        tagged = attach(ts, service)

        def verdicts():
            out = []
            for memo in (False, True):
                engine = make_engine(tagged, 100_000, memo)
                for refine in (False, True, False):
                    try:
                        out.append(engine.hi_feasible(vd, refine))
                    except HorizonExceeded:
                        out.append("raise")
            return out

        assert run_forward(verdicts) == verdicts()

    @pytest.mark.parametrize("service", SERVICES)
    @given(ts=mc_taskset())
    @settings(max_examples=40, deadline=None)
    def test_lo_shrink_matches_oracle(self, service, ts):
        tagged = attach(ts, service)
        vd = {t.task_id: t.deadline for t in tagged if t.is_high}

        def shrinks():
            out = []
            for memo in (False, True):
                engine = make_engine(tagged, 100_000, memo)
                for task in tagged:
                    if task.is_high:
                        desired = task.deadline - task.wcet_lo
                        out.append(
                            engine.max_lo_feasible_shrink(vd, task, desired)
                        )
            return out

        assert run_forward(shrinks) == shrinks()

    def test_memo_is_required(self):
        """There is one engine: constructing it without a memo fails."""
        ts = TaskSet([_hc(20, 2, 4, 12)])
        with pytest.raises(TypeError):
            DemandEngine(ts, 100_000)


# -- pinned differential cases ------------------------------------------------

def _hc(period, wcet_lo, wcet_hi, deadline=None):
    return MCTask(
        period=period,
        criticality=Criticality.HC,
        wcet_lo=wcet_lo,
        wcet_hi=wcet_hi,
        deadline=period if deadline is None else deadline,
    )


def _lc(period, wcet, deadline=None):
    return MCTask(
        period=period,
        criticality=Criticality.LC,
        wcet_lo=wcet,
        wcet_hi=wcet,
        deadline=period if deadline is None else deadline,
    )


#: Deterministic task sets the hypothesis draws may or may not reach:
#: the anchor-dominance single task, the horizon-cap pair, an implicit
#: HC/LC mix, an LC-heavy constrained set, a tight HC triple and an
#: HI-mode overload (U_HI > 1).
PINNED = {
    "anchor-single": lambda: [_hc(42, 7, 16, 18)],
    "horizon-pair": lambda: [_hc(50, 10, 30, 40), _hc(70, 12, 25, 45)],
    "implicit-mix": lambda: [_hc(100, 20, 40), _hc(50, 10, 20), _lc(100, 30)],
    "lc-heavy": lambda: [_hc(60, 6, 18, 30), _lc(40, 10, 25), _lc(30, 6, 20)],
    "hc-triple": lambda: [_hc(20, 3, 6, 12), _hc(30, 4, 9, 20), _hc(45, 5, 12, 30)],
    "hi-overload": lambda: [_hc(10, 3, 8), _hc(12, 3, 7, 10)],
}


class TestPinnedDifferentials:
    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_scenario_checks(self, case, service):
        """Full and halved virtual deadlines, uncapped and under a small
        horizon cap: every check equals the forward oracle's."""
        ts = attach(TaskSet(PINNED[case]()), service)
        for cap in (100_000, 60):
            for shrink in (1, 2):
                vd = {
                    t.task_id: max(t.wcet_lo, t.deadline // shrink)
                    for t in ts
                    if t.is_high
                }
                checks = lambda: scenario_checks(ts, vd, cap)
                assert run_forward(checks) == checks(), (case, cap, shrink)

    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_tuning_outcomes(self, case, service):
        ts = attach(TaskSet(PINNED[case]()), service)
        for stages in CHAINS:
            for cap in (100_000, 80):
                for memo in (False, True):
                    run = lambda: tuning_outcome(ts, stages, cap, memo)
                    assert run_forward(run) == run(), (case, stages, cap, memo)


# -- batch pre-screen ---------------------------------------------------------

class TestBatchParity:
    """partition_batch settles demand-test rows through DemandPreScreen's
    point screen and QPA rejects before falling back to the per-set path;
    its accepted column must be the forward oracle's."""

    @pytest.mark.parametrize(
        "test_name,deadline_type,service",
        [
            ("ey", "implicit", None),
            ("ecdf", "implicit", None),
            ("ey", "constrained", None),
            ("ecdf", "constrained", None),
            ("ecdf", "constrained", "imprecise:0.5"),
        ],
    )
    def test_accepted_matches_oracle(self, test_name, deadline_type, service):
        from repro.analysis import get_test
        from repro.core import get_strategy, partition_batch
        from repro.generator import GeneratorConfig, MCTaskSetGenerator
        from repro.model import TaskSetBatch
        from repro.util.rng import derive_rng

        gen = MCTaskSetGenerator(GeneratorConfig(m=2, deadline_type=deadline_type))
        columns = []
        for k in range(12):
            cols = gen.generate_columns(
                derive_rng("qpa-batch", deadline_type, k),
                0.3 + (k % 6) * 0.1,
                0.1 + (k % 3) * 0.1,
                0.2 + (k % 4) * 0.1,
            )
            if cols is not None:
                columns.append(cols)
        assert columns

        def accepted():
            batch = TaskSetBatch(columns, service_model=service)
            outcome = partition_batch(
                batch, 2, get_test(test_name), get_strategy("cu-udp")
            )
            return list(outcome.accepted)

        assert run_forward(accepted) == accepted()


# -- cost constants -----------------------------------------------------------

class TestCostConstants:
    """The scan chunk, the screen depth k, the LO screen valve, the QPA
    iteration budget and the descent's scalar peek are cost policies: any
    positive value (any non-negative one for the valve and the peek)
    decides the identical verdicts and tuning trajectories as the module
    defaults."""

    @staticmethod
    def patched(module, name, value, fn):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, value)
            return fn()

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    @given(inputs=scenario_inputs())
    @settings(max_examples=30, deadline=None)
    def test_scan_chunk(self, chunk, inputs):
        """The forward scan's chunking never moves the earliest violation."""
        ts, vd, service = inputs
        tagged = attach(ts, service)
        checks = lambda: scenario_checks(tagged, vd)
        chunked = self.patched(dbf, "_SCAN_CHUNK", chunk, lambda: run_forward(checks))
        assert chunked == checks()

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    @given(ts=mc_taskset(), service=st.sampled_from(SERVICES))
    @settings(max_examples=25, deadline=None)
    def test_approx_k(self, k, ts, service):
        tagged = attach(ts, service)
        for stages in CHAINS:
            run = lambda: tuning_outcome(tagged, stages)
            assert self.patched(dbf, "_APPROX_K", k, run) == run()

    @pytest.mark.parametrize("valve", [0, 1, 4, 1000])
    @given(ts=mc_taskset(implicit=False), service=st.sampled_from(SERVICES))
    @settings(max_examples=25, deadline=None)
    def test_screen_valve(self, valve, ts, service):
        tagged = attach(ts, service)
        for stages in CHAINS:
            run = lambda: tuning_outcome(tagged, stages)
            assert self.patched(vdtuning, "_SCREEN_VALVE", valve, run) == run()

    @pytest.mark.parametrize("budget", [1, 2, 8])
    @given(inputs=scenario_inputs())
    @settings(max_examples=30, deadline=None)
    def test_qpa_iteration_budget(self, budget, inputs):
        """A QPA search that exhausts its budget hands the decision to the
        forward scan; scenario checks and tuning are unchanged."""
        ts, vd, service = inputs
        tagged = attach(ts, service)

        def run():
            return scenario_checks(tagged, vd), tuning_outcome(tagged, CHAINS[1])

        assert self.patched(dbf, "_QPA_ITER_CAP", budget, run) == run()

    @pytest.mark.parametrize("walk", [0, 1, 5])
    @given(ts=mc_taskset(), service=st.sampled_from(SERVICES))
    @settings(max_examples=25, deadline=None)
    def test_micro_walk(self, walk, ts, service):
        tagged = attach(ts, service)
        for stages in CHAINS:
            run = lambda: tuning_outcome(tagged, stages)
            assert self.patched(vdtuning, "_MICRO_WALK", walk, run) == run()


# -- figure-level differential (slow tier) -----------------------------------

@pytest.mark.slow
class TestFigureVerdictParity:
    """fig3–fig7 at miniature scale: the full figure outputs — acceptance
    ratios, sample counts and WAR tables — must be identical with and
    without the forward oracle.  This is the verdict level the shard store
    and the verdict cache key on."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("fig3", {}),
            ("fig4", {}),
            ("fig5", {}),
            ("fig6a", {"ph_values": (0.3, 0.7)}),
            ("fig6b", {"ph_values": (0.3, 0.7)}),
            ("fig7a", {"deg_values": (0.25, 0.75)}),
            ("fig7b", {"deg_values": (1.5,)}),
        ],
    )
    def test_figures_verdict_identical(self, name, kwargs):
        from repro.experiments import run_figure
        from repro.experiments.export import figure_result_to_dict

        def run():
            return figure_result_to_dict(
                run_figure(name, samples=2, m_values=(2,), **kwargs)
            )

        assert run() == run_forward(run), (
            f"{name}: the demand kernel diverged from the forward oracle"
        )
