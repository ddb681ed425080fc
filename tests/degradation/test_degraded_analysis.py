"""Analysis-layer tests for degraded LC service.

Covers the extended EDF-VD utilization condition, the dbf residual-demand
term, the incremental-context differential contract under degraded service
models, and the residual-aware UDP strategies.
"""

from __future__ import annotations

import pytest

from repro.analysis import ECDFTest, EDFVDTest, EYTest, get_test
from repro.analysis.dbf import DemandScenario, hi_mode_dbf, lc_hi_mode_dbf
from repro.analysis.edf_vd import edfvd_admits
from repro.core import (
    UnsupportedTasksetError,
    cu_udp,
    cu_udp_res,
    get_strategy,
    partition,
)
from repro.core.allocator import ProcessorState
from repro.degradation import ElasticPeriod, ImpreciseBudget
from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.model import TaskSet
from repro.util.rng import derive_rng

from tests.conftest import hc_task, lc_task
from tests.core.from_scratch import FromScratch

SERVICE_SPECS = ("imprecise:0.25", "imprecise:0.5", "imprecise:1.0",
                 "elastic:1.5", "elastic:2.0")


def generated(deadline_type: str, count: int = 5, m: int = 2):
    generator = MCTaskSetGenerator(
        GeneratorConfig(m=m, deadline_type=deadline_type)
    )
    rng = derive_rng("degraded-analysis", deadline_type, m)
    targets = [(0.4, 0.2, 0.3), (0.6, 0.3, 0.3), (0.7, 0.35, 0.4)]
    out = []
    while len(out) < count:
        u_hh, u_lh, u_ll = targets[len(out) % len(targets)]
        taskset = generator.generate(rng, u_hh, u_lh, u_ll)
        if taskset is not None:
            out.append(taskset)
    return out


class TestExtendedEDFVD:
    def test_residual_zero_matches_classic(self):
        cases = [(0.3, 0.2, 0.5), (0.5, 0.3, 0.6), (0.2, 0.4, 0.9),
                 (0.45, 0.3, 0.75)]
        for a, b, c in cases:
            assert edfvd_admits(a, b, c) == edfvd_admits(a, b, c, 0.0)

    def test_monotone_in_residual(self):
        # a + c > 1 so the x-scaled condition is exercised.
        a, b, c = 0.5, 0.3, 0.6
        verdicts = [edfvd_admits(a, b, c, r) for r in (0.0, 0.1, 0.3, 0.5)]
        assert verdicts[0]  # x*a + c = 0.9 <= 1
        # once False, stays False as residual grows
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later

    def test_full_residual_requires_full_reserve(self):
        # U_res == U_LL means LC keeps full service: the HI condition
        # becomes x*a + (1-x)a + c = a + c <= 1.
        a, b, c = 0.3, 0.3, 0.8
        assert not edfvd_admits(a, b, c, a)
        assert edfvd_admits(0.15, 0.3, 0.8, 0.15)

    def test_invalid_residual_rejected(self):
        with pytest.raises(ValueError, match="U_res"):
            edfvd_admits(0.3, 0.2, 0.5, 0.4)
        with pytest.raises(ValueError, match="U_res"):
            edfvd_admits(0.3, 0.2, 0.5, -0.1)

    def test_taskset_verdicts_monotone_in_rho(self):
        for taskset in generated("implicit"):
            test = EDFVDTest()
            previous = None
            for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
                ok = test.analyze(
                    taskset.with_service_model(ImpreciseBudget(rho))
                ).schedulable
                if previous is not None:
                    assert previous or not ok  # more service never helps
                previous = ok

    def test_rho_zero_matches_drop_verdict(self):
        test = EDFVDTest()
        for taskset in generated("implicit"):
            drop = test.analyze(taskset)
            zero = test.analyze(
                taskset.with_service_model(ImpreciseBudget(0.0))
            )
            assert drop.schedulable == zero.schedulable
            assert drop.scaling_factor == zero.scaling_factor


class TestResidualDemand:
    def test_lc_hi_mode_dbf_matches_scenario(self):
        taskset = TaskSet(
            [hc_task(100, 20, 40), lc_task(40, 12), lc_task(60, 18)],
            service_model="imprecise:0.5",
        )
        scenario = DemandScenario(taskset)
        service = taskset.service_model
        hc_vd = {taskset[0].task_id: taskset[0].deadline}
        for length in range(0, 400, 7):
            expected = sum(
                lc_hi_mode_dbf(
                    service.degraded_budget(t),
                    service.degraded_period(t),
                    t.wcet_lo,
                    length,
                )
                for t in taskset.low_tasks
            )
            expected += sum(
                # vd untouched: HC contribution via the reference scalar
                hi_mode_dbf(t, hc_vd[t.task_id], length)
                for t in taskset.high_tasks
            )
            assert scenario.hi_demand_at(length) == expected, length

    def test_carry_over_clamped_at_budget(self):
        # At l = 0 the carry-over reduction fully discharges the degraded
        # budget: an LC job due at the switch was already served in LO.
        assert lc_hi_mode_dbf(5, 50, 10, 0) == 0
        # Deep in the window, whole jobs contribute the degraded budget.
        assert lc_hi_mode_dbf(5, 50, 10, 120) == 3 * 5 - 0
        # Partial discharge between the two.
        assert lc_hi_mode_dbf(5, 50, 10, 7) == 5 - min(5, 10 - 7)

    def test_no_hc_tasks_vacuously_pass(self):
        # Without a local HC task the core never switches, so degraded LC
        # demand never materializes.
        taskset = TaskSet(
            [lc_task(10, 9), lc_task(15, 1)], service_model="imprecise:1.0"
        )
        assert DemandScenario(taskset).hi_violation() is None
        assert ECDFTest().analyze(taskset).schedulable

    def test_degradation_helps_demand_tests(self):
        # A set rejected at full LC service but accepted when degraded.
        taskset = TaskSet([hc_task(100, 20, 50), hc_task(50, 8, 16),
                           lc_task(40, 12), lc_task(80, 16)])
        test = ECDFTest()
        assert test.analyze(
            taskset.with_service_model("imprecise:1.0")
        ).schedulable is False
        assert test.analyze(
            taskset.with_service_model("imprecise:0.2")
        ).schedulable is True
        assert test.analyze(taskset).schedulable is True


class TestDegradedContextsDifferential:
    """The PR-2 bit-identical-contexts contract must hold under every
    service model, not just drop-at-switch."""

    @pytest.mark.parametrize("spec", SERVICE_SPECS)
    @pytest.mark.parametrize("test_name", ("edf-vd", "ey", "ecdf"))
    def test_context_matches_from_scratch(self, test_name, spec):
        deadline_type = "implicit" if test_name == "edf-vd" else "constrained"
        test = get_test(test_name)
        from repro.degradation import parse_service_model

        service = parse_service_model(spec)
        probes = 0
        for base in generated(deadline_type, count=3):
            taskset = base.with_service_model(service)
            context = test.make_context(service)
            committed: list = []
            for task in taskset:
                candidate = TaskSet(committed + [task], service_model=service)
                scratch = test.analyze(candidate)
                incremental = context.analyze(task)
                assert incremental.schedulable == scratch.schedulable
                assert incremental.virtual_deadlines == scratch.virtual_deadlines
                assert incremental.scaling_factor == scratch.scaling_factor
                probes += 1
                if scratch.schedulable:
                    context.commit(task)
                    committed.append(task)
            assert context.taskset() == TaskSet(
                committed, service_model=service
            )
        assert probes > 0

    def test_snapshot_rollback_restores_residual(self):
        service = ImpreciseBudget(0.5)
        context = EDFVDTest().make_context(service)
        context.commit(hc_task(100, 10, 20))
        token = context.snapshot()
        before = context.analyze(lc_task(50, 5)).schedulable
        context.commit(lc_task(80, 8))
        context.rollback(token)
        assert context.analyze(lc_task(50, 5)).schedulable == before
        assert context._u_res == pytest.approx(0.0)


class TestPartitionUnderDegradedService:
    @pytest.mark.parametrize("spec", ("imprecise:0.5", "elastic:2.0"))
    @pytest.mark.parametrize("test_name", ("edf-vd", "ey", "ecdf"))
    def test_incremental_matches_scratch(self, test_name, spec):
        deadline_type = "implicit" if test_name == "edf-vd" else "constrained"
        for base in generated(deadline_type, count=3):
            taskset = base.with_service_model(spec)
            for strategy in (cu_udp(), cu_udp_res()):
                test = get_test(test_name)
                a = partition(taskset, 2, test, strategy)
                b = partition(taskset, 2, FromScratch(test), strategy)
                assert a.success == b.success
                assert a.assignment == b.assignment
                assert a.cores == b.cores

    def test_amc_rejects_degraded_service(self):
        taskset = generated("constrained", count=1)[0].with_service_model(
            "imprecise:0.5"
        )
        with pytest.raises(UnsupportedTasksetError, match="service model"):
            partition(taskset, 2, get_test("amc-max"), cu_udp())

    def test_core_tasksets_carry_service(self):
        taskset = generated("implicit", count=1)[0].with_service_model(
            "imprecise:0.5"
        )
        result = partition(taskset, 4, EDFVDTest(), cu_udp())
        for core in result.cores:
            assert core.service_model == ImpreciseBudget(0.5)


class TestResidualStrategy:
    def test_registered(self):
        assert get_strategy("cu-udp-res").name == "cu-udp-res"
        assert get_strategy("ca-udp-res").name == "ca-udp-res"

    def test_metric_counts_residual(self):
        state = ProcessorState(0, service=ImpreciseBudget(0.5))
        state.add(hc_task(100, 20, 40))
        state.add(lc_task(50, 10))
        assert state.utilization_difference == pytest.approx(0.4 - 0.2)
        assert state.residual_difference == pytest.approx(0.4 + 5 / 50 - 0.2)

    def test_metric_equals_udp_under_drop(self):
        state = ProcessorState(0)
        state.add(hc_task(100, 20, 40))
        state.add(lc_task(50, 10))
        assert state.residual_difference == state.utilization_difference

    def test_res_strategy_identical_under_full_drop(self):
        for base in generated("implicit", count=3):
            plain = partition(base, 2, EDFVDTest(), cu_udp())
            res = partition(base, 2, EDFVDTest(), cu_udp_res())
            assert plain.assignment == res.assignment
            assert plain.success == res.success
