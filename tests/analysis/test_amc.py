"""Unit tests for the AMC-rtb / AMC-max analyses."""

import pytest

from repro.analysis import AMCmaxTest, AMCrtbTest, get_test
from repro.analysis.amc import amc_max_response, amc_rtb_response
from repro.core import get_strategy, partition
from repro.model import TaskSet
from repro.util import derive_rng

from tests.conftest import hc_task, lc_task


class TestRtbRecurrence:
    def test_isolated_hc_task(self):
        task = hc_task(100, 10, 30)
        assert amc_rtb_response(task, []) == 30

    def test_hc_interference_at_hi_budget(self):
        hp = hc_task(10, 2, 4, name="hp")
        task = hc_task(50, 5, 10, name="lo")
        # R = 10 + ceil(R/10)*4 -> R = 10+4k with k=ceil(R/10): R=18? try:
        # R0=10 -> 10+4*1=14 -> ceil(14/10)=2 -> 10+8=18 -> ceil(18/10)=2 -> 18.
        assert amc_rtb_response(task, [hp]) == 18

    def test_lc_interference_frozen_at_r_lo(self):
        hp = lc_task(10, 3, name="hp")
        task = hc_task(60, 6, 12, name="t")
        # R_LO: 6 + ceil(R/10)*3 -> 6+3=9 -> 6+3=9 (ceil(9/10)=1) => 9.
        # HI: 12 + ceil(9/10)*3 = 15 (no further LC releases counted).
        assert amc_rtb_response(task, [hp]) == 15

    def test_returns_none_past_deadline(self):
        hp = hc_task(10, 4, 8, name="hp")
        task = hc_task(20, 5, 10, name="t")
        assert amc_rtb_response(task, [hp]) is None

    def test_lc_task_rejected(self):
        with pytest.raises(ValueError, match="HC tasks"):
            amc_rtb_response(lc_task(10, 1), [])


class TestMaxRecurrence:
    def test_no_lc_hp_matches_rtb_shape(self):
        hp = hc_task(10, 2, 4, name="hp")
        task = hc_task(50, 5, 10, name="t")
        rtb = amc_rtb_response(task, [hp])
        mx = amc_max_response(task, [hp])
        assert mx is not None and rtb is not None
        assert mx <= rtb

    def test_dominates_rtb_on_random_sets(self):
        """AMC-max never rejects a task AMC-rtb accepts."""
        from repro.generator import MCTaskSetGenerator

        rng = derive_rng("amc-dominance")
        gen = MCTaskSetGenerator(m=1, n_min=3, n_max=6)
        rtb, mx = AMCrtbTest(), AMCmaxTest()
        informative = 0
        for _ in range(80):
            u_hh = 0.3 + 0.6 * rng.random()
            u_lh = u_hh * rng.random()
            ts = gen.generate(rng, u_hh, u_lh, min(0.9 - u_lh, rng.random()))
            if ts is None:
                continue
            if rtb.is_schedulable(ts):
                informative += 1
                assert mx.is_schedulable(ts), ts.describe()
        assert informative >= 15

    def test_lc_task_rejected(self):
        with pytest.raises(ValueError, match="HC tasks"):
            amc_max_response(lc_task(10, 1), [])


class TestAMCTestClasses:
    def test_accepts_simple_set(self, simple_mixed_taskset):
        for test in (AMCrtbTest(), AMCmaxTest()):
            result = test.analyze(simple_mixed_taskset)
            assert result.schedulable
            assert set(result.priorities) == {
                t.task_id for t in simple_mixed_taskset
            }

    def test_rejects_overload(self, heavy_taskset):
        assert not AMCrtbTest().is_schedulable(heavy_taskset)
        assert not AMCmaxTest().is_schedulable(heavy_taskset)

    def test_lc_only_core_is_plain_rta(self):
        ts = TaskSet([lc_task(10, 4, name="a"), lc_task(20, 8, name="b")])
        # U = 0.8, DM-schedulable: R_b = 8 + 2*4 = 16 <= 20.
        assert AMCmaxTest().is_schedulable(ts)
        over = TaskSet([lc_task(10, 4, name="a"), lc_task(20, 13, name="b")])
        assert not AMCmaxTest().is_schedulable(over)

    def test_dm_verdict_reported_with_failing_task(self):
        ts = TaskSet(
            [hc_task(10, 4, 8, name="hp"), hc_task(20, 5, 10, name="victim")]
        )
        result = AMCmaxTest().analyze(ts)
        assert not result.schedulable
        assert "victim" in result.detail

    def test_opa_at_least_as_good_as_dm(self):
        from repro.generator import MCTaskSetGenerator

        rng = derive_rng("amc-opa")
        gen = MCTaskSetGenerator(
            m=1, n_min=3, n_max=6, deadline_type="constrained"
        )
        dm, opa = AMCmaxTest("dm"), AMCmaxTest("opa")
        compared = 0
        for _ in range(50):
            u_hh = 0.3 + 0.5 * rng.random()
            u_lh = u_hh * rng.random()
            ts = gen.generate(rng, u_hh, u_lh, min(0.8 - u_lh, rng.random()))
            if ts is None:
                continue
            compared += 1
            if dm.is_schedulable(ts):
                assert opa.is_schedulable(ts), ts.describe()
        assert compared >= 20

    @pytest.mark.parametrize("base", ["amc-max", "amc-rtb"])
    def test_opa_accepts_where_dm_rejects(self, base):
        """A set DM priorities reject but OPA accepts: the two priority
        policies of one AMC analysis must reach different verdicts, both
        directly and through a one-core partition."""
        tasks = [
            hc_task(22, 3, 11, deadline=14),
            lc_task(19, 5, deadline=11),
        ]
        dm, opa = get_test(base), get_test(f"{base}-opa")
        assert not dm.is_schedulable(TaskSet(tasks))
        assert opa.is_schedulable(TaskSet(tasks))
        strategy = get_strategy("cu-udp")
        assert not partition(TaskSet(tasks), 1, dm, strategy).success
        assert partition(TaskSet(tasks), 1, opa, strategy).success

    def test_invalid_priority_policy(self):
        with pytest.raises(ValueError, match="priority_policy"):
            AMCrtbTest("random")

    def test_arbitrary_deadline_rejected(self):
        ts = TaskSet([hc_task(10, 1, 2, deadline=15)])
        with pytest.raises(ValueError, match="constrained"):
            AMCmaxTest().analyze(ts)
