"""Unit tests for the generic partitioned-allocation engine."""

import dataclasses

import pytest

from repro.analysis import EDFVDTest
from repro.core import PartitionResult, ProcessorState, partition
from repro.core.strategies import first_fit
from repro.core.allocator import PartitioningStrategy
from repro.model import TaskSet

from tests.conftest import hc_task, lc_task
from tests.core.from_scratch import FromScratch


def trivial_strategy() -> PartitioningStrategy:
    return PartitioningStrategy(
        name="trivial",
        order=lambda ts: list(ts),
        hc_fit=first_fit,
        lc_fit=first_fit,
    )


class TestProcessorState:
    def test_accumulates_utilizations(self):
        state = ProcessorState(0)
        state.add(hc_task(100, 20, 50))
        state.add(lc_task(100, 30))
        assert state.u_lh == pytest.approx(0.2)
        assert state.u_hh == pytest.approx(0.5)
        assert state.u_ll == pytest.approx(0.3)
        assert state.utilization_difference == pytest.approx(0.3)
        assert state.utilization_lo == pytest.approx(0.5)

    def test_taskset_caches_and_refreshes(self):
        state = ProcessorState(1)
        empty = state.taskset()
        assert len(empty) == 0
        task = lc_task(10, 1)
        state.add(task)
        assert list(state.taskset()) == [task]


class TestPartition:
    def test_success_covers_every_task(self, simple_mixed_taskset):
        result = partition(simple_mixed_taskset, 2, EDFVDTest(), trivial_strategy())
        assert result.success
        placed = [t for core in result.cores for t in core]
        assert {t.task_id for t in placed} == {
            t.task_id for t in simple_mixed_taskset
        }
        assert set(result.assignment) == {t.task_id for t in simple_mixed_taskset}

    def test_every_core_passes_the_test(self, simple_mixed_taskset):
        test = EDFVDTest()
        result = partition(simple_mixed_taskset, 2, test, trivial_strategy())
        for core in result.cores:
            assert len(core) == 0 or test.is_schedulable(core)

    def test_failure_reports_task_and_partial_state(self):
        # Two heavy HC tasks + one more heavy HC task than 2 cores can take.
        ts = TaskSet(
            [
                hc_task(100, 10, 90, name="a"),
                hc_task(100, 10, 90, name="b"),
                hc_task(100, 10, 90, name="c"),
            ]
        )
        result = partition(ts, 2, EDFVDTest(), trivial_strategy())
        assert not result.success
        assert result.failed_task is not None and result.failed_task.name == "c"
        assert len(result.assignment) == 2

    def test_core_of(self, simple_mixed_taskset):
        result = partition(simple_mixed_taskset, 2, EDFVDTest(), trivial_strategy())
        for task in simple_mixed_taskset:
            core_idx = result.core_of(task)
            assert task in result.cores[core_idx]

    def test_invalid_m(self, simple_mixed_taskset):
        with pytest.raises(ValueError):
            partition(simple_mixed_taskset, 0, EDFVDTest(), trivial_strategy())

    def test_result_truthiness_and_describe(self, simple_mixed_taskset):
        result = partition(simple_mixed_taskset, 2, EDFVDTest(), trivial_strategy())
        assert bool(result) is result.success
        text = result.describe()
        assert "trivial" in text and "edf-vd" in text

    def test_empty_taskset(self):
        result = partition(TaskSet(), 3, EDFVDTest(), trivial_strategy())
        assert result.success
        assert all(len(core) == 0 for core in result.cores)

    def test_single_core_equals_uniprocessor_test(self, simple_mixed_taskset):
        test = EDFVDTest()
        result = partition(simple_mixed_taskset, 1, test, trivial_strategy())
        assert result.success == test.is_schedulable(simple_mixed_taskset)


class TestPartitionResultDataclass:
    def test_core_of_unassigned_raises(self):
        result = PartitionResult(
            success=False,
            strategy_name="s",
            test_name="t",
            m=1,
            cores=(TaskSet(),),
        )
        with pytest.raises(KeyError):
            result.core_of(lc_task(10, 1))


class TestSupportsGuard:
    def test_unsupported_taskset_raises_typed_error(self):
        from repro.core import UnsupportedTasksetError

        constrained = TaskSet([hc_task(100, 10, 20, deadline=80)])
        with pytest.raises(UnsupportedTasksetError) as excinfo:
            partition(constrained, 2, EDFVDTest(), trivial_strategy())
        assert excinfo.value.strategy_name == "trivial"
        assert excinfo.value.test_name == "edf-vd"
        assert "trivial" in str(excinfo.value)
        assert "edf-vd" in str(excinfo.value)

    def test_typed_error_is_a_value_error(self):
        from repro.core import UnsupportedTasksetError

        assert issubclass(UnsupportedTasksetError, ValueError)

    def test_raised_before_any_probe(self):
        """The guard fires up front, not mid-allocation from the analysis."""
        from repro.core import UnsupportedTasksetError

        class ExplodingTest(EDFVDTest):
            def analyze(self, taskset):  # pragma: no cover - must not run
                raise AssertionError("analyze must not be reached")

        constrained = TaskSet(
            [hc_task(100, 10, 20, deadline=80), lc_task(50, 5)]
        )
        with pytest.raises(UnsupportedTasksetError):
            partition(constrained, 2, ExplodingTest(), trivial_strategy())

    def test_supported_taskset_unaffected(self, simple_mixed_taskset):
        result = partition(
            simple_mixed_taskset, 2, EDFVDTest(), trivial_strategy()
        )
        assert result.success


class TestIncrementalParity:
    """The context-backed partition() must equal the from-scratch walk."""

    def _tasksets(self, deadline_type, m, count=8):
        from repro.generator import GeneratorConfig, MCTaskSetGenerator
        from repro.util.rng import derive_rng

        generator = MCTaskSetGenerator(
            GeneratorConfig(m=m, deadline_type=deadline_type)
        )
        rng = derive_rng("alloc-parity", deadline_type, m)
        out = []
        targets = [(0.4, 0.2, 0.3), (0.6, 0.3, 0.35), (0.75, 0.35, 0.4)]
        while len(out) < count:
            taskset = generator.generate(rng, *targets[len(out) % len(targets)])
            if taskset is not None:
                out.append(taskset)
        return out

    @pytest.mark.parametrize(
        "algorithm_name,deadline_type",
        [
            ("cu-udp-ecdf", "constrained"),
            ("cu-udp-ey", "constrained"),
            ("cu-udp-amc", "constrained"),
            ("cu-udp-edf-vd", "implicit"),
            ("ca-udp-ecdf", "implicit"),
        ],
    )
    def test_bit_identical_partition_results(self, algorithm_name, deadline_type):
        from repro.experiments import get_algorithm

        algorithm = get_algorithm(algorithm_name)
        scratch = dataclasses.replace(algorithm, test=FromScratch(algorithm.test))
        for m in (2, 3):
            for taskset in self._tasksets(deadline_type, m):
                fast = algorithm.partition(taskset, m)
                slow = scratch.partition(taskset, m)
                assert fast.success == slow.success
                assert fast.assignment == slow.assignment
                assert fast.cores == slow.cores
                assert fast.failed_task == slow.failed_task

    def test_opa_test_falls_back_to_from_scratch(self):
        """Tests without a context (make_context() is None) keep working."""
        from repro.analysis import AMCmaxTest

        test = AMCmaxTest("opa")
        assert test.make_context() is None
        taskset = TaskSet(
            [hc_task(100, 10, 20), hc_task(150, 15, 30), lc_task(50, 5)]
        )
        result = partition(taskset, 2, test, trivial_strategy())
        assert result.success == partition(
            taskset, 2, FromScratch(test), trivial_strategy()
        ).success
