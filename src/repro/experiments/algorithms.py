"""Named partitioned MC algorithms — (partitioning strategy, test) pairs.

The paper's naming convention ``<strategy>-<test>`` is kept:
``cu-udp-ecdf`` is the CU-UDP strategy admitting tasks under the ECDF test.
The AMC algorithms use AMC-max (the test the paper cites) with
deadline-monotonic priorities; OPA variants are registered for the ablation
benchmarks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.model import TaskSet
from repro.analysis import (
    AMCmaxTest,
    AMCrtbTest,
    ECDFTest,
    EDFVDTest,
    EYTest,
)
from repro.analysis.interface import SchedulabilityTest
from repro.core import (
    PartitioningStrategy,
    PartitionResult,
    ca_f_f,
    ca_nosort_f_f,
    ca_udp,
    ca_udp_res,
    ca_wu_f,
    cu_udp,
    cu_udp_res,
    eca_wu_f,
    partition,
)

__all__ = [
    "PartitionedAlgorithm",
    "get_algorithm",
    "registered_algorithms",
]


@dataclass(frozen=True)
class PartitionedAlgorithm:
    """A partitioned MC scheduling algorithm in the paper's sense."""

    name: str
    strategy: PartitioningStrategy
    test: SchedulabilityTest

    def partition(self, taskset: TaskSet, m: int) -> PartitionResult:
        """Partition ``taskset`` onto ``m`` cores under this algorithm."""
        return partition(taskset, m, self.test, self.strategy)

    def accepts(self, taskset: TaskSet, m: int) -> bool:
        """Convenience: does partitioning succeed?"""
        return self.partition(taskset, m).success


def _make(name: str, strategy_factory, test_factory) -> Callable[[], PartitionedAlgorithm]:
    def factory() -> PartitionedAlgorithm:
        return PartitionedAlgorithm(name, strategy_factory(), test_factory())

    return factory


_ALGORITHMS: dict[str, Callable[[], PartitionedAlgorithm]] = {
    # Figure 3: EDF-VD based, speed-up bound 8/3.
    "ca-udp-edf-vd": _make("ca-udp-edf-vd", ca_udp, EDFVDTest),
    "cu-udp-edf-vd": _make("cu-udp-edf-vd", cu_udp, EDFVDTest),
    "ca-nosort-f-f-edf-vd": _make(
        "ca-nosort-f-f-edf-vd", ca_nosort_f_f, EDFVDTest
    ),
    # Extra EDF-VD combinations (worked examples, ablations).
    "ca-wu-f-edf-vd": _make("ca-wu-f-edf-vd", ca_wu_f, EDFVDTest),
    "ca-f-f-edf-vd": _make("ca-f-f-edf-vd", ca_f_f, EDFVDTest),
    # Figures 4-6: demand-based and fixed-priority algorithms.
    "cu-udp-ecdf": _make("cu-udp-ecdf", cu_udp, ECDFTest),
    "ca-udp-ecdf": _make("ca-udp-ecdf", ca_udp, ECDFTest),
    "cu-udp-ey": _make("cu-udp-ey", cu_udp, EYTest),
    "cu-udp-amc": _make("cu-udp-amc", cu_udp, AMCmaxTest),
    "ca-udp-amc": _make("ca-udp-amc", ca_udp, AMCmaxTest),
    "eca-wu-f-ey": _make("eca-wu-f-ey", eca_wu_f, EYTest),
    "ca-f-f-ey": _make("ca-f-f-ey", ca_f_f, EYTest),
    # Ablation variants.
    "cu-udp-amc-rtb": _make("cu-udp-amc-rtb", cu_udp, AMCrtbTest),
    "cu-udp-amc-opa": _make(
        "cu-udp-amc-opa", cu_udp, lambda: AMCmaxTest("opa")
    ),
    # Degradation-aware UDP variants (fig7): the strategies balance the
    # residual-aware difference U_HH + U_res - U_LH; under the default
    # FullDrop service they allocate identically to their plain twins.
    "ca-udp-res-edf-vd": _make("ca-udp-res-edf-vd", ca_udp_res, EDFVDTest),
    "cu-udp-res-edf-vd": _make("cu-udp-res-edf-vd", cu_udp_res, EDFVDTest),
    "cu-udp-res-ecdf": _make("cu-udp-res-ecdf", cu_udp_res, ECDFTest),
    "cu-udp-res-ey": _make("cu-udp-res-ey", cu_udp_res, EYTest),
}


def get_algorithm(name: str) -> PartitionedAlgorithm:
    """Instantiate the registered algorithm called ``name``."""
    try:
        factory = _ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(_ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None
    return factory()


def registered_algorithms() -> tuple[str, ...]:
    """Names of all registered algorithms, sorted."""
    return tuple(sorted(_ALGORITHMS))
