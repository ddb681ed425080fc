"""Batched sweep pipeline == scalar reference loop, shard for shard.

The headline guarantee of the columnar refactor: for every figure
configuration, the production batched pipeline — and ``run_sweep``,
which runs it through the shard runner — produces sweep results (ratios,
WAR inputs, shard outcomes) bit-identical to the per-taskset reference
loop ``AcceptanceSweep(pipeline="scalar")``.
"""

from __future__ import annotations

import pytest

from repro.experiments.acceptance import (
    AcceptanceSweep,
    SweepConfig,
    settled_summary,
)
from repro.experiments.algorithms import get_algorithm
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.runner import FsStore, decompose_sweep, run_sweep, run_unit

#: Mini versions of the paper's figure configurations (every test family,
#: both deadline types, a degraded-service fig7 slice).
FIGURE_SLICES = [
    ("fig3", "implicit", ("ca-udp-edf-vd", "cu-udp-edf-vd"), "full-drop"),
    ("fig4", "implicit", ("cu-udp-ecdf", "eca-wu-f-ey"), "full-drop"),
    ("fig5", "constrained", ("cu-udp-amc", "cu-udp-ecdf"), "full-drop"),
    ("fig7a", "implicit", ("cu-udp-res-edf-vd",), "imprecise:0.5"),
    ("fig7b", "implicit", ("cu-udp-res-ey",), "elastic:2.0"),
]


def config_for(label, deadline_type, service, samples=4):
    return SweepConfig(
        label=label,
        m=2,
        deadline_type=deadline_type,
        samples_per_bucket=samples,
        service=service,
    )


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "label,deadline_type,algorithms,service", FIGURE_SLICES
    )
    def test_bucket_outcomes_bit_identical(
        self, label, deadline_type, algorithms, service
    ):
        config = config_for(label, deadline_type, service)
        algos = [get_algorithm(name) for name in algorithms]
        scalar = AcceptanceSweep(config, pipeline="scalar")
        batched = AcceptanceSweep(config, pipeline="batched")
        for bucket, points in scalar.bucket_points().items():
            a = scalar.run_bucket(bucket, points, algos)
            b = batched.run_bucket(bucket, points, algos)
            # Dataclass equality covers bucket, samples and exact ratios.
            assert a == b
            assert a.ratios == b.ratios
            if b.samples:
                assert b.accepted is not None
                for name in a.ratios:
                    assert b.accepted[name] == round(
                        b.ratios[name] * b.samples
                    )

    @pytest.mark.parametrize(
        "label,deadline_type,algorithms,service",
        [("fig4", "implicit", ("cu-udp-ecdf", "ca-f-f-ey"), "full-drop")]
        + FIGURE_SLICES,
    )
    def test_sweep_results_and_war_bit_identical(
        self, label, deadline_type, algorithms, service
    ):
        config = config_for(label, deadline_type, service, samples=3)
        names = list(algorithms)
        scalar = AcceptanceSweep(config, pipeline="scalar").run(
            [get_algorithm(name) for name in names]
        )
        batched = run_sweep(config, names)
        assert scalar.buckets == batched.buckets
        assert scalar.samples == batched.samples
        assert scalar.ratios == batched.ratios
        for name in names:
            assert weighted_acceptance_ratio(
                scalar.buckets, scalar.ratios[name]
            ) == weighted_acceptance_ratio(batched.buckets, batched.ratios[name])

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            AcceptanceSweep(
                config_for("fig3", "implicit", "full-drop"), pipeline="turbo"
            )


class TestCacheInteraction:
    def test_stored_shard_matches_the_scalar_reference(self, tmp_path):
        config = config_for("fig3", "implicit", "full-drop")
        names = ("cu-udp-edf-vd",)
        cache = FsStore(tmp_path)
        unit = decompose_sweep(config, names)[3]
        outcome = run_unit(unit)
        cache.store(unit, outcome)
        loaded = cache.load(unit)
        reference = AcceptanceSweep(config, pipeline="scalar")
        scalar = reference.run_bucket(
            unit.bucket,
            reference.bucket_points()[unit.bucket],
            [get_algorithm(name) for name in names],
        )
        assert loaded == outcome == scalar
        assert loaded.accepted == outcome.accepted  # counts survive the cache

    def test_settled_summary_aggregates(self):
        config = config_for("fig3", "implicit", "full-drop")
        sweep = AcceptanceSweep(config, pipeline="batched")
        algos = [get_algorithm("cu-udp-edf-vd")]
        outcomes = [
            sweep.run_bucket(bucket, points, algos)
            for bucket, points in sweep.bucket_points().items()
        ]
        summary = settled_summary(outcomes)
        assert "cu-udp-edf-vd" in summary
        total = sum(summary["cu-udp-edf-vd"].values())
        assert total == sum(o.samples for o in outcomes)
