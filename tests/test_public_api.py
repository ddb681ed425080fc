"""Public API surface checks.

Guards the curated ``repro`` namespace: everything advertised in
``__all__`` must exist, and the registries must stay consistent with the
concrete classes they expose (renaming a test must not silently detach it
from the experiment harness).
"""

import repro
from repro.analysis import get_test, registered_tests
from repro.core import get_strategy, registered_strategies
from repro.experiments import get_algorithm, registered_algorithms


class TestNamespace:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_key_types_importable_at_top_level(self):
        assert repro.MCTask is not None
        assert repro.TaskSet is not None
        assert callable(repro.partition)
        assert callable(repro.cu_udp)


class TestRegistryConsistency:
    def test_every_test_instantiates_with_matching_name(self):
        for name in registered_tests():
            assert get_test(name).name == name

    def test_every_strategy_instantiates_with_matching_name(self):
        for name in registered_strategies():
            assert get_strategy(name).name == name

    def test_every_algorithm_wires_registered_parts(self):
        strategies = set(registered_strategies())
        for name in registered_algorithms():
            algo = get_algorithm(name)
            assert algo.name == name
            assert algo.strategy.name in strategies

    def test_algorithm_names_compose_strategy_and_test(self):
        for name in registered_algorithms():
            algo = get_algorithm(name)
            assert name.startswith(algo.strategy.name)
