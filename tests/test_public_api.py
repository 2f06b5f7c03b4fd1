"""Public API surface checks.

Guards the documented import points: everything README/DESIGN mention must
be importable from the advertised locations, every public package must
carry a docstring, and ``__all__`` must resolve.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.clocks",
    "repro.network",
    "repro.gptp",
    "repro.core",
    "repro.hypervisor",
    "repro.security",
    "repro.faults",
    "repro.measurement",
    "repro.analysis",
    "repro.experiments",
    "repro.chaos",
    "repro.metrics",
    "repro.monitoring",
    "repro.parallel",
    "repro.resilience",
    "repro.scenarios",
    "repro.studies",
    "repro.cli",
]

#: Packages whose public names load on first use (``repro._lazy``).
LAZY_PACKAGES = [
    "repro.analysis",
    "repro.chaos",
    "repro.experiments",
    "repro.metrics",
    "repro.parallel",
    "repro.resilience",
    "repro.security",
    "repro.studies",
]


class TestPackages:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_importable_with_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_resolves(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_dir_lists_every_export(self, name):
        module = importlib.import_module(name)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, name):
        module = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name

    def test_export_named_like_its_submodule_wins(self):
        import repro.analysis

        submodule = importlib.import_module("repro.analysis.histogram")
        assert repro.analysis.histogram is submodule.histogram

    def test_submodules_still_import_through_the_package(self):
        from repro.experiments import sweeps

        assert sweeps.sweep is importlib.import_module("repro.experiments").sweep


class TestReadmeSnippets:
    def test_core_quick_taste(self):
        from repro.core import drift_offset, fault_tolerant_average, precision_bound

        result = fault_tolerant_average([120.0, -80.0, 40.0, -24_000.0], f=1)
        assert -80 <= result.value <= 120
        pi = precision_bound(4, 1, 5068.0, drift_offset(5.0, 125_000_000))
        assert round(pi) == 12_636

    def test_experiments_quick_taste(self):
        from repro.experiments import Testbed, TestbedConfig

        tb = Testbed(TestbedConfig(seed=7))
        tb.run_until(60_000_000_000)
        assert tb.series.max_record() is not None

    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestDocstringsOnPublicCallables:
    def test_key_entry_points_documented(self):
        from repro.core.aggregator import MultiDomainAggregator
        from repro.experiments.cyber import run_cyber_experiment
        from repro.experiments.fault_injection import run_fault_injection_experiment
        from repro.gptp.instance import GptpStack, Ptp4lInstance
        from repro.hypervisor.monitor import DependentClockMonitor

        for obj in (
            MultiDomainAggregator,
            run_cyber_experiment,
            run_fault_injection_experiment,
            GptpStack,
            Ptp4lInstance,
            DependentClockMonitor,
        ):
            assert obj.__doc__, obj

    def test_public_methods_documented(self):
        import inspect

        from repro.core.aggregator import MultiDomainAggregator
        from repro.gptp.instance import Ptp4lInstance
        from repro.hypervisor.clock_sync_vm import ClockSyncVm

        for cls in (MultiDomainAggregator, Ptp4lInstance, ClockSyncVm):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} undocumented"
