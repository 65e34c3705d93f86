"""Package-surface hygiene: exports resolve and public items are documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.capping",
    "repro.experiments",
    "repro.hardware",
    "repro.io",
    "repro.perfmodel",
    "repro.prediction",
    "repro.runner",
    "repro.telemetry",
    "repro.units",
    "repro.vasp",
]

EXPERIMENT_MODULES = [
    "repro.experiments.table1",
    "repro.experiments.fig01_node_variation",
    "repro.experiments.fig02_sampling",
    "repro.experiments.fig03_timelines",
    "repro.experiments.fig04_parallel_efficiency",
    "repro.experiments.fig05_workload_power",
    "repro.experiments.fig06_system_size",
    "repro.experiments.fig07_internal_params",
    "repro.experiments.fig08_concurrency",
    "repro.experiments.fig09_methods",
    "repro.experiments.fig10_cap_efficacy",
    "repro.experiments.fig11_cap_timeline",
    "repro.experiments.fig12_cap_performance",
    "repro.experiments.fig13_cap_concurrency",
    "repro.experiments.scheduling",
    "repro.experiments.milc_study",
    "repro.experiments.topdown",
    "repro.experiments.system_power",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} lacks a module docstring"
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} in __all__ but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_callables_documented(package_name):
    """Every public class/function exported by a package has a docstring."""
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


@pytest.mark.parametrize("module_name", EXPERIMENT_MODULES)
def test_experiment_module_contract(module_name):
    """Each experiment module exposes run() and render()."""
    module = importlib.import_module(module_name)
    assert module.__doc__
    assert callable(module.run)
    assert callable(module.render)
    signature = inspect.signature(module.render)
    assert len(signature.parameters) == 1


def test_public_methods_documented_in_core_classes():
    from repro.hardware.gpu import GpuModel
    from repro.runner.engine import PowerEngine
    from repro.telemetry.sampler import LdmsSampler
    from repro.vasp.workload import VaspWorkload

    for cls in (GpuModel, PowerEngine, LdmsSampler, VaspWorkload):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"
