"""The package's public names: exactly each module's `__all__` and the error classes."""

import inspect
import pkgutil
from itertools import combinations

import tailfocal
from tailfocal import analysis, datagen, errors, experiments, fusion, imbalance, losses, metrics

MODULES = (analysis, datagen, experiments, fusion, imbalance, losses, metrics)
ERRORS = ("ConfigError", "DataFormatError", "TrainingError")


def _public(namespace) -> set:
    """The names in `namespace` that are neither private nor a submodule."""
    return {
        k for k, v in vars(namespace).items() if not k.startswith("_") and not inspect.ismodule(v)
    }


def test_every_module_but_the_cli_and_the_errors_is_re_exported():
    found = {m.name for m in pkgutil.iter_modules(tailfocal.__path__)}
    assert found == {m.__name__.rpartition(".")[2] for m in MODULES} | {"cli", "errors"}


def test_the_package_exports_exactly_each_module_all_and_the_errors():
    assert _public(tailfocal) == set().union(*(m.__all__ for m in MODULES)) | set(ERRORS)


def test_each_exported_name_is_its_module_export():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tailfocal, name) is getattr(module, name), (module.__name__, name)
    for name in ERRORS:
        assert getattr(tailfocal, name) is getattr(errors, name)


def test_a_name_two_modules_export_is_one_object():
    for a, b in combinations(MODULES, 2):
        for name in set(a.__all__) & set(b.__all__):
            assert getattr(a, name) is getattr(b, name), (a.__name__, b.__name__, name)
