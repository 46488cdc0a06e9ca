"""Each public name is declared once, in the `__all__` of the module that
defines it; the package's `__all__` is built from those lists and the
SMT-layer names it serves lazily."""

import pytest

import petrisep
from petrisep import cegar, constants, fileformat, generators, inductivity, intervals, net, solver

EAGER = (cegar, constants, fileformat, generators, inductivity, intervals, net)


def test_package_exports_are_the_module_lists():
    declared = [name for module in EAGER for name in module.__all__] + list(petrisep._LAZY)
    assert len(declared) == len(set(declared)) == 54
    assert petrisep.__all__ == sorted(declared)


@pytest.mark.parametrize("module", [*EAGER, solver], ids=lambda m: m.__name__)
def test_module_exports_are_defined_in_the_module(module):
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__, name


def test_lazy_names_are_the_solver_exports():
    assert petrisep._LAZY == tuple(solver.__all__)
