"""Every name an eqrc module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import eqrc

MODULES = sorted(info.name for info in pkgutil.iter_modules(eqrc.__path__, "eqrc."))


def test_every_module_is_found():
    assert MODULES == ["eqrc.cli", "eqrc.experiments", "eqrc.formats", "eqrc.inequalities", "eqrc.model",
                       "eqrc.stations", "eqrc.stats"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists names {name} does not define: {missing}"
