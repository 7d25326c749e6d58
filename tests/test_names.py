"""Every name an eqrc module lists in ``__all__`` exists in it, and the estimators import no other eqrc module."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_stats_imports_no_other_eqrc_module():
    """The estimators read columns they are given: one that drew its own stream would import the model."""
    tree = ast.parse(Path(importlib.import_module("eqrc.stats").__file__).read_text(encoding="utf-8"))
    imported = [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "eqrc")]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.split(".")[0] == "eqrc"]
    assert imported == []
