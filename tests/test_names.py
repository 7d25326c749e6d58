"""Every name an eqrc module lists in ``__all__`` exists in it, and the modules import only across their layers."""

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


def _imported(name: str) -> list[tuple[str, str]]:
    """(module, name) for each name an eqrc module imports, a relative module resolved in eqrc; ("a.b", "") for
    ``import a.b``."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("eqrc" if node.level else "", node.module)))
            imported += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
    return imported


def test_stats_imports_no_other_eqrc_module():
    """The estimators read columns they are given: one that drew its own stream would import the model."""
    assert [module for module, _ in _imported("eqrc.stats") if module.split(".")[0] == "eqrc"] == []


def test_record_files_sit_behind_formats():
    """``formats`` lays out, writes and reads every record file: ``stations`` uses only its public names, and
    ``formats`` imports nothing of the wire or the roles."""
    assert [name for module, name in _imported("eqrc.stations") if module == "eqrc.formats" and name[0] == "_"] == []
    assert [(module, name) for module, name in _imported("eqrc.formats")
            if "eqrc.stations" in (module, f"{module}.{name}")] == []
