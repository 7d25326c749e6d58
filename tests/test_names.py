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


def _string_constants(name: str) -> list[str]:
    """Every string constant of an eqrc module's source, the literal parts of f-strings among them."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and type(node.value) is str]


_COLUMN_REFUSALS = sorted({what for record in ("DATASET_COLUMNS", "REPORT_COLUMNS", "EMISSION_COLUMNS")
                           for *_, what in getattr(importlib.import_module("eqrc.formats"), record)})


@pytest.mark.parametrize("template", _COLUMN_REFUSALS)
def test_each_column_refusal_is_written_once(template):
    """A record column's rule is stated once, in ``formats``' table: its refusal occurs once in the package, and
    ``stations`` words no refusal of its own with the rule's text."""
    assert sum(constants.count(template) for constants in map(_string_constants, MODULES)) == 1
    tail = template.split("{!r}")[1]
    assert [text for text in _string_constants("eqrc.stations") if tail in text] == []


def test_stations_imports_no_column_predicate():
    """The wire checks call the table's rules: ``stations`` imports no [0, 1) or other column test of its own."""
    assert [name for _, name in _imported("eqrc.stations") if name == "_unit_interval"] == []
    assert {"EMISSION_COLUMNS", "REPORT_COLUMNS", "column_fault"} <= {name for _, name in _imported("eqrc.stations")}


def _places_of(name: str, wanted) -> list[str]:
    """The qualified name of the function or class body around each node of an eqrc module that ``wanted`` takes."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if wanted(child):
                found.append(where or "<module>")
            visit(child, where)

    visit(tree, "")
    return found


def _calls_of(name: str, callee: str) -> list[str]:
    """Where an eqrc module calls ``callee`` (see ``_places_of``)."""
    return _places_of(name, lambda node: isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                                                   getattr(node.func, "attr", None)))


def _int_value(node) -> int | None:
    """The value of an expression of int literals and arithmetic on them, else None."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.BinOp) and None not in (_int_value(node.left), _int_value(node.right)):
        return eval(compile(ast.Expression(node), "<literal>", "eval"), {"__builtins__": {}})
    return None


def test_the_last_pair_index_is_stated_once():
    """``model.pair_range`` owns the int64 limit of the pair indices (``run_range``, the run layout, calls it):
    2**63 - 1 (in whatever arithmetic of literals) occurs in no other code of the package, where a second statement
    of the rule could drift."""
    assert {name: places for name in MODULES
            if (places := _places_of(name, lambda node: _int_value(node) == 2**63 - 1))} == {
        "eqrc.model": ["pair_range"]}


def test_emission_order_is_built_in_one_place():
    """A switched run is stored as its groups and a schedule: ``InterleavedRecords`` is only ever the view that
    ``RunDataset.interleaved`` builds, so a second stored shape cannot come back unnoticed."""
    assert {name: calls for name in MODULES if (calls := _calls_of(name, "InterleavedRecords"))} == {
        "eqrc.experiments": ["RunDataset.interleaved"]}
