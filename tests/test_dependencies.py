"""The library imports nothing outside the standard library, reads JSON
numbers in one place, and keeps its exact-input rules and its packed-int
layouts in one place each."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lormatch").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = sorted({name for name in modules if name.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name} imports {outside}"


def test_sources_found():
    assert {"cli.py", "matchings.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_json_number_readers_live_in_util(path):
    # the JSON integer and rational rule is `_util`'s; a second copy elsewhere
    # could drift from it and read a float or a bool as a number again
    if path.name == "_util.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    copies = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and ("json_int" in node.name or "json_rational" in node.name)
    )
    assert not copies, f"{path.name} defines {copies}; read JSON numbers with _util"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exact_input_rules_live_in_util(path):
    # refusing a float (`exact_rational`) and scaling rationals to ints by the
    # lcm of their denominators (`clear_denominators`) are `_util`'s rules; a
    # copy elsewhere could round a float or scale by the wrong common multiple
    if path.name == "_util.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "lcm":
            found.add("math.lcm")
        elif isinstance(node, ast.alias) and node.name == "lcm":
            found.add("from math import lcm")
        elif isinstance(node, ast.Constant) and "got float" in str(node.value):
            found.add("a 'got float' refusal")
    assert not found, f"{path.name} has {sorted(found)}; use _util's exact-input rules"


def _functions(path, nested=True):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nodes = ast.walk(tree) if nested else tree.body
    return {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_packed_layouts_live_in_packed(path):
    # digit keys, guard-bit fields and subset masks are `_packed`'s layouts; a
    # copy elsewhere could drift from the invariants that module states
    if path.name == "_packed.py":
        return
    helpers = _functions(path.with_name("_packed.py"), nested=False)
    copies = sorted(_functions(path) & helpers)
    assert not copies, f"{path.name} defines {copies}; import them from _packed"


def test_lorentzian_imports_nothing_from_matchings():
    # the certifier needs only key packing from there, which `_packed` owns
    path = next(path for path in SOURCES if path.name == "lorentzian.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)  # `from . import matchings` too
    assert not [name for name in names if name.split(".")[-1] == "matchings"]
