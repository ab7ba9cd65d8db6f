"""The library imports nothing outside the standard library, and reads JSON
numbers in one place."""

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
