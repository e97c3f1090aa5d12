"""Every name a module of the package imports is used there.

A stdlib-only AST scan of ``src/posrep/*.py``: an imported name must occur
in the module as a name or as the base of an attribute access, or else be
re-exported by ``__init__`` from that module.  Every name ``__init__``
imports is a public export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posrep"


def reexports(module: str) -> set[str]:
    """Names that ``__init__`` imports from ``module``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def unused_imports(source: str, exported: set[str] = frozenset()) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), reexports(path.stem)) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom typing import Iterable, List, Tuple\nx: List = os.sep\n"
    assert unused_imports(source) == ["Iterable (line 2)", "Tuple (line 2)"]
    assert unused_imports(source, {"Tuple"}) == ["Iterable (line 2)"]
