"""Every name a module of the package imports is used there, and every
definition of the package is used somewhere in it.

Stdlib-only AST scans of ``src/posrep/*.py``:

* an imported name must occur in the module as a name or as the base of an
  attribute access, or else be re-exported by ``__init__`` from that module;
* a module-level function or class must be referenced, as a name or as
  an attribute, and a method of such a class as an attribute (``x.name``),
  somewhere in the package outside its own definition; a local variable
  that shares a method's name does not count.  Dunder names and the few
  named ``REFERENCES`` are exempt; exported and private names are not.

So a helper that only the tests reach fails here: either the package uses
it, or it is a named reference, or it goes.

A third scan finds every ``assert`` statement in the package: ``python -O``
strips them, so a correctness guard must be an explicit raise.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posrep"


def reexports(module: str | None = None) -> set[str]:
    """Names that ``__init__`` imports from ``module``, or from any module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and module in (None, node.module)
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


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(qualified name, node) of the module-level functions and classes and
    of the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (*FUNCS, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, FUNCS))


def references(node: ast.AST, kinds=(ast.Name, ast.Attribute)) -> Counter:
    """How often each name occurs under ``node`` as one of ``kinds``: a
    name, an attribute, or both."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, kinds)
    )


def unreferenced(sources: dict[str, str], exported: set[str] = frozenset()) -> list[str]:
    """``module.name`` of every definition that nothing outside it references;
    a method counts only references as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = {
        kinds: sum((references(tree, kinds) for tree in trees.values()), Counter())
        for kinds in ((ast.Name, ast.Attribute), ast.Attribute)
    }
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__") or node.name in exported:
                continue
            kinds = ast.Attribute if "." in qualname else (ast.Name, ast.Attribute)
            if total[kinds][node.name] == references(node, kinds)[node.name]:
                out.append(f"{module}.{qualname}")
    return out


REFERENCES = {
    # independent closed forms that the tests compare the engine against
    "closed_form_An", "closed_form_Dn",
    # certificates that the benchmark items and acceptance criteria 6, 8 and 9 call
    "cross_parity_certificate", "qtori_certificate", "path_independence",
    # the checks of acceptance criterion 11
    "verify_weyl_pattern", "distinguished_lambda_forms",
    # word sources for the tests that range over many reduced words
    "enumerate_words", "random_longest_words",
}


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    # a named reference that the package does use is stale
    assert REFERENCES <= {name.rsplit(".", 1)[1] for name in unreferenced(sources)}
    assert unreferenced(sources, REFERENCES) == []


def test_scan_flags_an_unreferenced_definition():
    sources = {
        "a": (
            "def uncalled():\n    return helper()\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def exported():\n    pass\n"
            "def _helper():\n    pass\n"
            "helper = _helper\n"
            "class Box:\n"
            "    def __init__(self):\n        self.used()\n"
            "    def used(self):\n        pass\n"
            "    def unused(self):\n        return self.unused\n"
            "    def shadowed(self):\n        pass\n"
        ),
        # a local variable named like a method does not reference it
        "b": "from .a import Box\nBox()\ndef run():\n    shadowed = 1\n    return shadowed\nrun()\n",
    }
    assert unreferenced(sources, {"exported"}) == [
        "a.uncalled", "a.recursive", "a.Box.unused", "a.Box.shadowed"
    ]
    assert unreferenced(sources) == [
        "a.uncalled", "a.recursive", "a.exported", "a.Box.unused", "a.Box.shadowed"
    ]


def test_all_lists_exactly_the_imported_names():
    import posrep

    imported = [
        alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert posrep.__all__ == imported
    assert [name for name in posrep.__all__ if isinstance(getattr(posrep, name), ModuleType)] == []


def test_each_module_name_names_its_module():
    # a re-exported function must not shadow the module it comes from
    import posrep
    import posrep.transport as m
    from posrep import repbuild

    assert isinstance(m, ModuleType) and m.transport is repbuild.transport
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            module = importlib.import_module(f"posrep.{path.stem}")
            assert getattr(posrep, path.stem) is module, path.stem


def asserts(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    found = {str(p.relative_to(PACKAGE)): asserts(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_an_assert():
    assert asserts("def f(x):\n    if x:\n        assert x > 0, x\n    return x\n") == [3]
    assert asserts("x = 1\n") == []
