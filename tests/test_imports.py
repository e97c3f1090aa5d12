"""Every name a module of the package imports is used there, and every
definition of the package is used somewhere in it.

Stdlib-only AST scans of ``src/posrep/*.py``:

* an imported name must occur in the module as a name or as the base of an
  attribute access;
* a module-level function or class must be referenced, as a name or as
  an attribute, and a method of such a class as an attribute (``x.name``),
  somewhere in the package outside its own definition; a local variable
  that shares a method's name does not count.  Dunder names and the few
  named ``REFERENCES`` are exempt; public and private names are not.

So a helper that only the tests reach fails here: either the package uses
it, or it is a named reference, or it goes.

A third scan finds every ``assert`` statement in the package: ``python -O``
strips them, so a correctness guard must be an explicit raise.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posrep"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_init_is_its_docstring_alone():
    # each name has one import path, its own module: no re-exports, no
    # __all__, no __version__ beside pyproject.toml's
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_the_cli_does_not_load_the_closed_forms():
    # ``posrep.crosscheck`` is a reference that only the tests compare
    # against; importing the command line must not pay for it
    script = "import sys; sys.path.insert(0, sys.argv[1]); import posrep.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(PACKAGE.parent)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "posrep.cli" in loaded and "posrep.crosscheck" not in loaded


def test_scan_flags_an_unused_import():
    source = "import os\nfrom typing import Iterable, List, Tuple\nx: List = os.sep\n"
    assert unused_imports(source) == ["Iterable (line 2)", "Tuple (line 2)"]


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


def asserts(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    found = {str(p.relative_to(PACKAGE)): asserts(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_an_assert():
    assert asserts("def f(x):\n    if x:\n        assert x > 0, x\n    return x\n") == [3]
    assert asserts("x = 1\n") == []
