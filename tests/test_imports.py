"""Every name a module under src/symf imports is used in that module,
every module parses at the oldest Python pyproject.toml declares, and
no module holds an assert statement.

A name counts as used when it is read anywhere in the module, or listed
in its __all__ (the package re-exports its API that way).  The check is
by name, not by scope, which is enough to catch an import a change has
orphaned.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symf"


def _unused_imports(tree):
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and
              any(isinstance(t, ast.Name) and t.id == "__all__"
                  for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name != "*")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    assert _unused_imports(tree) == []


def test_the_check_finds_an_orphaned_import():
    tree = ast.parse("from math import prod, gcd\n"
                     "import os.path\n"
                     "__all__ = ['gcd']\n")
    assert _unused_imports(tree) == [(1, "prod"), (2, "os")]


def _python_floor():
    # (major, minor) from requires-python = ">=X.Y", its one source
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=_python_floor())


def test_the_floor_check_refuses_newer_grammar():
    # except* is Python 3.11 grammar
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_no_assert_statements():
    # python -O strips assert, and the self-test runs under -O: a check
    # in the library raises instead
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
