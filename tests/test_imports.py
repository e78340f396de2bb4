"""Every name a module under src/symf imports is used in that module.

A name counts as used when it is read anywhere in the module, or listed
in its __all__ (the package re-exports its API that way).  The check is
by name, not by scope, which is enough to catch an import a change has
orphaned.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symf"


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
