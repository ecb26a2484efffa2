"""Source hygiene: no module of the package imports a name it never uses.

No linter is installed, so deleted code can leave dead imports behind; this
stdlib `ast` check catches them. `__init__` re-exports by importing, so it is
not checked.
"""

import ast
from pathlib import Path

import pytest

import fchpulse

SOURCES = sorted(
    p for p in Path(fchpulse.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of every imported name that is never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
