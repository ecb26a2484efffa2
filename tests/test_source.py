"""Source hygiene, checked with the stdlib `ast` since no linter is installed.

No module of the package imports a name it never uses: deleted code can
leave dead imports behind. `__init__` re-exports by importing, so it is not
checked for those. No module catches every error (`except Exception`,
`except BaseException` or a bare `except:`): a failure raises the `FchError`
subclass that names it, and a handler catches only what it expects.
Importing the package does not import scipy.stats: nothing in it needs that
module, whose import is a large share of the package's start-up time.
"""

import ast
from pathlib import Path

import pytest

import fchpulse
from conftest import fresh_python

ALL_SOURCES = sorted(Path(fchpulse.__file__).parent.glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]
CATCH_ALL = {"Exception", "BaseException"}


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


def catch_all_handlers(source):
    """Line numbers of handlers that catch every error."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(
            isinstance(n, ast.Name) and n.id in CATCH_ALL for n in names
        ):
            lines.append(node.lineno)
    return lines


def test_detects_catch_all_handlers():
    source = (
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (KeyError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
    )
    assert catch_all_handlers(source) == [7, 11, 15]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    assert catch_all_handlers(path.read_text()) == []


def test_import_does_not_load_scipy_stats():
    code = ("import sys, fchpulse; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert fresh_python(code).strip() == "[]"
