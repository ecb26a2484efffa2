"""Source hygiene, checked with the stdlib `ast` since no linter is installed.

No module of the package or of its tests imports a name it never uses:
deleted code can leave dead imports behind. `__init__` re-exports by
importing, so it is not checked for those. No module catches every error
(`except Exception`, `except BaseException` or a bare `except:`): a failure
raises the `FchError` subclass that names it, and a handler catches only
what it expects.
Importing the package does not import scipy.stats: nothing in it needs that
module, whose import is a large share of the package's start-up time. No
function imports inside its body: every module the package uses is imported
once, at the top of the module that uses it. And every defaulted parameter
of a package function is passed by some call in the package: an option
that no caller in the program varies is a constant. The few that only tests
vary are named in an allow-list below, with the reason. No package function
has a parameter that its body never reads: callers would pass a value that
changes nothing. No package function gives a default to a parameter named
like an `ExperimentConfig` field: the config owns those defaults, and a
second one drifts from it unseen. Every iterative eigensolver call
(`eigsh`, `lobpcg`) passes its start explicitly (`v0=`, `X=`): without one
ARPACK draws its own start vector, and runs stop repeating bit for bit.
Every dense
eigensolve or SVD (`eigh`, `eigvalsh`, `eigvalsh_tridiagonal`, `svd`,
`null_space`) lies in a function that the allow-list below names, each of
them small or run once: the diagnostic path solves N x N spectra by
shift-invert Lanczos only. Only `harness` opens files (by `open` or a
`Path` reader or writer) and imports `csv` or `hashlib`, and only it and
`cli`, which prints the summary, import `json`: it writes and reads every
file, so each format is known in one module. No loop or comprehension
over pulse `positions` calls a translate evaluator (`pulse_jet`,
`pulse_bar`, `pulse_bar_deriv`, `lattice_jet`) unless the allow-list below
names it with its reason: the n translates of a stack are one batched call
on their (n, size) offsets. In `ansatz`, only the manifold's kernel
`PulseManifold._translates` calls a translate evaluator, so every consumer
of Phi reads its translates in one place. In `harness`, only
`run_experiment` runs the lifecycle of a run: it alone constructs the
`RunManifest`, calls `Laboratory.from_config`, and writes `config.json`
and `manifest.json`, so every experiment starts and finishes one way. Only
`core` imports `scipy.fft` or `numpy.fft`: the DCT-I normalization and the
cosine-series derivative are written once, and every other module calls
`core`'s transforms and `mode_derivative`, which act on column stacks. And
every function, method and property of the package is referenced by name in the
package or its tests: code that nothing reaches is deleted, not kept.
Likewise every field of a package dataclass is read, as an attribute or
by its name as a string, in the package or its tests, unless `asdict`
writes the class whole: a value that is stored but never read is work
for nothing.
"""

import ast
import math
from dataclasses import fields
from pathlib import Path

import pytest

import fchpulse
from fchpulse import ExperimentConfig
from conftest import fresh_python

ALL_SOURCES = sorted(Path(fchpulse.__file__).parent.glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]
TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}
# Iterative eigensolvers and the keyword that hands each its start.
SEEDED_SOLVERS = {"eigsh": "v0", "lobpcg": "X"}
# Dense eigensolvers and SVDs, and the functions (module.qualified name) that
# may call them: a k x k Ritz problem (one per shift of a stack), n x n
# Procrustes rotations and subspace overlaps, a tridiagonal inertia count,
# and the point spectrum solved once per pulse, above its threshold only.
DENSE_EIGENSOLVERS = {"eigh", "eigvalsh", "eigvalsh_tridiagonal", "svd",
                      "null_space"}
DENSE_EIGENSOLVE_ALLOWED = {
    "spectral.SpectralContext.ritz",
    "spectral._procrustes_align",
    "spectral.eigenfield_continuity",
    "spectral.negative_count",
    "wellmodel.single_pulse_point_spectrum",
}
# The modules that only some package modules may import, and those: harness
# writes and reads every file, and cli prints the summary as JSON.
IMPORT_OWNERS = {"csv": {"harness"}, "hashlib": {"harness"},
                 "json": {"harness", "cli"}}
# The one module that opens files, and the calls that do.
FILE_OPENERS = {"harness"}
OPEN_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
# The console-script entry point is called with no arguments; argv is for
# callers that are not the installed script.
ENTRY_POINTS = {"cli.main"}
# Options that only tests pass, with the reason each is kept.
TEST_OPTIONS = {
    "wellmodel.solve_homoclinic(half_width)":
        "test_wellmodel builds its wide-window reference with it",
    "wellmodel.solve_homoclinic(cheb_degree)":
        "test_wellmodel builds its wide-window reference with it",
}
# Translate evaluators, and those that may be called once per translate with
# the reason: the others take all n translates as one (n, size) batch.
TRANSLATE_EVALUATORS = {"pulse_jet", "pulse_bar", "pulse_bar_deriv",
                        "lattice_jet"}
PER_TRANSLATE_ALLOWED = {
    "lattice_jet": "each translate reads its own lattice phase floor(p/h)",
}
# The one function of the manifold module that evaluates translates.
TRANSLATE_KERNEL = "PulseManifold._translates"
# The steps of a run's lifecycle (calls, and the files a call names), and the
# one function of harness that takes them.
LIFECYCLE_CALLS = {"RunManifest", "from_config"}
LIFECYCLE_FILES = {"config.json", "manifest.json"}
LIFECYCLE_OWNER = "run_experiment"
# Dataclasses that `asdict` writes whole, so every field of them is read.
SERIALIZED_WHOLE = {"RunManifest", "ExperimentConfig", "InternalParams"}


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


@pytest.mark.parametrize("path", [*SOURCES, *TEST_SOURCES],
                         ids=lambda p: p.name)
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


def function_local_imports(source):
    """Line numbers of import statements inside a function body."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(n.lineno for n in ast.walk(node)
                         if isinstance(n, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_detects_function_local_imports():
    source = (
        "import os\n"
        "def f():\n    import csv\n    return csv, os\n"
        "class C:\n    def g(self):\n        from math import pi\n"
        "        return pi\n"
    )
    assert function_local_imports(source) == [3, 7]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


def defaulted_parameters(source, module):
    """(function, callee, parameter, position) of every defaulted parameter.

    function is module[.Class].name and callee the name a call uses, which
    is the class name for `__init__`. position is the index of the parameter
    among the positional arguments of a call, without self or cls, and None
    for a keyword-only one. Other dunder methods are skipped: operators call
    them, not their names.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            visit(child, None)
            name = child.name
            if name.startswith("__") and name.endswith("__") and not (
                cls and name == "__init__"
            ):
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            if cls and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list
            ):
                positional = positional[1:]
            qual = ".".join([module, *([cls.name] if cls else []), name])
            callee = cls.name if name == "__init__" else name
            first = len(positional) - len(args.defaults)
            found.extend((qual, callee, p.arg, i)
                         for i, p in enumerate(positional) if i >= first)
            found.extend((qual, callee, p.arg, None)
                         for p, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None)

    visit(ast.parse(source), None)
    return found


def passed_arguments(sources):
    """{callee: (most positional arguments, keyword names)} over every call.

    Calls are matched by the called name, `import ... as` aliases resolved.
    A call with *args passes every position, one with **kwargs every
    keyword (recorded as the name None).
    """
    passed = {}
    for source in sources:
        tree = ast.parse(source)
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                             None)
            if name is None:
                continue
            name = alias.get(name, name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            most, keywords = passed.get(name, (0, set()))
            passed[name] = (max(most, count),
                            keywords | {k.arg for k in node.keywords})
    return passed


def options_without_a_caller(sources, calling_sources):
    """module.function(parameter) of every defaulted parameter of sources
    ({module name: source}) that no call in calling_sources passes, by
    keyword or at its position."""
    passed = passed_arguments(calling_sources)
    unused = []
    for module, source in sources.items():
        for qual, callee, param, position in defaulted_parameters(source,
                                                                  module):
            most, keywords = passed.get(callee, (0, set()))
            if (qual in ENTRY_POINTS or param in keywords or None in keywords
                    or (position is not None and most > position)):
                continue
            unused.append(f"{qual}({param})")
    return unused


def test_detects_an_option_without_a_caller():
    library = (
        "class Err(Exception):\n"
        "    def __init__(self, message, found=None):\n"
        "        self.found = found\n"
        "    def __eq__(self, other, strict=True):\n"
        "        return strict\n"
        "class Solver:\n"
        "    def solve(self, x, tol=1e-8, steps=10, *, verbose=False):\n"
        "        return x\n"
        "def run(u, dt=None, every=50):\n"
        "    return u\n"
    )
    caller = (
        "from lib import run as run_pde\n"
        "Err('no', found=2)\n"
        "Solver().solve(1.0, 1e-6)\n"
        "run_pde(0.0, every=5)\n"
    )
    assert options_without_a_caller({"lib": library}, [library, caller]) == [
        "lib.Solver.solve(steps)", "lib.Solver.solve(verbose)", "lib.run(dt)",
    ]


def test_no_option_without_a_caller():
    sources = {p.stem: p.read_text() for p in ALL_SOURCES}
    # an allow-listed option that the program passes is listed no longer
    assert sorted(options_without_a_caller(sources, sources.values())) == (
        sorted(TEST_OPTIONS))


def config_defaults_repeated(source, module, config_fields):
    """module.function(parameter) of every defaulted parameter named like
    one of config_fields."""
    return [f"{qual}({param})" for qual, _, param, _ in
            defaulted_parameters(source, module) if param in config_fields]


def test_detects_a_repeated_config_default():
    library = (
        "class Manifold:\n"
        "    def sample(self, count, seed=0, shuffle=True):\n"
        "        return count\n"
        "def run(u, t_final, dt_max=0.02, *, output_every=50, every=5):\n"
        "    return u\n"
    )
    assert config_defaults_repeated(
        library, "lib", {"seed", "dt_max", "output_every", "t_final"}) == [
        "lib.Manifold.sample(seed)", "lib.run(dt_max)", "lib.run(output_every)",
    ]


def test_no_library_default_repeats_a_config_default():
    """The config owns its defaults: every run passes them, so a library
    default of the same name is never used and drifts from the config's."""
    names = {f.name for f in fields(ExperimentConfig)}
    assert [found for p in ALL_SOURCES for found in config_defaults_repeated(
        p.read_text(), p.stem, names)] == []


def unread_parameters(source):
    """name(parameter) of every parameter that its function never reads;
    self, cls and names starting with an underscore are exempt. A read in a
    nested function counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread.extend(f"{node.name}({p.arg})" for p in params
                      if p.arg not in read and p.arg not in ("self", "cls")
                      and not p.arg.startswith("_"))
    return unread


def test_detects_an_unread_parameter():
    source = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def g(e):\n        return b\n"
        "    b = a\n    return g\n"
        "class C:\n    def m(self, x, y):\n        y = 2\n        return y\n"
        "    @classmethod\n    def k(cls):\n        return 0\n"
    )
    assert unread_parameters(source) == [
        "f(d)", "f(args)", "f(kw)", "g(e)", "m(x)",
    ]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    assert unread_parameters(path.read_text()) == []


def unseeded_solver_calls(source):
    """(line, name) of every eigsh or lobpcg call without its start keyword."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        start = SEEDED_SOLVERS.get(name)
        if start and start not in {k.arg for k in node.keywords}:
            calls.append((node.lineno, name))
    return calls


def test_detects_an_unseeded_solver_call():
    source = (
        "from scipy.sparse import linalg\n"
        "from scipy.sparse.linalg import eigsh, lobpcg\n"
        "eigsh(a, 3, v0=v)\nlinalg.eigsh(a, 3, sigma=0.0)\n"
        "lobpcg(a, x)\nlinalg.lobpcg(a, X=x)\n"
    )
    assert unseeded_solver_calls(source) == [(4, "eigsh"), (5, "lobpcg")]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_unseeded_solver_call(path):
    assert unseeded_solver_calls(path.read_text()) == []


def dense_eigensolve_calls(source, module):
    """(line, name, caller) of every call of a dense eigensolver or SVD;
    caller is the qualified name of the innermost enclosing function, or
    module at module level."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    getattr(func, "id", None))
                if name in DENSE_EIGENSOLVERS:
                    calls.append((child.lineno, name, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(source), module)
    return calls


def test_detects_a_dense_eigensolve():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import eigh, null_space\n"
        "class Solver:\n"
        "    def ritz(self, h):\n        return np.linalg.eigh(h)\n"
        "    def full(self, a):\n        return eigh(a, eigvals_only=True)\n"
        "def spectrum(a):\n"
        "    def inner(b):\n        return np.linalg.svd(b)\n"
        "    return inner(a), null_space(a)\n"
        "EIGS = np.linalg.eigvalsh(np.eye(2))\n"
    )
    assert dense_eigensolve_calls(source, "lib") == [
        (5, "eigh", "lib.Solver.ritz"), (7, "eigh", "lib.Solver.full"),
        (10, "svd", "lib.spectrum.inner"), (11, "null_space", "lib.spectrum"),
        (12, "eigvalsh", "lib"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dense_eigensolves_only_where_allowed(path):
    calls = dense_eigensolve_calls(path.read_text(), path.stem)
    assert [c for c in calls if c[2] not in DENSE_EIGENSOLVE_ALLOWED] == []


def imported_modules(source):
    """Top-level names of the modules that source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_detects_a_csv_import():
    assert "csv" in imported_modules("import os, csv as table\n")
    assert "csv" in imported_modules("def f():\n    from csv import writer\n")
    assert "csv" not in imported_modules("from .csvfile import rows\n"
                                         "import json\n")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_harness_imports_csv(path):
    if path.stem not in IMPORT_OWNERS["csv"]:
        assert "csv" not in imported_modules(path.read_text())


def test_detects_a_json_or_hashlib_import():
    source = "import json as js\nfrom hashlib import sha256\nimport jsonlib\n"
    assert imported_modules(source) & IMPORT_OWNERS.keys() == {"json",
                                                                "hashlib"}


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_json_and_hashlib_only_where_owned(path):
    imported = imported_modules(path.read_text())
    for name in ("json", "hashlib"):
        if name in imported:
            assert path.stem in IMPORT_OWNERS[name], name


def fft_uses(source):
    """Lines that import scipy.fft or numpy.fft (or fftpack), or reach either
    as an attribute of an imported numpy or scipy."""
    fft = ("fft", "fftpack")
    tree = ast.parse(source)
    roots, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] in ("numpy", "scipy"):
                    roots.add(alias.asname or parts[0])
                    if parts[1:2] and parts[1] in fft:
                        lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = node.module.split(".")
            if parts[0] in ("numpy", "scipy") and (
                    parts[1:2] and parts[1] in fft
                    or any(a.name in fft for a in node.names)):
                lines.append(node.lineno)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in fft
                and isinstance(node.value, ast.Name)
                and node.value.id in roots):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_detects_an_fft_import():
    source = ("import numpy as np\nfrom scipy.fft import dct\n"
              "from scipy import fftpack, linalg\nimport numpy.fft\n"
              "x = np.fft.rfft(np.ones(4))\nfrom .fftlike import f\n"
              "from scipy.linalg import eigh\nself.fft = linalg\n")
    assert fft_uses(source) == [2, 3, 4, 5]


def test_only_core_imports_scipy_fft():
    """The cosine transforms and their normalization are written once, in
    core: every other module differentiates and synthesizes through it."""
    uses = {p.stem: fft_uses(p.read_text()) for p in ALL_SOURCES}
    assert {stem: lines for stem, lines in uses.items()
            if lines and stem != "core"} == {}


def open_calls(source):
    """(line, name) of every call that opens a file: `open`, as a builtin
    or a method, and the `Path` readers and writers."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in OPEN_CALLS:
                calls.append((node.lineno, name))
    return sorted(calls)


def test_detects_an_open_call():
    source = (
        "import gzip\nfrom pathlib import Path\n"
        "with open('a') as fh:\n    fh.read()\n"
        "gzip.open('b')\nPath('c').write_text('x')\n"
        "_read_bytes('d')\nreopen('e')\n"
    )
    assert open_calls(source) == [(3, "open"), (5, "open"),
                                  (6, "write_text")]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_harness_opens_files(path):
    if path.stem not in FILE_OPENERS:
        assert open_calls(path.read_text()) == []


def per_translate_calls(source):
    """(line, name) of every translate-evaluator call inside a for loop or a
    comprehension whose iterable reads `positions`."""
    calls = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For):
            iterables, body = [node.iter], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            iterables = [gen.iter for gen in node.generators]
            body = [node.key, node.value] if isinstance(
                node, ast.DictComp) else [node.elt]
            body += [cond for gen in node.generators for cond in gen.ifs]
        else:
            continue
        if not any(getattr(sub, "id", getattr(sub, "attr", None)) == "positions"
                   for it in iterables for sub in ast.walk(it)):
            continue
        for part in body:
            for sub in ast.walk(part):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = func.attr if isinstance(func, ast.Attribute) else (
                        getattr(func, "id", None))
                    if name in TRANSLATE_EVALUATORS:
                        calls.add((sub.lineno, name))
    return sorted(calls)


def test_detects_a_per_translate_evaluation():
    source = (
        "def stacks(pulse, bg, cfg, x, positions, others):\n"
        "    total = 0\n"
        "    for p in cfg.positions:\n"
        "        total += pulse.pulse_jet(x - p, 3)\n"
        "    rows = [pulse.pulse_bar(x - p) for p in positions]\n"
        "    for i, p in enumerate(cfg.positions):\n"
        "        rows.append(bg.lattice_jet(None, x, p, 0))\n"
        "    keep = {p: 1 for p in positions if pulse_bar_deriv(x, p)}\n"
        "    batch = pulse.pulse_jet(x[None] - positions[:, None], 3)\n"
        "    for p in others:\n"
        "        total += pulse.pulse_bar(x - p)\n"
        "    for row in pulse.pulse_bar(x[None] - positions[:, None]):\n"
        "        total += row\n"
        "    return total, rows, keep, batch\n"
    )
    assert per_translate_calls(source) == [
        (4, "pulse_jet"), (5, "pulse_bar"), (7, "lattice_jet"),
        (8, "pulse_bar_deriv"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_translates_evaluated_in_one_batch(path):
    calls = per_translate_calls(path.read_text())
    assert [c for c in calls if c[1] not in PER_TRANSLATE_ALLOWED] == []


def evaluator_calls(source):
    """(function, line) of every translate-evaluator call, function the
    qualified name of the innermost class or def around it ('' at module
    level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    getattr(func, "id", None))
                if name in TRANSLATE_EVALUATORS:
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_detects_an_evaluator_outside_the_kernel():
    source = (
        "class M:\n"
        "    def _translates(self, x):\n"
        "        return self.pulse.pulse_jet(x, 3)\n"
        "    def build(self, x):\n"
        "        return self.pulse.pulse_bar(x)\n"
        "def helper(bg, x):\n"
        "    return [bg.lattice_jet(None, x, p, 0) for p in x]\n"
        "ROWS = pulse_bar_deriv(0.0, 1)\n"
    )
    assert evaluator_calls(source) == [
        ("M._translates", 3), ("M.build", 5), ("helper", 7), ("", 8),
    ]


def test_manifold_evaluates_translates_only_in_its_kernel():
    path = Path(fchpulse.__file__).parent / "ansatz.py"
    callers = {scope for scope, _ in evaluator_calls(path.read_text())}
    assert callers == {TRANSLATE_KERNEL}


def lifecycle_steps(source):
    """(function, line, step) of every lifecycle step: a call of a name in
    LIFECYCLE_CALLS, or a call that passes a name in LIFECYCLE_FILES. function
    is the qualified name of the innermost class or def around it ('' at
    module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    getattr(func, "id", None))
                if name in LIFECYCLE_CALLS:
                    found.append((scope, child.lineno, name))
                found.extend(
                    (scope, child.lineno, arg.value)
                    for arg in [*child.args, *(k.value for k in child.keywords)]
                    if isinstance(arg, ast.Constant)
                    and arg.value in LIFECYCLE_FILES)
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_detects_a_lifecycle_step_outside_its_owner():
    source = (
        "def _start(config, out):\n"
        "    manifest = RunManifest(out=out)\n"
        "    _write_json(manifest, 'config.json', config.as_dict())\n"
        "    return manifest\n"
        "def experiment_profile(config, manifest):\n"
        "    lab = harness.Laboratory.from_config(config)\n"
        "    _write_csv(manifest, 'config.csv', [], [])\n"
        "    _write_json(manifest, name='manifest.json', doc={})\n"
        "    return lab\n"
        "def run_experiment(config):\n"
        "    return RunManifest(out=config.output_dir)\n"
    )
    assert lifecycle_steps(source) == [
        ("_start", 2, "RunManifest"), ("_start", 3, "config.json"),
        ("experiment_profile", 6, "from_config"),
        ("experiment_profile", 8, "manifest.json"),
        ("run_experiment", 11, "RunManifest"),
    ]


def test_only_run_experiment_runs_the_lifecycle():
    path = Path(fchpulse.__file__).parent / "harness.py"
    steps = lifecycle_steps(path.read_text())
    assert {step for _, _, step in steps} == LIFECYCLE_CALLS | LIFECYCLE_FILES
    assert {scope for scope, _, _ in steps} == {LIFECYCLE_OWNER}


def uncalled_definitions(sources, referencing):
    """module[.Class].name of every function, method and property of sources
    ({module name: source}) whose name no name or attribute in referencing
    reads. Dunder methods are exempt: operators and the runtime call them."""
    named = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if name not in named and not (name.startswith("__")
                                              and name.endswith("__")):
                    found.append(f"{prefix}.{name}")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_detects_an_uncalled_definition():
    library = (
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def grow(self):\n        return self.size\n"
        "def build():\n"
        "    def helper():\n        return 2\n"
        "    def spare():\n        return 3\n"
        "    return Box(), helper()\n"
        "def unused():\n    return build\n"
    )
    caller = "from lib import build\nbuild()[0].grow()\n"
    assert uncalled_definitions({"lib": library}, [library, caller]) == [
        "lib.build.spare", "lib.unused",
    ]


def test_no_uncalled_definition():
    sources = {p.stem: p.read_text() for p in ALL_SOURCES}
    referencing = [*sources.values(), *(p.read_text() for p in TEST_SOURCES)]
    assert uncalled_definitions(sources, referencing) == []


def unread_fields(sources, reading):
    """module.Class.field of every field of a dataclass of sources ({module
    name: source}) that no attribute read in reading names, nor any string
    constant there (a `getattr` key). Classes in SERIALIZED_WHOLE are
    exempt: `asdict` reads each of their fields."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (not isinstance(node, ast.ClassDef)
                    or node.name in SERIALIZED_WHOLE
                    or not any(_is_dataclass(d) for d in node.decorator_list)):
                continue
            found.extend(
                f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id not in read)
    return found


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == (
        "dataclass")


def test_detects_an_unread_field():
    library = (
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    value: float\n    spare: float\n    named: int = 0\n"
        "    written: int = 0\n"
        "@dataclasses.dataclass\nclass Record:\n    stored: float\n"
        "@dataclass\nclass RunManifest:\n    files: list\n"
        "class Plain:\n    hint: int\n"
        "def build():\n"
        "    r = Report(value=1.0, spare=2.0)\n    r.written = 1\n"
        "    return r.value, getattr(r, 'named')\n"
    )
    assert unread_fields({"lib": library}, [library]) == [
        "lib.Report.spare", "lib.Report.written", "lib.Record.stored",
    ]


def test_no_unread_field():
    sources = {p.stem: p.read_text() for p in ALL_SOURCES}
    reading = [*sources.values(), *(p.read_text() for p in TEST_SOURCES)]
    assert unread_fields(sources, reading) == []
