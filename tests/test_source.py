"""Static checks on the package source that need no linter."""

import ast
import builtins
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordembed

MODULES = sorted(Path(ordembed.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# Every file that may name a definition of the package.
REFERRERS = sorted(p for d in ("src", "tests", "tools", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in the order they are imported.

    A name counts as read when it appears as a name anywhere in the module,
    in a string annotation, or in `__all__`.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for ann in annotations:
            for c in ast.walk(ann) if ann is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Sequence\n"
        "from .linalg import MatQ, Subspace as S, rref\n"
        "def f(x: 'Sequence[MatQ]') -> S:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["os", "rref"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def undefined_names(source: str) -> list[str]:
    """Names a module reads and never binds, builtins aside, sorted.

    A name counts as bound when anything in the module binds it: an
    assignment target (loops, comprehensions, `with ... as` and `:=`
    included), a `def` or `class`, an argument, an import or an
    `except ... as`. Scopes are not told apart, so the scan finds a name
    that is bound nowhere, such as a helper whose import was dropped.
    """
    bound = set(dir(builtins)) | {"__file__"}
    read = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.append(node.id)
        elif isinstance(node, ast.Name):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return sorted({name for name in read if name not in bound})


def test_the_scan_finds_an_undefined_name():
    source = (
        "import os.path\n"
        "from .linalg import MatQ as M, rref\n"
        "def f(x, *args, k=1, **kw):\n"
        "    y = [z for z in args if (w := z)]\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        raise exc\n"
        "    with open(x) as fh:\n"
        "        pass\n"
        "    for a, (b, c) in kw.items():\n"
        "        pass\n"
        "    return M, os, rref(y), w, k, fh, a, b, c, mat_vec_of(x), len(x)\n"
        "class C:\n"
        "    pass\n"
        "print(C, f, __file__, missing, mat_vec_of)\n"
    )
    assert undefined_names(source) == ["mat_vec_of", "missing"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_binds_every_name_it_reads(path):
    assert undefined_names(path.read_text()) == []


def unreferenced_definitions(defining: list[str], referring: list[str]) -> list[str]:
    """Functions, methods and classes defined in `defining` that no source names.

    A definition counts as named when its name appears as a name, an
    attribute or an import alias in any of the `referring` sources. Dunder
    names are exempt: the language calls them.
    """
    named = set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named |= {node.name.split(".")[-1], node.asname}
    defined = []
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in named:
                    defined.append(name)
    return defined


def test_the_scan_finds_an_unreferenced_definition():
    package = (
        "class A:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): return helper()\n"
        "    def unused(self): return 1\n"
        "def helper(): return 2\n"
        "def imported(): return 3\n"
    )
    caller = "from m import imported\nA().used()\n"
    assert unreferenced_definitions([package], [package, caller]) == ["unused"]


def test_every_definition_is_named_somewhere():
    referring = [p.read_text() for p in REFERRERS]
    assert unreferenced_definitions([p.read_text() for p in MODULES], referring) == []


def assert_lines(source: str) -> list[int]:
    """The line of each `assert` statement, which `python -O` removes."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_scan_finds_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'kept'\n") == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_checks_with_raises_not_asserts(path):
    # A check that `python -O` removes would let a broken certificate pass.
    assert assert_lines(path.read_text()) == []


def test_every_traced_target_resolves():
    # `Tracer.install` looks each target up by its string: a module
    # attribute, or a function or staticmethod in its class's __dict__. A
    # renamed target would break `perfbench/run.py --trace 1` and no other test.
    # perfbench is not a package, so layers.py is imported by path.
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for target in layers.TARGETS:
        mod_name, _, qual = target.partition(".")
        module = importlib.import_module(f"ordembed.{mod_name}")
        owner, _, attr = qual.rpartition(".")
        if owner:
            raw = vars(getattr(module, owner)).get(attr)
            assert inspect.isfunction(raw) or isinstance(raw, staticmethod), target
        else:
            assert callable(getattr(module, attr, None)), target


def test_the_command_line_loads_only_the_standard_library_and_the_package():
    # Every run starts by importing the front end, and no byte code is kept
    # between runs when PYTHONDONTWRITEBYTECODE is set; so each module it
    # loads is compiled on every start. The sample constructions are for
    # tests and the benchmark only.
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import ordembed.cli\n"
             "print(*sorted(set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "ordembed.cli" in loaded
    foreign = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names | {"ordembed"}]
    assert foreign == []
    assert "ordembed.samples" not in loaded
