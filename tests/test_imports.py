"""No module of the package or the tests imports a name it never uses, no
private module-level name of the package goes unread, and the top level
exports only what the CLI or the README uses."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import nssfp
from nssfp.errors import NssfpError

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports only to re-export; perfbench's tracer rebinds
# matcher.simulate_trace and its smoke test checks that it does
FILES = sorted([p for p in (ROOT / "src" / "nssfp").glob("*.py") if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")), key=lambda p: p.name)
KEPT = {("matcher.py", "simulate_trace")}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name an import binds and no later code reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a"
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names that quoted annotations refer to
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used and name != "*"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [(line, name) for line, name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.name, name) not in KEPT]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("import numpy as np\nx = 1\n", [(1, "np")]),
    ("from a import b, c\nb()\n", [(1, "c")]),
    ("from a import B\ndef f() -> 'B': pass\n", []),
    ("from __future__ import annotations\n", []),
])
def test_unused_imports_finds_each_unread_name(source, unused):
    assert unused_imports(source) == unused


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` of each ``_``-prefixed module-level function, class
    or constant of ``sources`` (file name to text) that none of them reads."""
    defined, read = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(file, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):  # module._name
                read.add(node.attr)
    return [entry for entry in defined if entry[2] not in read]


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "nssfp").glob("*.py"))}
    assert not unread_private_names(sources)


@pytest.mark.parametrize("sources, unread", [
    ({"a.py": "def _f(): pass\n"}, [("a.py", 1, "_f")]),
    ({"a.py": "def _f(): pass\n_f()\n"}, []),
    ({"a.py": "_X = 1\nclass _C: pass\n_Y: int = 2\n"},
     [("a.py", 1, "_X"), ("a.py", 2, "_C"), ("a.py", 3, "_Y")]),
    ({"a.py": "_X, _Y = 1, 2\nprint(_Y)\n"}, [("a.py", 1, "_X")]),
    ({"a.py": "_X = 1\n", "b.py": "from .a import _X\nprint(_X)\n"}, []),
    ({"a.py": "_X = 1\n", "b.py": "from . import a\nprint(a._X)\n"}, []),
    ({"a.py": "_X = 1\n", "b.py": "def f():\n    _X = 2\n"}, [("a.py", 1, "_X")]),
    ({"a.py": "__all__ = []\ndef f():\n    _x = 1\n"}, []),
])
def test_unread_private_names_finds_each_orphan(sources, unread):
    assert unread_private_names(sources) == unread


def unserved_exports(exports: dict[str, object], cli_source: str, readme: str) -> list[str]:
    """The functions and classes of ``exports`` (name to object) that ``cli_source``
    never reads and ``readme`` never names; error classes are exempt."""
    tree = ast.parse(cli_source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named = set(re.findall(r"\w+", readme))
    return sorted(name for name, obj in exports.items()
                  if (inspect.isfunction(obj) or inspect.isclass(obj))
                  and not (inspect.isclass(obj) and issubclass(obj, NssfpError))
                  and name not in read | named)


def test_every_top_level_export_serves_the_cli_or_the_readme():
    # a name that only tests use belongs in its module, not at the top level
    exports = {name: obj for name, obj in vars(nssfp).items() if not name.startswith("_")}
    assert not unserved_exports(exports, (ROOT / "src" / "nssfp" / "cli.py").read_text(),
                                (ROOT / "README.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("exports, unserved", [
    ({"run": lambda: 0, "Shown": type("Shown", (), {})}, []),
    ({"hidden": lambda: 0, "Hidden": type("Hidden", (), {})}, ["Hidden", "hidden"]),
    ({"Oops": type("Oops", (NssfpError,), {}), "VERSION": "1", "errors": ast}, []),
])
def test_unserved_exports_finds_each_unused_name(exports, unserved):
    assert unserved_exports(exports, "cli.run()\n", "Call `Shown` first.\n") == unserved
