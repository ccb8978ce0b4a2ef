"""No module of the package or the tests imports a name it never uses."""

import ast
from pathlib import Path

import pytest

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
