"""Nothing in the package is dead weight.

Two scans over ``src/bchyper`` with ``ast``:

- every module uses each name it imports (``__init__`` re-exports, so
  it is exempt);
- every function, method, class and module constant is named somewhere
  in ``src``, ``tests`` or ``perfbench`` outside its own definition.

A use is a name, an attribute, an imported name, a keyword argument,
or an identifier inside a string that is not a docstring (``perfbench``
names traced functions as "module.function" strings).  Dunder names
are exempt: Python calls them.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bchyper"
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _uses(tree: ast.Module):
    """(name, line) for every use of a name in the module."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            for word in _WORD.findall(node.value):
                yield word, node.lineno


def _definitions(tree: ast.Module):
    """(name, first line, last line) of every function, method, class
    and module constant."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.end_lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, f"imports the module never uses: {unused}"


def test_every_definition_is_named_elsewhere():
    files = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    uses = defaultdict(list)  # name -> [(path, line)]
    trees = {}
    for path in files:
        trees[path] = _parse(path)
        for name, line in _uses(trees[path]):
            uses[name].append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [
                (p, line) for p, line in uses[name] if p != path or not first <= line <= last
            ]
            if not outside:
                dead.append(f"{path.name}:{first} {name}")
    assert not dead, f"defined but never named elsewhere: {dead}"
