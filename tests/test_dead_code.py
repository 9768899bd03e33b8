"""Nothing in the package is dead weight.

Four scans over ``src/bchyper`` with ``ast``:

- every module uses each name it imports (``__init__`` re-exports, so
  it is exempt);
- every function, method, class and module constant is named somewhere
  in ``src``, ``tests`` or ``perfbench`` outside its own definition;
- every module-level function, class and constant that ``__init__``
  does not export is named somewhere in ``src`` outside its own
  definition, so no code lives in the package only for the tests
  (``TEST_ONLY`` lists the exceptions, each with its reason, and no
  more);
- ``kernels.series_sum`` is named only inside ``hyper.component_series``,
  the one gated sum, and ``kernels.series_sum_terminating``, so no
  other code sums a series without the gate and the cap check.

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


def _definitions(tree: ast.Module, nested: bool = True):
    """(name, first line, last line) of every function, class and module
    constant, and with `nested` of every method and inner function."""
    for node in ast.walk(tree) if nested else tree.body:
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


def _unnamed(folders, nested: bool, exempt=frozenset()):
    """"module:line name" of every definition in the package (see
    ``_definitions``) that no file under `folders` names outside the
    definition itself; dunder names and `exempt` are skipped."""
    uses = defaultdict(list)  # name -> [(path, line)]
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in _uses(_parse(path)):
                uses[name].append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(_parse(path), nested):
            if (name.startswith("__") and name.endswith("__")) or name in exempt:
                continue
            if all(p == path and first <= line <= last for p, line in uses[name]):
                dead.append(f"{path.name}:{first} {name}")
    return dead


def test_every_definition_is_named_elsewhere():
    dead = _unnamed(("src", "tests", "perfbench"), nested=True)
    assert not dead, f"defined but never named elsewhere: {dead}"


# Module-level names the package itself never uses, each with its reason.
TEST_ONLY = {
    "series_sum_many": "traced or read by perfbench; goes with ROADMAP item 11",
    "series_sum_terminating": "traced or read by perfbench; goes with ROADMAP item 11",
    "USE_NUMBA": "traced or read by perfbench; goes with ROADMAP item 11",
}


def test_package_runs_every_unexported_definition():
    # what the package neither exports nor uses is there only for the
    # tests or the benchmark; an exception that the package comes to
    # use, or that is deleted, leaves TEST_ONLY too
    tree = _parse(PACKAGE / "__init__.py")
    exported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = _unnamed(("src",), nested=False, exempt=exported)
    assert {entry.split()[-1] for entry in dead} == TEST_ONLY.keys(), (
        f"neither exported nor used in the package: {dead}; allowed: {sorted(TEST_ONLY)}"
    )


# (module, function) pairs allowed to name kernels.series_sum
SUM_CALLERS = {("hyper.py", "component_series"), ("kernels.py", "series_sum_terminating")}


def _enclosing(tree: ast.Module):
    """(node, name of its outermost enclosing function or None)."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield child, inner
            yield from visit(child, inner)

    yield from visit(tree, None)


def test_only_the_gated_sum_calls_series_sum():
    # a name, an attribute or an import of series_sum (an import under
    # another name is caught at the import)
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, owner in _enclosing(_parse(path)):
            if (
                (isinstance(node, ast.Name) and node.id == "series_sum")
                or (isinstance(node, ast.Attribute) and node.attr == "series_sum")
                or (isinstance(node, ast.alias) and node.name == "series_sum")
            ):
                found.add((path.name, owner))
    assert found == SUM_CALLERS, f"kernels.series_sum named in {sorted(found, key=str)}"
