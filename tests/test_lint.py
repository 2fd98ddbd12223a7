"""Lint: no module imports a name it never uses.

A stdlib ``ast`` pass over ``src/repro``, ``tests`` and ``benchmarks``.  A
package ``__init__`` imports to re-export, and an import marked
``# noqa: F401`` is kept for its side effect; neither is flagged.  A name
counts as used when the module loads it anywhere, names it in ``__all__``, or
names it in a string annotation.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src/repro", "tests", "benchmarks")


def _sources() -> Iterator[Path]:
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _imported(tree: ast.Module, lines: List[str]) -> Iterator[tuple]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            yield node.lineno, name


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                                if isinstance(n, ast.Name))
                except SyntaxError:
                    pass
    return used


def unused_imports() -> List[str]:
    hits = []
    for path in _sources():
        text = path.read_text()
        tree = ast.parse(text)
        used = _used(tree)
        for lineno, name in _imported(tree, text.splitlines()):
            if name not in used:
                hits.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    return hits


def test_no_unused_imports():
    hits = unused_imports()
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_the_lint_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom typing import List\nx: 'List[int]' = sys.argv\n")
    used = _used(tree)
    imported = [name for _, name in _imported(tree, ["", "", "", ""])]
    assert [name for name in imported if name not in used] == ["os"]
