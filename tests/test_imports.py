"""No dead imports in the package.

A stdlib-``ast`` scan of every module under ``src/repro`` (package
``__init__.py`` files excepted: they exist to re-export).  A top-level
import is dead when the module never reads the bound name and does not
list it in ``__all__``.  Names read only inside string annotations
(``x: "ArtifactStore | None"``) count as read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every import statement at module top level
    (including inside top-level ``if``/``try`` blocks)."""
    bound: dict[str, int] = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def _read_names(tree: ast.Module) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations: parse and take their names too.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(sub.id for sub in ast.walk(expr)
                        if isinstance(sub, ast.Name))
    return read


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read_names(tree) | _exported(tree)
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in sorted(_bound_names(tree).items(),
                                     key=lambda item: item[1])
            if name not in used]


def test_no_unused_top_level_imports():
    modules = sorted(path for path in SRC.rglob("*.py")
                     if path.name != "__init__.py")
    assert modules
    dead = [entry for path in modules for entry in unused_imports(path)]
    assert dead == [], "unused imports:\n" + "\n".join(dead)
