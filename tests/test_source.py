"""Guards on the source of the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinberry"


def _private_definitions(tree):
    """(name, statement) of each module-level private function, class or
    assignment (dunder names aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_is_used_by_the_package():
    # a module-level private name that no code of the package reads outside
    # its own definition is dead (names in docstrings and comments do not
    # count; uses by the tests alone do not either)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    readers: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, []).append(id(node))
    dead = []
    for filename, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if all(reader in own for reader in readers.get(name, [])):
                dead.append(f"{filename}: {name}")
    assert len(trees) > 5 and not dead, dead
