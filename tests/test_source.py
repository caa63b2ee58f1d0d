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


# Calls that would put lazy work (eigensolves, parsers, spin matrices) into
# ``import spinberry.cli``: by their dotted name's head or by their name.
_LAZY_HEADS = ("np.linalg.", "numpy.linalg.", "argparse.")
_LAZY_NAMES = {"build_parser", "_parser", "spin_matrices"}


def _import_time_calls(tree):
    """Dotted names of the lazy calls that a module makes when imported: in
    its module-level statements and class bodies, and in the decorators and
    default values of its functions, but not in function bodies."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += [d for d in node.args.defaults + node.args.kw_defaults if d]
            todo += getattr(node, "decorator_list", [])
            continue
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.startswith(_LAZY_HEADS) or name.split(".")[-1] in _LAZY_NAMES:
                found.append(name)
        todo += ast.iter_child_nodes(node)
    return found


def test_the_guard_sees_import_time_calls():
    source = ("import numpy as np\n"
              "W = np.linalg.eigh(A)\n"
              "class C:\n    P = argparse.ArgumentParser()\n"
              "@cli.build_parser()\n"
              "def f(x=spin_matrices(2)):\n    return np.linalg.eigh(x), _parser()\n")
    assert sorted(_import_time_calls(ast.parse(source))) == [
        "argparse.ArgumentParser", "cli.build_parser", "np.linalg.eigh", "spin_matrices"]


def test_no_module_does_lazy_work_on_import():
    # eigensolves, argument parsers and spin matrices are built on demand:
    # importing spinberry.cli costs each CLI call none of them
    found = {path.name: _import_time_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5 and not any(found.values()), found
