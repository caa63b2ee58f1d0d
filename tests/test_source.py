"""Guards on the source of the package itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinberry"


def _trees(*directories):
    """Path from the repository root -> syntax tree of each ``.py`` file in
    the directories and their subdirectories."""
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
            for directory in directories for path in sorted(directory.rglob("*.py"))}


def _readers(trees):
    """Name -> the ids of the nodes that read it in ``trees``: loaded names,
    and attributes by their last part."""
    readers: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, []).append(id(node))
    return readers


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
    trees = _trees(SRC)
    readers = _readers(trees)
    dead = []
    for filename, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if all(reader in own for reader in readers.get(name, [])):
                dead.append(f"{filename}: {name}")
    assert len(trees) > 5 and not dead, dead


# Public functions and classes that no package code, script or bench reads,
# each with the reason it stays: a library entry point, or a quantity of the
# paper that waits for an output (a CLI column, a script or a results/ file)
# under the ROADMAP item named.  A second path that only the tests read
# belongs in tests/reference.py instead.
_UNREACHED_PUBLIC = {
    "labeled_spectrum": "library entry point: the labelled spectrum at given couplings",
    "run_cycle": "library entry point: one integrated cycle of a schedule",
    "characteristic_polynomial": "ROADMAP item 8: the Berry-phase atlas and separation map",
    "parity_blocks": "ROADMAP item 8: the Berry-phase atlas and separation map",
    "reduced_hamiltonian": "ROADMAP item 8: the Berry-phase atlas and separation map",
    "m_parity": "ROADMAP item 8: the Berry-phase atlas and separation map",
    "perturbative_polarization_m0": "ROADMAP item 8: the integer-spin m = 0 feature",
    "phi_rotation_cycle": "ROADMAP item 8: the phi-turn cycles of the atlas",
    "energy_derivative": "ROADMAP item 9: the magic-coupling claims from exact dynamics",
    "longitudinal_phase": "ROADMAP item 9: the magic-coupling claims from exact dynamics",
    "CoriolisParams": "ROADMAP item 9: the magic-coupling claims from exact dynamics",
    "gauge_invariance_check": "ROADMAP item 10: the S = 1 Berry and Aharonov-Anandan phases",
}


def _unreached_public(trees, outside):
    """Public top-level functions and classes of the package modules
    ``trees`` that no module but ``__init__`` reads outside its own
    definition, and whose name is not in ``outside``."""
    package = {name: tree for name, tree in trees.items()
               if Path(name).name != "__init__.py"}
    readers = _readers(package)
    for tree in package.values():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in outside):
                own = {id(child) for child in ast.walk(node)}
                if all(reader in own for reader in readers.get(node.name, [])):
                    yield node.name


def test_only_dynamics_builds_run_operators():
    # every run's operators come from the one run builder of
    # spinberry.dynamics, so no other module calls _stacked_operators
    callers = {filename for filename, tree in _trees(SRC).items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "_stacked_operators" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers == {"src/spinberry/dynamics.py"}, callers


def test_the_public_guard_sees_names_that_only_tests_read():
    trees = {"a.py": ast.parse("def used():\n    pass\n\n"
                               "def lonely(n):\n    return lonely(n - 1)\n\n"
                               "class Scripted:\n    pass\n"),
             "b.py": ast.parse("from .a import used\nx = used()\n"),
             "__init__.py": ast.parse("from .a import Scripted, lonely, used\n")}
    assert list(_unreached_public(trees, {"Scripted"})) == ["lonely"]


def test_every_public_name_serves_an_output_or_is_listed():
    # a public name that only the tests (or the __init__ exports) read is a
    # second path: it belongs in tests/reference.py, or on the list with its
    # reason; a listed name that is read after all must leave the list
    trees, outside = _trees(SRC), set(_readers(_trees(ROOT / "scripts", ROOT / "bench")))
    unreached = set(_unreached_public(trees, outside))
    assert "main" in outside and len(trees) > 5
    assert unreached == set(_UNREACHED_PUBLIC), {
        "unlisted": sorted(unreached - set(_UNREACHED_PUBLIC)),
        "reached, so to drop from the list": sorted(set(_UNREACHED_PUBLIC) - unreached)}


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
    found = {name: _import_time_calls(tree) for name, tree in _trees(SRC).items()}
    assert len(found) > 5 and not any(found.values()), found
