"""Every public function of qreflect has a caller outside the unit tests.

A public module-level function, or a public method of a public class, in
``src/qreflect`` must be named somewhere on a run path: in a ``src`` module
other than ``__init__.py`` (its own module counts), in the acceptance
criteria, or in ``perfbench/``, where string constants count too because the
tracer binds names such as ``"qsd.NoiseStream.increment_at"``.  Code that only
unit tests call is surface no command, criterion or benchmark needs.
"""

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "qreflect"


def _public_definitions(tree: ast.Module) -> dict[str, str]:
    """{qualified name: name} of the public functions and public classes' methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for node in tree.body:
        if isinstance(node, functions):
            found[node.name] = node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.update((f"{node.name}.{item.name}", item.name)
                         for item in node.body if isinstance(item, functions))
    return {qual: name for qual, name in found.items() if not name.startswith("_")}


def _references(tree: ast.AST, strings: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unreferenced_public_names() -> list[str]:
    """Sorted ``module.name`` of every public function or method with no caller."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(_PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = set()
    for tree in trees.values():
        used |= _references(tree)
    used |= _references(ast.parse((_ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((_ROOT / "perfbench").glob("*.py")):
        used |= _references(ast.parse(path.read_text(), str(path)), strings=True)
    return sorted(f"{module}.{qual}" for module, tree in trees.items()
                  for qual, name in _public_definitions(tree).items() if name not in used)


def test_every_public_function_has_a_run_path_caller():
    dead = unreferenced_public_names()
    assert not dead, f"{len(dead)} public names only unit tests reach: {', '.join(dead)}"
