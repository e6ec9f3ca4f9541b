"""Every public function, class and method of the package has a caller in
the package itself.

A public name that only the tests reach is an API without a caller: it is
either dead code or a test oracle, which belongs in ``tests/helpers.py``.
The scan is syntactic. A name counts as called when some module other than
``__init__.py`` mentions it as a bare name or as an attribute; an import or
a re-export alone does not count.
"""

import ast
import pathlib

import qndsim

PACKAGE = pathlib.Path(qndsim.__file__).parent


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function and
    class, and of each public method of those classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*(_referenced_names(tree) for path, tree in modules.items()
                               if path.name != "__init__.py"))
    uncalled = [f"{path.stem}.{qualified}" for path, tree in modules.items()
                for qualified, name in _public_definitions(tree) if name not in referenced]
    assert not uncalled, f"public names with no caller in the package: {', '.join(uncalled)}"
