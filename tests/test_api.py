"""Every public function, class and method of the package has a caller in
the package itself, and every public dataclass field has a reader.

A public name that only the tests reach is an API without a caller: it is
either dead code or a test oracle, which belongs in ``tests/helpers.py``.
The scan is syntactic. A name counts as called when some module other than
``__init__.py`` mentions it as a bare name or as an attribute; an import or
a re-export alone does not count.

A field of a public dataclass counts as read when some module other than
``__init__.py``, or a script of the benchmark (``perfbench/*.py``; its
frozen ``baseline/`` copy of an older package does not count), names it as
an attribute. Setting it by keyword at construction is no read.
"""

import ast
import pathlib

import qndsim

PACKAGE = pathlib.Path(qndsim.__file__).parent
BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _public_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(Class.field, field) of each public field of each public dataclass."""
    return [
        (f"{node.name}.{item.target.id}", item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
        and not any(kind in ast.unparse(item.annotation) for kind in ("ClassVar", "InitVar"))
    ]


def _attribute_names(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*(_referenced_names(tree) for path, tree in modules.items()
                               if path.name != "__init__.py"))
    uncalled = [f"{path.stem}.{qualified}" for path, tree in modules.items()
                for qualified, name in _public_definitions(tree) if name not in referenced]
    assert not uncalled, f"public names with no caller in the package: {', '.join(uncalled)}"


def test_every_public_dataclass_field_is_read():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [tree for path, tree in modules.items() if path.name != "__init__.py"]
    assert BENCHMARK.is_dir(), f"no benchmark scripts at {BENCHMARK}"
    readers += [_parse(path) for path in sorted(BENCHMARK.glob("*.py"))]
    read = set().union(*map(_attribute_names, readers))
    unread = [f"{path.stem}.{qualified}" for path, tree in modules.items()
              for qualified, name in _public_fields(tree) if name not in read]
    assert not unread, f"public dataclass fields nobody reads: {', '.join(unread)}"
