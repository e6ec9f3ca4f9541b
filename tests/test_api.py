"""The declared API is ``qndsim.__all__``, and every public function, class
and method of the package has a caller in the package itself, and every
public dataclass field has a reader.

``__init__.py`` re-exports exactly the declared names, and each resolves.
Everything else is internal and does not check its arguments again, so the
boundary's bounds must imply the contracts behind it: the contract tests
below follow a bound from the boundary to the draw that relies on it.

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
import inspect
import pathlib

import numpy as np
import pytest

import qndsim
from qndsim import circuits as circ
from qndsim import harness

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


DECLARED = [
    # the runs
    "SweepConfig", "NoiseModel", "run_sweep", "fixed_state_config", "repeat_fixed_state",
    "run_criteria_protocol", "compute_fits", "emit",
    # their results
    "SweepRecord", "BranchResult", "FitResult",
    # the gate-table readers
    "OBSERVABLES", "observable_row", "setting_for", "MeasurementSetting", "PrepParams",
    "bell_coefficients", "prep_circuit", "measurement_circuit", "visibility_identity_check",
]


def test_all_is_the_declared_api():
    assert qndsim.__all__ == DECLARED


def test_every_declared_name_resolves():
    namespace = {}
    exec("from qndsim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(DECLARED)


def test_init_binds_no_other_public_name():
    # what the file binds, and what the package holds once imported: the
    # submodules are bound by the import system, not by __init__.py
    tree = _parse(PACKAGE / "__init__.py")
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    assert {n for n in bound if not n.startswith("_")} == set(DECLARED)
    held = {n for n, v in vars(qndsim).items() if not n.startswith("_")
            and not inspect.ismodule(v)}
    assert held == set(DECLARED)


def test_the_largest_point_index_reaches_the_draws_as_its_own_word():
    # a config admits phi_count and repetitions up to MAX_POINTS, so point
    # indices up to MAX_POINTS - 1: each stage's path for it holds the same
    # 32-bit word when the draw reads it, the range the seed paths take
    last = harness.MAX_POINTS - 1
    assert harness.SweepConfig("VA", phi_count=harness.MAX_POINTS).phi_count - 1 == last
    with pytest.raises(ValueError, match=r"^phi_count must be at most 2\*\*32"):
        harness.SweepConfig("VA", phi_count=harness.MAX_POINTS + 1)
    for stage in (0, 1, 2):
        paths = harness._block_paths(stage, (0, last))
        assert circ._seed_words(paths, 2).tolist() == [[stage, 0], [stage, last]]
    assert last == 2**32 - 1


def test_the_sampled_shot_bound_is_the_draws_bound():
    assert harness.SweepConfig("VA", shots=circ.MAX_SHOTS).shots == circ.MAX_SHOTS
    with pytest.raises(ValueError, match=r"^shots must be at most 2\*\*63 - 1"):
        harness.SweepConfig("VA", shots=circ.MAX_SHOTS + 1)
    # the largest count one draw takes: numpy's multinomial counts in int64
    counts = circ.sample_batch(np.full((1, 2), 0.5), circ.MAX_SHOTS, 0, np.zeros((1, 0), int))
    assert counts.sum() == circ.MAX_SHOTS
