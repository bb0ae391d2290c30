"""Every name defined in `src/socrm` has a reader in `src/socrm`.

A name is read when it occurs anywhere in the package's code other than its
own definition: as a name, an attribute, an argument, a keyword or an import.
Names are matched by spelling, so a field that shares its name with another
(`domain`, say) passes here whoever reads it.  An exception class is read only
by an `except` clause that names it; raising it is not reading it.
"""

import ast
import collections
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "socrm"

# names no code in the package reads, each kept for a reader outside it
READ_OUTSIDE = {
    "fixed_point_mse_bound",  # perfbench/checks.py bounds every PL event's MSE
    "measure_exec_time",  # acceptance criterion 8
    "spread_us",  # acceptance criterion 8
    "pl_clock_gated",  # acceptance criterion 4
}


def _trees():
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]


def _defined(tree):
    """Classes, functions and assigned names of a module and of its classes."""
    for scope in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                yield node.name
            elif isinstance(node, ast.Assign):
                yield from (t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id


def test_every_name_is_read_in_the_package():
    trees = _trees()
    occurrences = collections.Counter(
        value for tree in trees for node in ast.walk(tree)
        for value in (getattr(node, key, None) for key in ("id", "attr", "arg", "name"))
        if isinstance(value, str))
    unread = {name for tree in trees for name in _defined(tree)
              if occurrences[name] == 1 and not name.startswith("__")}
    assert unread == READ_OUTSIDE


def test_every_exception_class_is_caught_in_the_package():
    trees = _trees()
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", "").endswith("Error") for base in node.bases)}
    caught = {getattr(name, "attr", getattr(name, "id", None))
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in getattr(node.type, "elts", [node.type])}
    assert classes <= caught
