"""Every public function, class and method in `src/taucalc` has a caller
in `src/`: code that only tests use belongs under `tests/`
(`READ_OUTSIDE_SRC` names the one that only a committed file outside
`src/` reads).  And every subclass of `TaucalcError` earns its class:
code in `src/` catches it by type, or it carries a field.  And
namedtuple's `_make` and `_replace`, which skip a class's checks, are
used only where the checks are moot.

A definition counts as used when its name is read (as a bare name or as
an attribute) somewhere in `src/` outside its own body, or when it is a
console-script entry point in `pyproject.toml`.  The check goes by name
alone, so a use of another definition with the same name counts too.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import taucalc

SRC = Path(taucalc.__file__).parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def _names(node) -> Counter:
    """The names read in `node`: bare names and attribute names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, node) of each public top-level function or class
    and each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or not _public(node.name):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and _public(item.name):
                    yield f"{node.name}.{item.name}", item


def _entry_points() -> set[str]:
    """Function names of the `[project.scripts]` entry points."""
    return set(re.findall(r'^\s*[\w-]+\s*=\s*"taucalc[\w.]*:(\w+)"\s*$',
                          PYPROJECT.read_text(encoding="utf-8"), re.M))


def unused_definitions() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    used.update(_entry_points())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if used[node.name] - _names(node)[node.name] <= 0:
                unused.append(f"{module}: {qualname}")
    return unused


# The public definitions that no code in src/ reads, each with the
# committed file outside src/ that does.  `FactBase.records` is the
# per-knot view of a base, which bench/tracing.py counts the knots of a
# load by; a run reads the base's columns instead.
READ_OUTSIDE_SRC = {"deduce.py: FactBase.records": "bench/tracing.py"}


def test_every_public_definition_has_a_caller_in_src():
    unused = [u for u in unused_definitions() if u not in READ_OUTSIDE_SRC]
    assert not unused, "no caller in src/: " + ", ".join(unused)


def test_each_definition_read_outside_src_is_read_only_there():
    # An entry of READ_OUTSIDE_SRC lasts only as long as it is needed: src/
    # still reads the name nowhere, and the named file still reads it.
    unused = unused_definitions()
    for qualname, reader in READ_OUTSIDE_SRC.items():
        assert qualname in unused, f"{qualname} has a caller in src/ now"
        path = SRC.parents[1] / reader
        name = qualname.rsplit(".", 1)[-1]
        assert _names(ast.parse(path.read_text(encoding="utf-8")))[name], (
            f"{reader} no longer reads {name}")


def test_a_name_used_only_in_its_own_body_is_unused():
    # A recursive helper names itself; that is not a caller.
    tree = ast.parse("def helper(n):\n    return helper(n - 1)\n")
    (qualname, node), = _definitions(tree)
    assert qualname == "helper"
    assert _names(tree)[node.name] - _names(node)[node.name] == 0


def test_the_entry_point_counts_as_a_use():
    assert "run" in _entry_points()


def _caught(tree) -> set[str]:
    """The names in the `except` clauses of `tree`."""
    return {name for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)
            and n.type is not None for name in _names(n.type)}


def idle_error_classes(trees) -> list[str]:
    """The subclasses of TaucalcError, direct or not, that no `except`
    clause names and that define no `__init__` (so carry no field)."""
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    errors = {"TaucalcError"}
    while True:  # subclasses of subclasses too
        more = {name for name, node in classes.items()
                if any(_names(base).keys() & errors for base in node.bases)}
        if more <= errors:
            break
        errors |= more
    caught = set().union(*map(_caught, trees))
    return sorted(
        name for name in errors - {"TaucalcError"} - caught
        if not any(isinstance(item, ast.FunctionDef)
                   and item.name == "__init__" for item in classes[name].body))


def test_every_error_class_is_caught_or_carries_a_field():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    idle = idle_error_classes(trees)
    assert not idle, ("raise TaucalcError instead of a class that no code "
                      "tells apart: " + ", ".join(idle))


def test_an_error_class_without_a_catch_or_a_field_is_idle():
    tree = ast.parse(
        "class TaucalcError(Exception): pass\n"
        "class Caught(TaucalcError): pass\n"
        "class Carries(TaucalcError):\n"
        "    def __init__(self, message, n): self.n = n\n"
        "class Idle(Caught): pass\n"
        "try: pass\n"
        "except (Caught, OSError): pass\n")
    assert idle_error_classes([tree]) == ["Idle"]


_UNCHECKED_COPIES = ("_make", "_replace")


def unchecked_copies(tree) -> list[str]:
    """`function: expression` for each use of `_make` or `_replace` in
    `tree`, named by the innermost function it is in, and `def name` for
    each definition of one."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _UNCHECKED_COPIES:
                found.append(f"{where}: def {node.name}")
            where = node.name
        elif (isinstance(node, ast.Attribute)
              and node.attr in _UNCHECKED_COPIES):
            found.append(f"{where}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_make_and_replace_copy_only_rows():
    # namedtuple's `_make` and `_replace` build the tuple without calling
    # the class, so they skip the checks in its `__new__`.  `src/` uses
    # them once: on a KnotRow in `cli._run_deduction`, whose new id is a
    # string.  (`deduce._narrow` writes the meet of checked intervals into
    # a column in place and copies no record.)  So every Interval,
    # relation and presentation is built through its class, and the
    # closure argument in `taucalc.interval` holds.
    found = [f"{path.stem}.{use}" for path in sorted(SRC.glob("*.py"))
             for use in unchecked_copies(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["cli._run_deduction: row._replace"]


def test_a_third_make_or_replace_is_reported():
    tree = ast.parse(
        "def _narrow(rec, fields):\n"
        "    return rec._make(fields)\n"
        "def widen(i):\n"
        "    copy = i._replace\n"
        "    return copy(lo=-1)\n"
        "class Hooked:\n"
        "    def _replace(self, **changes): pass\n"
        "EMPTY = Interval._make((1, 0))\n")
    assert unchecked_copies(tree) == [
        "_narrow: rec._make", "widen: i._replace",
        "<module>: def _replace", "<module>: Interval._make"]
