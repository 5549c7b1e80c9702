"""Every top-level function and class of qck, and every member of its classes, is reached.

A name counts as reached when code in src/qck or perfbench refers to it
outside its own definition (as a name, an attribute, or an exact string such
as a getattr argument), when qck.__all__ exports it, or when it builds a
CaseKind row.  A class member (a method or an assigned class attribute,
dunders aside) is reached by the same references to its own name.  Tests do not count.  A name
that nothing reaches is dead code, unless ALLOWED gives the reason it stays;
an ALLOWED name that is reached again must leave the list.

The same holds for imports: every name a module-level import binds in
src/qck or tests is read somewhere in its module, or listed in its
``__all__``.
"""

import ast
from collections import Counter
from pathlib import Path

import qck
from qck.report import CaseKind
from qck.suites import CASE_REGISTRY

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "nonneg_divisibility_fact": "a congruence-suite row for it would change the univariate "
                                "report pinned in perfbench/golden, so it waits for a "
                                "change to the benchmark",
}


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _member_names(stmt):
    """Methods and assigned class attributes; annotated dataclass fields are instance data."""
    if isinstance(stmt, ast.FunctionDef):
        yield stmt.name
    elif isinstance(stmt, ast.Assign):
        yield from (t.id for t in stmt.targets if isinstance(t, ast.Name))


def _definitions(tree):
    """(qualified name, name, defining node) of each top-level def and class member."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                for name in _member_names(member):
                    if not (name.startswith("__") and name.endswith("__")):
                        yield f"{stmt.name}.{name}", name, member


def _unreached() -> list:
    definitions, references = [], Counter()
    for path in [*sorted((ROOT / "src" / "qck").glob("*.py")),
                 *sorted((ROOT / "perfbench").rglob("*.py"))]:
        tree = ast.parse(path.read_text())
        references.update(_references(tree))
        if path.parent.name == "qck":
            definitions.extend(_definitions(tree))
    builders = {fn.builder().__name__ for fn in CASE_REGISTRY.values()
                if isinstance(fn, CaseKind)}
    exempt = set(qck.__all__) | builders
    return sorted(qualified for qualified, name, node in definitions
                  if qualified not in exempt
                  and references[name] == Counter(_references(node))[name])


def test_every_top_level_name_is_reached_or_allowed():
    assert _unreached() == sorted(ALLOWED)


def _unused_imports(tree) -> list:
    """Names bound by module-level imports, ``from __future__`` aside, that the module never reads."""
    bound = [alias.asname or alias.name.split(".")[0]
             for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
             and getattr(stmt, "module", None) != "__future__" for alias in stmt.names]
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    exported = {sub.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for sub in ast.walk(stmt.value) if isinstance(sub, ast.Constant)}
    return [name for name in bound if name not in read | exported]


def test_every_import_is_used():
    unused = {path.relative_to(ROOT).as_posix(): names
              for path in [*sorted((ROOT / "src" / "qck").glob("*.py")),
                           *sorted((ROOT / "tests").glob("*.py"))]
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}
