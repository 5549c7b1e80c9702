"""Every top-level function and class of qck, private or public, is reached by the program.

A name counts as reached when code in src/qck or perfbench refers to it
outside its own definition (as a name, an attribute, or an exact string such
as a getattr argument), when qck.__all__ exports it, or when it builds a
CaseKind row.  Tests do not count.  A name that nothing reaches is dead code,
unless ALLOWED gives the reason it stays; an ALLOWED name that is reached
again must leave the list.
"""

import ast
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


def _unreached() -> list:
    defined, reached = set(), set()
    for path in [*sorted((ROOT / "src" / "qck").glob("*.py")),
                 *sorted((ROOT / "perfbench").rglob("*.py"))]:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if path.parent.name == "qck" and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.add(own)
            reached.update(name for name in _references(stmt) if name != own)
    builders = {fn.__self__.builder().__name__ for fn in CASE_REGISTRY.values()
                if isinstance(getattr(fn, "__self__", None), CaseKind)}
    return sorted(defined - reached - set(qck.__all__) - builders)


def test_every_top_level_name_is_reached_or_allowed():
    assert _unreached() == sorted(ALLOWED)
