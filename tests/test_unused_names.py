"""No module of the package defines a name nothing uses.

Each module-level function, class and constant of `src/polspin/*.py` but
`__init__.py` must be read or imported somewhere in `src/polspin`,
`demos/` or `perfbench/` (an import in `__init__.py` alone does not count:
it exports the name, it does not use it), or be a perfbench trace target.
Names are matched by their bare text, as `ast` sees them: a read `name`,
an attribute `x.name`, or an imported `name`."""

import ast
from pathlib import Path

import pytest

from test_trace_targets import trace_targets

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polspin"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = [SRC / m for m in MODULES] + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def defined_names(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def used_names(source: str) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_finds_an_unused_name():
    source = "A = 1\nB = 2\ndef f():\n    return A\nclass C:\n    pass\n"
    assert [n for n in defined_names(source)
            if n not in used_names(source)] == ["B", "f", "C"]


@pytest.fixture(scope="module")
def used() -> set[str]:
    names = {target.rsplit(".", 1)[1] for target in trace_targets()}
    for path in READERS:
        names |= used_names(path.read_text(encoding="utf-8"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_no_unused_name(module, used):
    names = defined_names((SRC / module).read_text(encoding="utf-8"))
    assert [name for name in names if name not in used] == []
