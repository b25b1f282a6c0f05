"""No module of the package defines a name nothing uses.

Each module-level function, class and constant of `src/polspin/*.py` but
`__init__.py` must be read or imported somewhere in `src/polspin`,
`demos/` or `perfbench/` (an import in `__init__.py` alone does not count:
it exports the name, it does not use it), or be a perfbench trace target.
Names are matched by their bare text, as `ast` sees them: a read `name`,
an attribute `x.name`, or an imported `name`.

Each method, property and annotated field of those classes but the
dunder methods must be read as an attribute, `x.name`, somewhere in
`src/polspin`, `demos/`, `perfbench/` or `tests/`."""

import ast
from pathlib import Path

import pytest

from test_trace_targets import trace_targets

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polspin"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = [SRC / m for m in MODULES] + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))
MEMBER_READERS = READERS + sorted((ROOT / "tests").glob("*.py"))


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


def class_members(source: str) -> list[str]:
    """The name "Class.member" of each method, property and annotated
    field of the module's classes, dunder methods left out."""
    members = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target,
                                                               ast.Name):
                name = item.target.id
            else:
                continue
            members.append(f"{node.name}.{name}")
    return members


def attribute_reads(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_finds_an_unused_member():
    source = ("class C:\n    a: int\n    b: int = 0\n    def __init__(self):\n"
              "        self.c = 1\n    @property\n    def d(self):\n"
              "        return self.a\n    def e(self):\n        pass\n"
              "C().d\nC.b = 2\n")
    assert [m for m in class_members(source)
            if m.split(".")[1] not in attribute_reads(source)] == ["C.b", "C.e"]


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


@pytest.fixture(scope="module")
def read_attributes() -> set[str]:
    names = set()
    for path in MEMBER_READERS:
        names |= attribute_reads(path.read_text(encoding="utf-8"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_no_unread_member(module, read_attributes):
    members = class_members((SRC / module).read_text(encoding="utf-8"))
    assert [m for m in members if m.split(".")[1] not in read_attributes] == []
