"""Every module-level import of the package is used by its module, and only
`flow.py` builds or runs a flow network."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ftkcenter"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FLOW_ENGINE = {"FlowNetwork", "max_flow"}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Module-level import names that the module never mentions, counting
    names inside string annotations."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = _names(tree)
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    source = 'import os\nfrom typing import Mapping\n"""os"""\ndef f(x: "Mapping[int, int]"): pass\n'
    assert unused_imports(source) == ["os"]


def flow_engine_names(source: str) -> list[str]:
    """Names of the flow engine that a module imports, reads or reaches as an
    attribute; everything else goes through `flow.transport_cuts` or
    `flow.capacitated_assignment`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return sorted(found & FLOW_ENGINE)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "flow.py"),
    ids=lambda p: p.name,
)
def test_flow_engine_only_in_flow_module(path):
    assert flow_engine_names(path.read_text()) == []


def test_flow_engine_name_is_detected():
    source = "from .flow import FlowNetwork as Net\nimport ftkcenter.flow as fl\nfl.max_flow(Net(0, 1))\n"
    assert flow_engine_names(source) == ["FlowNetwork", "max_flow"]
