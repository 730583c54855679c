"""Every module-level import of the package, the tests and the demos is used
by its module, only `flow.py` builds or runs a flow network, and the
exhaustive oracles stay out of the solver layers."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ftkcenter"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
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


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == PACKAGE else p.relative_to(ROOT).as_posix(),
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    source = 'import os\nfrom typing import Mapping\n"""os"""\ndef f(x: "Mapping[int, int]"): pass\n'
    assert unused_imports(source) == ["os"]


def flow_engine_names(source: str) -> list[str]:
    """Names of the flow engine that a module imports, reads or reaches as an
    attribute; everything else goes through `flow.TransportNetwork`, its
    wrapper `flow.transport_cuts`, or `flow.capacitated_assignment`."""
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


ORACLE_IMPORTERS = {"__init__.py", "cli.py", "oracle.py"}


def imports_oracle(source: str) -> bool:
    """Whether the module imports `oracle` or a name from it, relatively or
    by its package path, anywhere in the module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "oracle":
                return True
            if any(a.name == "oracle" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "oracle" for a in node.names):
                return True
    return False


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in ORACLE_IMPORTERS),
    ids=lambda p: p.name,
)
def test_oracle_is_imported_only_by_the_front_ends(path):
    assert not imports_oracle(path.read_text())


@pytest.mark.parametrize(
    "source",
    [
        "from .oracle import gap_instance\n",
        "from . import oracle\n",
        "def f():\n    from ftkcenter.oracle import exact_opt\n",
        "import ftkcenter.oracle as o\n",
    ],
)
def test_oracle_import_is_detected(source):
    assert imports_oracle(source)
    assert not imports_oracle("from .verify import verify_ft\nfrom . import flow\n")
