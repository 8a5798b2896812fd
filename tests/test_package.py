"""The package's public surface: every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import beltrami

LIBRARY_MODULES = ["grid", "operators", "fixedpoint", "constant_coefficient",
                   "autonomous", "fullnonlinear", "analysis", "synth"]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_entries_resolve(name):
    # perfbench's tracer resolves each entry with getattr when it installs
    module = importlib.import_module(f"beltrami.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"beltrami.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_are_exported():
    tree = ast.parse(Path(beltrami.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(LIBRARY_MODULES)
    for node in imports:
        exported = importlib.import_module(f"beltrami.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in exported]
        assert not stray, f"beltrami imports {stray} from {node.module} outside its __all__"


def test_one_linear_part_type():
    # the constant-coefficient solvers and AutonomousMap.linf share one type
    assert beltrami.CCParams is beltrami.autonomous.CCParams
    assert beltrami.constant_coefficient.CCParams is beltrami.autonomous.CCParams
