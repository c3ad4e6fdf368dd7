"""The commands, verify and topology reach a beam only through the array
entries, and the CLI keeps no copy of topology's checks."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "spinbeam"

# the one-point forms, kept only for the benchmark's tracer
_POINT_LAYER = {"CylPoint", "evaluate_finite", "evaluate_nondiffractive",
                "closed_form_polarization"}


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize("module", ["cli.py", "verify.py", "topology.py"])
def test_module_does_not_use_point_layer(module):
    tree = ast.parse((_SRC / module).read_text(encoding="utf-8"))
    assert not _POINT_LAYER & set(_identifiers(tree))


def _imports_from(module: str, source: str):
    """The names that ``module`` imports from the package module ``source``."""
    tree = ast.parse((_SRC / module).read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
            for alias in node.names}


def test_cli_imports_no_private_topology_name():
    # the charge preconditions live in topology._charge alone; the CLI names
    # the config field from the error's argument
    assert not {name for name in _imports_from("cli.py", "topology") if name.startswith("_")}


@pytest.mark.parametrize("module", ["beams.py", "topology.py", "cli.py"])
def test_one_named_argument_error(module):
    assert "_ArgumentError" in _imports_from(module, "errors")
