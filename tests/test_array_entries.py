"""The commands, verify and topology reach a beam only through the array entries."""

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
