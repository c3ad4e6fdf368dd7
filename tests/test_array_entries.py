"""The commands, verify and topology reach a beam only through the array
entries, the CLI keeps no copy of topology's checks, the package imports
nothing past the standard library and numpy, every integral climbs the
quadrature ladder through its one climb, and every finite profile comes from
one dispatcher, radial_amplitudes."""

import ast
import sys
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


@pytest.mark.parametrize("module", sorted(path.name for path in _SRC.glob("*.py")))
def test_imports_only_the_standard_library_and_numpy(module):
    # the test references lean on scipy and mpmath; the shipped package, and
    # verify with it, runs on a plain install
    tree = ast.parse((_SRC / module).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names | {"numpy"}


# the ladder's rule, its first and last rung and the cap on one integrand call
_LADDER = {"_clenshaw_curtis", "_MIN_RUNG", "_MAX_RUNG", "_BLOCK_ARGUMENTS"}


@pytest.mark.parametrize("module", sorted(path.name for path in _SRC.glob("*.py")
                                          if path.name != "quadrature.py"))
def test_only_quadrature_names_the_ladder(module):
    # a second climb would need the rule or its bounds: spectral profiles and
    # integrate reach them only through quadrature._climb
    tree = ast.parse((_SRC / module).read_text(encoding="utf-8"))
    assert not _LADDER & set(_identifiers(tree))


def test_the_rule_is_called_from_the_climb_alone():
    tree = ast.parse((_SRC / "quadrature.py").read_text(encoding="utf-8"))
    callers = {function.name for function in tree.body if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_clenshaw_curtis"}
    assert callers == {"_climb"}


# the finite-profile kernels: one method each, behind one dispatcher
_PROFILE_KERNELS = {"_paraxial_profile", "_quadrature_profile"}


@pytest.mark.parametrize("module", sorted(path.name for path in _SRC.glob("*.py")
                                          if path.name != "beams.py"))
def test_only_beams_names_the_profile_kernels(module):
    tree = ast.parse((_SRC / module).read_text(encoding="utf-8"))
    assert not _PROFILE_KERNELS & set(_identifiers(tree))


def test_the_profile_kernels_are_called_from_radial_amplitudes_alone():
    # spectral_profile and verify's check 4 take their profiles from
    # radial_amplitudes, which alone picks the method and reflects n < 0
    tree = ast.parse((_SRC / "beams.py").read_text(encoding="utf-8"))
    calls = {(function.name, node.func.id) for function in tree.body
             if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in _PROFILE_KERNELS}
    assert calls == {("radial_amplitudes", name) for name in _PROFILE_KERNELS}
