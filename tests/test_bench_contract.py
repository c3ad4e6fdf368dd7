"""The benchmark's tracer wraps library functions by name; each must exist,
and the library must run under it."""

import ast
import importlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", _tracing().TRACED, ids=lambda v: v)
def test_traced_function_exists(module_name, attr):
    module = importlib.import_module(f"spinbeam.{module_name}")
    assert callable(getattr(module, attr, None))


def test_library_runs_under_the_tracer(tmp_path, monkeypatch):
    # the tracer keys beam-level spans on their arguments, so a caller that
    # passes arrays where it hashes them fails every traced request
    import spinbeam.cli
    import spinbeam.verify

    beam = {"configuration": "radial", "j": "1/2", "sigma": 1, "k": 100.0,
            "kind": {"type": "finite", "w0": 1.0, "method": "quadrature"}}
    field = {"beam": beam, "grid": {"r_min": 0.2, "r_max": 3.0, "n_r": 3, "n_phi": 2,
                                    "z_values": [0.0]}}
    charge = {"beam": dict(beam, kind=dict(beam["kind"], method="paraxial")),
              "tolerances": {"charge_n_r": 128}}
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        outcomes = spinbeam.verify.run_suite()
        codes = []
        for command, config in (("field", field), ("charge", charge)):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(config)))
            codes.append(spinbeam.cli.main([command, "--config", "-",
                                            "--out", str(tmp_path / command)]))
    finally:
        tracer.uninstall()
    assert all(outcome.passed for outcome in outcomes)
    assert codes == [0, 0]
    assert tracer.calls["quadrature.integrate"] > 0


def _measured(outcomes):
    return [(outcome.name, [(line.label, line.measured, line.tolerance) for line in outcome.lines])
            for outcome in outcomes]


def test_tracer_leaves_the_numbers_alone():
    # the tracer hands integrate a plain traced(*args, **kwargs) integrand,
    # without functools.wraps: anything that sniffed the integrand's
    # signature or attributes would fork the traced path from the untraced one
    import spinbeam.verify

    untraced = _measured(spinbeam.verify.run_suite())
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        traced = _measured(spinbeam.verify.run_suite())
    finally:
        tracer.uninstall()
    assert tracer.calls["quadrature.integrand"] > 0
    assert traced == untraced


def test_integrate_calls_pass_initial_panels_by_keyword():
    # the tracer reads initial_panels as the keyword, or as args[6] of a
    # longer positional call, so a positional one would be misread
    from spinbeam.quadrature import integrate

    position = list(inspect.signature(integrate).parameters).index("initial_panels")
    src = Path(__file__).resolve().parent.parent / "src"
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "integrate"
                                               or getattr(node.func, "attr", None) == "integrate"):
                calls.append((path.name, node.lineno))
                assert len(node.args) < position, f"{path.name}:{node.lineno}"
                assert not any(isinstance(arg, ast.Starred) for arg in node.args)
                assert all(kw.arg is not None for kw in node.keywords)
    # verify's position-space spin integral is the one call site left in src/
    assert len(calls) >= 1
