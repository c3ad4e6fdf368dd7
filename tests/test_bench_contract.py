"""The benchmark's tracer wraps library functions by name; each must exist,
and the library must run under it."""

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
            stdin = io.TextIOWrapper(io.BytesIO(json.dumps(config).encode()))
            monkeypatch.setattr("sys.stdin", stdin)
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


def test_integrate_takes_fewer_than_seven_parameters():
    # the tracer reads a panel count from integrate's args[6]: with fewer
    # than seven parameters, no call can fill it
    from spinbeam.quadrature import integrate

    assert len(inspect.signature(integrate).parameters) < 7
