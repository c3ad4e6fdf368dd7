"""The benchmark's tracer wraps library functions by name; each must exist,
and the library must run under it."""

import importlib
import importlib.util
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
        outcomes = spinbeam.verify.run_suite("fast")
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
