"""Acceptance suite: every verification check at full sampling.

Each criterion prints one PASS/FAIL line with its measured values (run
pytest with -s to see them all).  Checks with a stated runtime budget
assert it too.
"""

import importlib.util
import inspect
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from spinbeam import beams, topology, verify
from spinbeam.beams import BeamSpec
from spinbeam.errors import ConvergenceError
from spinbeam.verify import (
    CHECKS,
    CheckOutcome,
    check_axis_law,
    check_bessel_anchor,
    check_jz_eigenstate,
    check_paraxial_oracle,
    check_spin_expectation,
    check_transversality,
    run_suite,
)

RUNTIME_BUDGETS = {
    "1 topological charge": 5.0,
    "2 unit polarization": 10.0,
    "3 momentum reconstruction": 30.0,
    "4 paraxial profile oracle": 60.0,
}


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance_criterion(name, check):
    start = time.perf_counter()
    lines = check()
    elapsed = time.perf_counter() - start
    outcome = CheckOutcome(name, lines, elapsed)
    status = "PASS" if outcome.passed else "FAIL"
    print(f"\n[{status}] {name} ({elapsed:.2f}s)")
    for line in lines:
        print(f"    {line.label}: measured {line.measured:.3e} vs tolerance {line.tolerance:.3e}")
    assert outcome.passed, f"{name}: " + "; ".join(
        f"{ln.label} measured {ln.measured:.3e} > {ln.tolerance:.3e}"
        for ln in lines if not ln.passed
    )
    budget = RUNTIME_BUDGETS.get(name)
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_axis_law_measures_the_spinor(monkeypatch):
    # with the component orders swapped the lower component dominates near
    # the axis, so s_z turns over; a check that read the law back from
    # closed_form_texture's axis value passed anyway
    minus, plus = BeamSpec.order_minus, BeamSpec.order_plus
    monkeypatch.setattr(BeamSpec, "order_minus", plus)
    monkeypatch.setattr(BeamSpec, "order_plus", minus)
    assert not any(line.passed for line in check_axis_law())


def _mutant(module, name: str, line: str, mutated: str):
    """The function ``module.name`` rebuilt from its source with the one
    occurrence of ``line`` replaced by ``mutated``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(line) == 1, f"{line!r} is not one line of {name}"
    namespace = dict(vars(module))
    exec(compile(source.replace(line, mutated), module.__file__, "exec"), namespace)
    return namespace[name]


def _suite_of(monkeypatch, number: int) -> CheckOutcome:
    """The outcome of check ``number`` alone, as run_suite reports it."""
    monkeypatch.setattr(verify, "CHECKS", [CHECKS[number - 1]])
    return run_suite()[0]


def test_paraxial_check_fails_on_the_detune_sign_mutant(monkeypatch):
    # check 4 integrates the exact phase that users get: with the sign of
    # k_z - k flipped the spectral profiles leave the paraxial closed form
    mutant = _mutant(beams, "_quadrature_profile", "detune = -2.0 * k", "detune = 2.0 * k")
    monkeypatch.setattr(beams, "_quadrature_profile", mutant)
    assert not _suite_of(monkeypatch, 4).passed


def test_charge_check_fails_on_the_integral_step_sign_mutant(monkeypatch):
    # check 1 runs the solid-angle integral route too: with its steps
    # theta_{i+1} - theta_i the integral turns over
    mutant = _mutant(topology, "_charge", "(th[:-1] - th[1:])", "(th[1:] - th[:-1])")
    monkeypatch.setattr(topology, "_charge", mutant)
    assert not _suite_of(monkeypatch, 1).passed


def _integrands(monkeypatch):
    """(integrand, nodes) of every integrand call that verify's integrate
    makes, in order; one integrate call hands all of its calls the same
    integrand."""
    seen = []
    integrate = verify.integrate

    def counted(f, *args, **kwargs):
        def integrand(x):
            seen.append((f, x.size))
            return f(x)

        return integrate(integrand, *args, **kwargs)

    monkeypatch.setattr(verify, "integrate", counted)
    return seen


def _spectral_bessel_calls(monkeypatch):
    """The argument shape (points, nodes) of every Bessel pair call that the
    spectral quadrature makes, in order: one call per block of points and rung."""
    shapes, inside = [], []
    profile, pair = beams._quadrature_profile, beams._jn_pair

    def counted_profile(*args, **kwargs):
        inside.append(True)
        try:
            return profile(*args, **kwargs)
        finally:
            inside.pop()

    def counted_pair(n, x):
        if inside:
            shapes.append(x.shape)
        return pair(n, x)

    monkeypatch.setattr(beams, "_quadrature_profile", counted_profile)
    monkeypatch.setattr(beams, "_jn_pair", counted_pair)
    return shapes


def test_spin_expectation_check_takes_one_integral_per_beam(monkeypatch):
    # six beams, each one position-space integral whose head and tail sum in
    # one scalar integrand, met on the first rung of 64 + 1 nodes; the
    # spectral side is in closed form
    seen = _integrands(monkeypatch)
    assert all(line.passed for line in check_spin_expectation())
    assert len({id(f) for f, _ in seen}) == 6
    assert [nodes for _, nodes in seen] == [65] * 6


def test_jz_check_takes_one_evaluation_per_beam(monkeypatch):
    # both points' stencils in one evaluation: the one quadrature beam makes
    # one Bessel pair call, both points on the first rung of 64 + 1 nodes
    shapes = _spectral_bessel_calls(monkeypatch)
    assert all(line.passed for line in check_jz_eigenstate())
    assert shapes == [(2, 65)]


def test_paraxial_check_takes_one_vector_integral_per_bessel_pair(monkeypatch):
    # orders (0, 1) and (1, 2) over the whole (r, z) grid: each profile call
    # starts with all 12 points in one block, and climbs a rung with the few
    # it misses on, taking every node of the new rung
    shapes = _spectral_bessel_calls(monkeypatch)
    assert all(line.passed for line in check_paraxial_oracle())
    assert [shape for shape in shapes if shape[0] == 12] == [(12, 65), (12, 65)]
    assert shapes[0] == (12, 65)
    assert all(shape[0] < 12 and shape[1] == 129 for shape in shapes if shape[0] != 12)
    assert sum(points * nodes for points, nodes in shapes) == 1_947


@pytest.mark.parametrize("n", [0, 1, 2])
def test_paraxial_check_compares_every_order_at_every_point(n, monkeypatch):
    # the check's closed forms are the amplitudes (F_0, F_1) and (F_1, F_2) of
    # the radial j = 1/2 and 3/2 beams: F_n is nudged wherever they take it
    profile = beams._paraxial_profile
    for point in np.ndindex(4, 3):
        def nudged(orders, *args, point=point):
            out = profile(orders, *args)
            if n in orders:
                out[orders.index(n)][point] *= 1.0 + 1e-5
            return out

        monkeypatch.setattr(beams, "_paraxial_profile", nudged)
        assert not any(line.passed for line in check_paraxial_oracle()), point


def test_bessel_check_takes_one_i_call_per_recurrence_order(monkeypatch):
    # the recurrence line evaluates the whole 30-point grid: once per order
    calls = []
    scaled = verify.bessel_i_scaled

    def counted(order, z):
        if np.size(z) == 30:
            calls.append(order.twice_value)
        return scaled(order, z)

    monkeypatch.setattr(verify, "bessel_i_scaled", counted)
    assert all(line.passed for line in check_bessel_anchor())
    assert sorted(calls) == [-1, 0, 1, 2, 3, 4, 5, 6, 8]


@pytest.mark.parametrize("twice_nu", [-1, 0, 1, 2, 3, 4, 5, 6, 8])
def test_bessel_check_sees_each_recurrence_order(twice_nu, monkeypatch):
    scaled = verify.bessel_i_scaled

    def nudged(order, z):
        out = scaled(order, z)
        return out * (1.0 + 1e-8) if order.twice_value == twice_nu else out

    monkeypatch.setattr(verify, "bessel_i_scaled", nudged)
    recurrence = next(line for line in check_bessel_anchor()
                      if line.label.startswith("I recurrence"))
    assert not recurrence.passed


def test_transversality_check_takes_one_evaluation_per_beam(monkeypatch):
    # four beams, each reduced twice from one amplitude evaluation; the one
    # quadrature beam makes one vector integral
    calls = []
    amplitudes = verify.radial_amplitudes

    def counted(spec, *args):
        calls.append(spec)
        return amplitudes(spec, *args)

    monkeypatch.setattr(verify, "radial_amplitudes", counted)
    shapes = _spectral_bessel_calls(monkeypatch)
    assert all(line.passed for line in check_transversality())
    assert len(calls) == 4
    assert shapes == [(3, 65)]


def test_suite_integrand_calls(monkeypatch):
    seen = _integrands(monkeypatch)
    assert all(outcome.passed for outcome in run_suite())
    assert len(seen) == 6


def test_suite_rungs(monkeypatch):
    # the nodes of every integrand call of one suite, summed (check 7's
    # position-space integrals, the one user of integrate), and the Bessel
    # arguments of the spectral quadrature's rungs: a change that moves any
    # integral's or any point's rung moves these pins, and must say so
    seen = _integrands(monkeypatch)
    shapes = _spectral_bessel_calls(monkeypatch)
    assert all(outcome.passed for outcome in run_suite())
    assert sum(nodes for _, nodes in seen) == 390
    assert sum(points * nodes for points, nodes in shapes) == 99_772


def test_suite_reports_a_raising_check_and_runs_the_rest(monkeypatch):
    # a SpinBeamError inside a check becomes one failed line that names its
    # class, in the line format bench/gate.py parses; the other checks run
    def raising():
        raise ConvergenceError("tolerance not met\nat depth 60")

    checks = list(CHECKS)
    checks[3] = (checks[3][0], raising)
    monkeypatch.setattr(verify, "CHECKS", checks)
    outcomes = run_suite()
    assert [outcome.name for outcome in outcomes] == [name for name, _ in CHECKS]
    assert [outcome.passed for outcome in outcomes] == [i != 3 for i in range(len(CHECKS))]
    assert len(outcomes[3].lines) == 1 and not outcomes[3].lines[0].passed
    spec = importlib.util.spec_from_file_location(
        "bench_gate", Path(__file__).resolve().parent.parent / "bench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    report = verify.format_report(outcomes)
    parsed = gate.parse_output("verify", report)
    assert len(parsed["lines"]) == sum(len(outcome.lines) for outcome in outcomes)
    bad = [line for line in parsed["lines"] if not line[2]]
    assert len(bad) == 1
    assert bad[0][0] == "raised ConvergenceError: tolerance not met at depth 60"
    assert parsed["summary"] == "11/12 checks passed"
