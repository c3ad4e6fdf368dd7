"""Acceptance suite: every verification check at full sampling.

Each criterion prints one PASS/FAIL line with its measured values (run
pytest with -s to see them all).  Checks with a stated runtime budget
assert it too.
"""

import time

import numpy as np
import pytest

from spinbeam import quadrature, verify
from spinbeam.beams import BeamSpec
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


def _integrands(monkeypatch):
    """The integrand of every integrand call that integrate makes, in order;
    one integrate call hands all of its calls the same integrand."""
    seen = []
    rule = quadrature._rule

    def counted(f, *args):
        seen.append(f)
        return rule(f, *args)

    monkeypatch.setattr(quadrature, "_rule", counted)
    return seen


def test_spin_expectation_check_takes_one_vector_integral_per_beam(monkeypatch):
    # six beams, each one position-space integral whose head and tail are the
    # rows of one vector integrand; the spectral side is in closed form
    seen = _integrands(monkeypatch)
    assert all(line.passed for line in check_spin_expectation())
    assert len({id(f) for f in seen}) == 6
    assert len(seen) <= 12


def test_jz_check_takes_one_evaluation_per_beam(monkeypatch):
    # both points' stencils in one evaluation: the one quadrature beam makes
    # one vector integral
    seen = _integrands(monkeypatch)
    assert all(line.passed for line in check_jz_eigenstate())
    assert len(seen) <= 2


def test_paraxial_check_takes_one_vector_integral_per_bessel_pair(monkeypatch):
    # orders (0, 1) and (2,) over the whole (r, z) grid
    seen = _integrands(monkeypatch)
    assert all(line.passed for line in check_paraxial_oracle())
    assert len({id(f) for f in seen}) == 2


@pytest.mark.parametrize("n", [0, 1, 2])
def test_paraxial_check_compares_every_order_at_every_point(n, monkeypatch):
    profile = verify._paraxial_profile
    for point in np.ndindex(4, 3):
        def nudged(orders, *args, point=point):
            out = profile(orders, *args)
            out[orders.index(n)][point] *= 1.0 + 1e-5
            return out

        monkeypatch.setattr(verify, "_paraxial_profile", nudged)
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
    seen = _integrands(monkeypatch)
    assert all(line.passed for line in check_transversality())
    assert len(calls) == 4
    assert len({id(f) for f in seen}) == 1


def test_suite_integrand_calls(monkeypatch):
    seen = _integrands(monkeypatch)
    assert all(outcome.passed for outcome in run_suite())
    assert len(seen) <= 63


def test_suite_panel_trees(monkeypatch):
    # the abscissae of every integrand call of one suite, summed: a change that
    # moves any panel tree moves this pin, and must say so
    abscissae = []
    rule = quadrature._rule

    def counted(f, lo, *args):
        abscissae.append(lo.size * quadrature._NODES.size)
        return rule(f, lo, *args)

    monkeypatch.setattr(quadrature, "_rule", counted)
    assert all(outcome.passed for outcome in run_suite())
    assert sum(abscissae) == 7_365
