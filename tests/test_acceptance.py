"""Acceptance suite: every verification check at full sampling.

Each criterion prints one PASS/FAIL line with its measured values (run
pytest with -s to see them all).  Checks with a stated runtime budget
assert it too.
"""

import time

import pytest

from spinbeam.beams import BeamSpec
from spinbeam.verify import CHECKS, CheckOutcome, check_axis_law

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
