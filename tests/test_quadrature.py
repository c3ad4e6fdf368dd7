"""Adaptive integrator against antiderivative and gamma-function oracles."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbeam import quadrature
from spinbeam.errors import ConvergenceError, IntegrandError
from spinbeam.quadrature import (_MAX_PANELS, _NODES, _WEIGHTS, QuadResult, _worst_panels,
                                 integrate)


def _counted(f):
    """``f``, and the list of the node arrays it is called with."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


def _tree_depth(calls, width):
    """Depth of the narrowest panel the calls evaluated, below panels of ``width``."""
    spans = min(np.ptp(x.reshape(-1, _NODES.size), axis=1).min() for x in calls)
    return round(math.log2(width * np.ptp(_NODES) / (2.0 * spans)))


def test_constant_integrand():
    res = integrate(lambda x: np.ones_like(x, dtype=complex), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-14
    assert res.error_estimate <= 1e-13
    assert res.evaluations > 0


def test_complex_exponential():
    # antiderivative -i e^{ix} gives exactly 2i on [0, pi]
    res = integrate(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert abs(res.value - 2.0j) <= 1e-12


def test_gaussian_spectrum_normalization():
    w0, k = 1.0, 100.0

    def integrand(kap):
        return 2.0 * w0 ** 2 * np.exp(-w0 ** 2 * np.square(kap)) * kap

    res = integrate(integrand, 0.0, k, abs_tol=1e-13, rel_tol=1e-12, initial_panels=8)
    assert abs(res.value - 1.0) <= 1e-10


def test_error_estimate_brackets_true_error():
    cases = [
        (lambda x: np.sin(x), 0.0, 2.3, 1.0 - math.cos(2.3)),
        (lambda x: x ** 3 - x, -1.0, 2.0, (2.0 ** 4 / 4 - 2.0) - (0.25 - 0.5)),
        (lambda x: np.exp(x), 0.0, 3.0, math.e ** 3 - 1.0),
        (lambda x: 1.0 / (1.0 + np.square(x)), 0.0, 5.0, math.atan(5.0)),
    ]
    for f, a, b, exact in cases:
        res = integrate(f, a, b)
        assert abs(res.value - exact) <= 10.0 * max(res.error_estimate, 1e-15)


def test_high_rule_polynomial_exactness():
    # x^28 is past the Kronrod rule's degree 22 and takes a few splits; x^13
    # is within both rules, so its error estimate is the roundoff floor alone
    res = integrate(lambda x: x ** 28, 0.0, 1.0, abs_tol=1e-9, rel_tol=1e-6)
    assert abs(res.value - 1.0 / 29.0) <= 1e-13
    res = integrate(lambda x: x ** 13, 0.0, 1.0, abs_tol=1e-9, rel_tol=1e-6)
    assert abs(res.value - 1.0 / 14.0) <= 1e-14
    assert res.error_estimate <= 1e-14


@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_linearity(alpha, beta):
    f = lambda x: np.exp(1j * x)
    g = lambda x: np.square(x) + 0j
    combo = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0)
    fa = integrate(f, 0.0, 2.0)
    gb = integrate(g, 0.0, 2.0)
    bound = combo.error_estimate + abs(alpha) * fa.error_estimate + abs(beta) * gb.error_estimate
    assert abs(combo.value - (alpha * fa.value + beta * gb.value)) <= bound + 1e-12


@given(st.floats(min_value=0.1, max_value=2.9))
@settings(max_examples=25, deadline=None)
def test_interval_additivity(split):
    f = lambda x: np.cos(x) * np.exp(0.3j * x)
    whole = integrate(f, 0.0, 3.0)
    left = integrate(f, 0.0, split)
    right = integrate(f, split, 3.0)
    bound = whole.error_estimate + left.error_estimate + right.error_estimate
    assert abs(whole.value - (left.value + right.value)) <= bound + 1e-12


def test_oscillatory_with_pre_split():
    b = 40.0 * math.pi
    f, calls = _counted(lambda x: np.exp(8j * x))
    res = integrate(f, 0.0, b, initial_panels=60)
    exact = (np.exp(8j * b) - 1.0) / 8j
    assert abs(res.value - exact) <= 1e-10
    # 898 panels of 15 nodes
    assert res.evaluations == 898 * _NODES.size == 13470
    # one integrand call per level of the panel tree, not one per split
    assert len(calls) <= _tree_depth(calls, b / 60) + 1
    assert len(calls) == 4
    # the panel tree and the left-to-right sum of the scalar rule, bit for bit
    assert res.value == complex(-2.2179480474449065e-13, -4.0190073491430667e-14)
    assert res.error_estimate == 2.8515987592296544e-13


def test_round_splits_worst_panels_down_to_half_the_tolerance():
    # keeping 1 + 0.5 meets half of 3; of equal errors the leftmost split first
    assert _worst_panels(np.array([1.0, 4.0, 2.0, 0.5]), 3.0).tolist() == \
        [False, True, True, False]
    assert _worst_panels(np.array([1.0, 1.0, 1.0, 1.0]), 2.5).tolist() == \
        [True, True, True, False]
    assert _worst_panels(np.array([0.0, 0.0, 0.0, 5.0]), 1.0).tolist() == \
        [False, False, False, True]


def test_panel_budget_stops_refinement_in_bounded_time():
    # about 1.6 million periods need more panels than the budget allows
    f, calls = _counted(lambda x: np.exp(1e7j * x))
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0)
    assert time.perf_counter() - start < 5.0
    best = err.value.result
    assert math.isfinite(abs(best.value)) and best.error_estimate > 1e-12
    # every round splits every panel, and the round that would pass the
    # budget does not run
    depth = _tree_depth(calls, 1.0)
    assert 2 ** depth <= _MAX_PANELS < 2 ** (depth + 1)
    # a round hands all its children to the integrand in one call
    assert len(calls) == depth + 1


def test_initial_split_within_the_panel_budget():
    # the budget holds for the first call too: past it, the integrand never runs
    f, calls = _counted(np.cos)
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, initial_panels=_MAX_PANELS + 1)
    assert calls == [] and err.value.result is None


def test_convergence_failure_carries_best_result(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    f = lambda x: np.abs(x - 1.0 / 3.0) ** -0.9
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    assert isinstance(err.value.result, QuadResult)
    assert err.value.result.error_estimate > 0.0


def test_non_finite_integrand_rejected():
    def bad(x):
        out = np.asarray(x, dtype=complex).copy()
        out[np.asarray(x) > 0.5] = np.nan
        return out

    with pytest.raises(IntegrandError):
        integrate(bad, 0.0, 1.0)


def test_validation_errors():
    f = lambda x: x + 0j
    with pytest.raises(ValueError):
        integrate(f, 1.0, 0.0)
    # a NaN tolerance compares false both ways, so it must fail the check
    # rather than stop refinement at the first panel
    for tols in (dict(abs_tol=0.0), dict(abs_tol=math.nan), dict(rel_tol=math.nan),
                 dict(abs_tol=math.nan, rel_tol=math.nan)):
        with pytest.raises(ValueError):
            integrate(f, 0.0, 1.0, **tols)


@pytest.mark.parametrize("panels", [2.7, "3", 0, -5, None, True, np.float64(2.0)],
                         ids=["float", "str", "zero", "negative", "none", "bool", "np-float"])
def test_initial_panels_must_be_a_positive_integer(panels):
    # no silent coercion: 2.7 once ran as 2 panels, "3" as 3 and 0 or -5 as 1; the check
    # comes before the integrand is called, also on an empty interval
    f, calls = _counted(np.cos)
    for b in (1.0, 0.0):
        with pytest.raises(ValueError, match="initial_panels"):
            integrate(f, 0.0, b, initial_panels=panels)
    assert calls == []
    assert integrate(np.cos, 0.0, 1.0, initial_panels=np.int64(3)).evaluations == \
        integrate(np.cos, 0.0, 1.0, initial_panels=3).evaluations


def test_degenerate_interval():
    res = integrate(lambda x: np.exp(x), 2.0, 2.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_deterministic_repeat():
    f, calls = _counted(lambda x: np.exp(1j * np.square(x)) / (1.0 + x))
    r1 = integrate(f, 0.0, 6.0, initial_panels=7)
    assert len(calls) <= _tree_depth(calls, 6.0 / 7) + 1
    assert len(calls) == 2
    r2 = integrate(f, 0.0, 6.0, initial_panels=7)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations
    # pins which panels split: 7 initial panels and 4 splits, 15 panels of 15 nodes
    assert r1.evaluations == 15 * _NODES.size == 225
    assert r1.value == complex(0.5217225983737774, 0.3439040490376525)
    assert r1.error_estimate == 2.9917657258160927e-12
    assert isinstance(r1.value, complex) and isinstance(r1.error_estimate, float)


def test_deterministic_repeat_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        want = complex(mp.quad(lambda x: mp.exp(1j * x * x) / (1 + x), mp.linspace(0, 6, 25)))
    res = integrate(lambda x: np.exp(1j * np.square(x)) / (1.0 + x), 0.0, 6.0, initial_panels=7)
    assert abs(res.value - want) <= 1e-15


# ----------------------------------------------------------------------
# the Gauss-Kronrod 7/15 rule on [-1, 1]
# ----------------------------------------------------------------------

def _moment(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


@pytest.mark.parametrize("column,degree", [(0, 22), (1, 13)], ids=["kronrod15", "gauss7"])
def test_rule_polynomial_degree(column, degree):
    # exact through its degree, and not at the next even degree (symmetric
    # rules integrate every odd power exactly)
    weights = _WEIGHTS[:, column]
    for k in range(degree + 1):
        assert abs(_NODES ** k @ weights - _moment(k)) <= 1e-15
    k = degree + 2 - degree % 2
    assert abs(_NODES ** k @ weights - _moment(k)) > 1e-10


def test_gauss_nodes_are_embedded():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(_NODES[1::2] - nodes)) <= 1e-15
    assert np.max(np.abs(_WEIGHTS[1::2, 1] - weights)) <= 1e-15
    assert np.all(_WEIGHTS[::2, 1] == 0.0)
    assert _NODES.size == 15 and np.all(np.diff(_NODES) > 0.0)


def test_kronrod_table_matches_scipy():
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    # scipy's QK15 panel, fed unit vectors, returns the weights of its nodes
    nodes = []

    def unit(x):
        nodes.append(x)
        return np.eye(15)[len(nodes) - 1]

    weights = quad_vec._quadrature_gk15(-1.0, 1.0, unit, np.linalg.norm)[0]
    # scipy lists the nodes from +1 down
    assert np.max(np.abs(np.array(nodes[::-1]) - _NODES)) <= 1e-15
    assert np.max(np.abs(weights[::-1] - _WEIGHTS[:, 0])) <= 1e-15


@pytest.mark.parametrize("f", [
    lambda x: np.exp(x) * np.cos(6.0 * x),
    lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)),
    lambda x: np.exp(1j * np.square(x)) / (1.0 + x),
    lambda x: np.abs(x - 1.0 / 3.0) ** -0.5 * np.exp(2j * x),
], ids=["real-smooth", "real-kink", "complex-chirp", "complex-singular"])
def test_rule_error_is_quadpack_qk15(f):
    # per panel, resasc min(1, (200 |K15 - G7| / resasc)^1.5): scipy's QK15
    # before its max with the floor 50 eps L1, which gives L1 and so our floor
    # 1e-16 L1.  Where the estimate nears eps L1 the two sum |K15 - G7| in
    # other orders, so the panels compared lie well above it; the kink and
    # the singular panel keep resasc, the smooth ones rescale it
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    lo, hi = np.array([0.0, 1.0, 2.0, 3.5]), np.array([1.0, 2.0, 3.5, 6.0])
    value, error = quadrature._rule(f, lo, hi)
    compared = 0
    for a, b, ours, estimate in zip(lo, hi, error, value):
        want, theirs, floor = quad_vec._quadrature_gk15(a, b, lambda x: f(np.array([x]))[0], abs)
        l1 = floor / (50.0 * sys.float_info.epsilon)
        assert abs(estimate - want) <= 1e-14 * abs(want)
        if theirs > 1e-7 * l1:
            assert abs(ours - 1e-16 * l1 - theirs) <= 1e-8 * theirs
            compared += 1
    assert compared


def test_scalar_integrand_rejected():
    # integrands receive an array of nodes and must return one of that shape
    with pytest.raises(IntegrandError):
        integrate(lambda x: 1.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [
    lambda x: np.ones(x.size + 1, dtype=complex),
    lambda x: np.ones((2, x.size), dtype=complex),
    lambda x: np.ones((2, x.size + 1), dtype=complex),
    lambda x: np.ones((2, 3, x.size), dtype=complex),
    lambda x: np.ones((x.size, 2), dtype=complex),
], ids=["nodes+1", "two-rows", "columns-n+1", "three-axes", "transposed"])
def test_wrong_shape_rejected(bad):
    # one integrand contract: (2, nodes) is no vector integrand of two rows
    with pytest.raises(IntegrandError):
        integrate(bad, 0.0, 1.0)
    # an empty interval calls no integrand, so its value is the complex 0
    res = integrate(bad, 1.0, 1.0)
    assert res == QuadResult(0j, 0.0, 0) and type(res.value) is complex
