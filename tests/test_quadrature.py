"""Adaptive integrator against antiderivative and gamma-function oracles."""

import math
import sys
import time

import mpmath as mp
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
    # keeping 1 + 0.5 meets half of 3; of equal errors the leftmost split
    # first; a round splits the union of the rows' panels
    errors = np.array([[1.0, 4.0, 2.0, 0.5], [1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 5.0]])
    assert _worst_panels(errors[:1], np.array([3.0])).tolist() == [False, True, True, False]
    assert _worst_panels(errors[1:2], np.array([2.5])).tolist() == [True, True, True, False]
    assert _worst_panels(errors[1:], np.array([4.0, 1.0])).tolist() == [True, True, False, True]


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
    value, error, _ = quadrature._rule(f, lo, hi)
    compared = 0
    for a, b, ours, estimate in zip(lo, hi, error[0], value[0]):
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


# ----------------------------------------------------------------------
# vector integrands: rows of shape (rows, nodes) on one panel tree, each
# meeting its own tolerance
# ----------------------------------------------------------------------

def _chirp(x):
    return np.exp(1j * np.square(x)) / (1.0 + x)


def _rows(*fs):
    """A vector integrand whose rows are the functions ``fs``."""
    return lambda x: np.stack([f(x) + 0j for f in fs])


def test_vector_rows_meet_their_own_tolerances():
    # two rows whose scales differ by 1e6: the small row, the one that needs
    # refinement, must not ride on the large row's tolerance
    rows = (lambda x: 1e6 / (1.0 + x), _chirp)
    abs_tol, rel_tol = 1e-12, 1e-10
    res = integrate(_rows(*rows), 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
    assert res.value.shape == res.error_estimate.shape == (2,)
    for f, value, error in zip(rows, res.value, res.error_estimate):
        alone = integrate(f, 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
        assert error <= abs_tol + rel_tol * abs(value)
        assert abs(value - alone.value) <= 2.0 * (abs_tol + rel_tol * abs(alone.value))


def test_one_argument_vector_integrand_refines():
    # rows that meet the tolerance after different numbers of rounds, a
    # cubic on the first panels, then ever faster chirps; every call,
    # refinement calls too, is f(x) and returns every row
    f, calls = _counted(_rows(lambda x: x ** 3, _chirp, lambda x: np.exp(3j * np.square(x)),
                              lambda x: np.exp(8j * np.square(x)) * np.cos(x)))
    abs_tol, rel_tol = 1e-12, 1e-10
    res = integrate(f, 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
    assert len(calls) > 1
    # every row meets its tolerance, the cubic exactly
    assert np.all(res.error_estimate <= abs_tol + rel_tol * np.abs(res.value))
    assert abs(res.value[0] - 6.0 ** 4 / 4.0) <= 1e-12


def test_vector_evaluations_count_abscissae():
    # the scalar chirp splits 4 times; a row of zeros never leads a split,
    # and every call returns it with the others
    f, calls = _counted(_rows(_chirp, np.zeros_like, lambda x: 0.5 * _chirp(x)))
    res = integrate(f, 0.0, 6.0, initial_panels=7)
    assert res.evaluations == 15 * _NODES.size == 225
    assert [x.size for x in calls] == [7 * _NODES.size, 8 * _NODES.size]
    scalar = integrate(_chirp, 0.0, 6.0, initial_panels=7)
    assert res.value[0] == scalar.value and res.value[1] == 0.0
    assert res.value[2] == 0.5 * scalar.value


def test_one_row_vector_matches_scalar():
    res = integrate(_rows(_chirp), 0.0, 6.0, initial_panels=7)
    scalar = integrate(_chirp, 0.0, 6.0, initial_panels=7)
    assert res.value.shape == (1,)
    assert res.value[0] == scalar.value and res.error_estimate[0] == scalar.error_estimate
    assert res.evaluations == scalar.evaluations


@pytest.mark.parametrize("bad", [
    lambda x: np.ones((2, x.size + 1), dtype=complex),
    lambda x: np.ones((2, 3, x.size), dtype=complex),
    lambda x: np.ones((x.size, 2), dtype=complex),
], ids=["columns-n+1", "three-axes", "transposed"])
def test_vector_wrong_shape_rejected(bad):
    with pytest.raises(IntegrandError):
        integrate(bad, 0.0, 1.0)


def test_vector_row_count_must_not_change():
    # three rows that all refine; a later call must return as many rows as
    # the first, as a 2-D array, not fewer rows or one 1-D row
    for later in (lambda x: np.ones((2, x.size)) * np.exp(20.0 * x),
                  lambda x: np.exp(20.0 * x)):
        calls = []

        def f(x):
            calls.append(x)
            return np.ones((3, x.size)) * np.exp(20.0 * x) if len(calls) == 1 else later(x)

        with pytest.raises(IntegrandError):
            integrate(f, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-14)
        assert len(calls) == 2


def test_vector_non_finite_row_rejected():
    def bad(x):
        out = np.ones((3, x.size), dtype=complex)
        out[2, x > 0.5] = np.inf
        return out

    with pytest.raises(IntegrandError):
        integrate(bad, 0.0, 1.0)


def test_vector_convergence_failure_carries_best_arrays(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    f = _rows(np.cos, lambda x: np.abs(x - 1.0 / 3.0) ** -0.9)
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    best = err.value.result
    assert best.value.shape == best.error_estimate.shape == (2,)
    assert abs(best.value[0] - math.sin(1.0)) <= 1e-13
    assert best.error_estimate[1] > 1e-13


# the vector loop's panel tree and left-to-right sums, bit for bit

def test_vector_rounds_pinned():
    # three chirps: the fastest leads every split, and the others refine with it
    f, calls = _counted(_rows(_chirp, lambda x: np.exp(3j * np.square(x)),
                              lambda x: np.exp(8j * np.square(x)) * np.cos(x)))
    res = integrate(f, 0.0, 6.0, initial_panels=7)
    assert [x.size // _NODES.size for x in calls] == [7, 14, 26, 42, 56]
    assert res.evaluations == 2175
    assert res.value.tolist() == [complex(0.5217225983737773, 0.34390404903765254),
                                  complex(0.3874956562521243, 0.3512513239685299),
                                  complex(0.21982023502205977, 0.209335490774042)]
    assert res.error_estimate.tolist() == [1.9513293764804372e-16, 6.204825677877698e-16,
                                           2.072128373528242e-11]
    # each row within its tolerance of mpmath
    oracles = (lambda x: mp.expj(x * x) / (1 + x), lambda x: mp.expj(3 * x * x),
               lambda x: mp.expj(8 * x * x) * mp.cos(x))
    with mp.workdps(20):
        for oracle, value in zip(oracles, res.value):
            exact = complex(mp.quad(oracle, mp.linspace(0, 6, 100)))
            assert abs(value - exact) <= 1e-12 + 1e-10 * abs(exact)


def test_vector_convergence_failure_best_pinned(monkeypatch):
    # the cosine meets its tolerance on the first call; the singular row
    # refines to the depth cap, and every call returns both rows
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    f, calls = _counted(_rows(np.cos, lambda x: np.abs(x - 1.0 / 3.0) ** -0.9))
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    best = err.value.result
    assert [x.size // _NODES.size for x in calls] == [1, 2, 4, 6, 6]
    assert best.evaluations == 285
    assert best.value.tolist() == [complex(0.8414709848078965, 0.0), complex(8.87584086294639, 0.0)]
    assert best.error_estimate.tolist() == [8.418419743951643e-17, 3.080963569481762]
