"""Adaptive integrator against antiderivative and gamma-function oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbeam import quadrature
from spinbeam.errors import ConvergenceError, IntegrandError
from spinbeam.quadrature import (_BATCH_VALUES, _MAX_PANELS, _NODES, _WEIGHTS, QuadResult,
                                 _worst_panels, integrate)


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
    # 900 panels of 15 nodes
    assert res.evaluations == 900 * _NODES.size == 13500
    # one integrand call per level of the panel tree, not one per split
    assert len(calls) <= _tree_depth(calls, b / 60) + 1
    assert len(calls) == 4
    # the panel tree and the left-to-right sum of the scalar rule, bit for bit
    assert res.value == complex(-2.2427892876208944e-13, -3.594347042223944e-14)
    assert res.error_estimate == 6.761255530297898e-13


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
    # a round hands its children to the integrand in bounded batches
    assert max(x.size for x in calls) <= _BATCH_VALUES
    assert len(calls) > depth + 1


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
    with pytest.raises(ValueError):
        integrate(f, 0.0, 1.0, abs_tol=0.0)


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
    # pins which panels split: 7 initial panels and 5 splits, 17 panels of 15 nodes
    assert r1.evaluations == 17 * _NODES.size == 255
    assert r1.value == complex(0.5217225983737773, 0.3439040490376525)
    assert r1.error_estimate == 4.4777325467042976e-11
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


def test_scalar_integrand_rejected():
    # integrands receive an array of nodes and must return one of that shape
    with pytest.raises(IntegrandError):
        integrate(lambda x: 1.0, 0.0, 1.0)


# ----------------------------------------------------------------------
# vector integrands: rows of shape (rows, nodes) on one panel tree, where a
# row that meets its tolerance retires
# ----------------------------------------------------------------------

def _chirp(x):
    return np.exp(1j * np.square(x)) / (1.0 + x)


def _rows(*fs):
    """A vector integrand whose rows are the functions ``fs``, and the list
    of the row index arrays its refinement calls ask for."""
    asked = []

    def f(x, rows=None):
        if rows is not None:
            asked.append(rows.tolist())
        return np.stack([fs[i](x) + 0j for i in (range(len(fs)) if rows is None else rows)])

    return f, asked


def test_vector_rows_meet_their_own_tolerances():
    # two rows whose scales differ by 1e6: the small row, the one that needs
    # refinement, must not ride on the large row's tolerance
    rows = (lambda x: 1e6 / (1.0 + x), _chirp)
    abs_tol, rel_tol = 1e-12, 1e-10
    res = integrate(_rows(*rows)[0], 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
    assert res.value.shape == res.error_estimate.shape == (2,)
    for f, value, error in zip(rows, res.value, res.error_estimate):
        alone = integrate(f, 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
        assert error <= abs_tol + rel_tol * abs(value)
        assert abs(value - alone.value) <= 2.0 * (abs_tol + rel_tol * abs(alone.value))


def _retiring_rows():
    # rows that meet the tolerance after different numbers of rounds: a
    # cubic on the first panels, then ever faster chirps
    return _rows(lambda x: x ** 3, _chirp, lambda x: np.exp(3j * np.square(x)),
                 lambda x: np.exp(8j * np.square(x)) * np.cos(x))


def test_retired_rows_are_not_asked_for_again():
    f, asked = _retiring_rows()
    abs_tol, rel_tol = 1e-12, 1e-10
    res = integrate(f, 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
    # every row meets its tolerance, the cubic exactly
    assert np.all(res.error_estimate <= abs_tol + rel_tol * np.abs(res.value))
    assert abs(res.value[0] - 6.0 ** 4 / 4.0) <= 1e-12
    # each refinement call asks for a subset of the rows of the call before,
    # so a retired row never comes back; the cubic never refines, and the
    # chirps retire one by one
    assert asked[0] == [1, 2, 3] and asked[-1] == [3]
    assert all(set(later) <= set(earlier) for earlier, later in zip(asked, asked[1:]))
    assert {len(rows) for rows in asked} == {1, 2, 3}


def test_retired_row_keeps_the_value_of_its_round(monkeypatch):
    # a depth cap stops the integral after each round in turn, and its best
    # result is the state of that round: a row that met its tolerance there
    # ends with exactly that value and error
    f = _retiring_rows()[0]
    abs_tol, rel_tol = 1e-12, 1e-10
    final = integrate(f, 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
    seen_partial = False
    for cap in range(1, 30):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", cap)
        try:
            integrate(f, 0.0, 6.0, abs_tol=abs_tol, rel_tol=rel_tol, initial_panels=7)
            break
        except ConvergenceError as err:
            best = err.result
        met = best.error_estimate <= abs_tol + rel_tol * np.abs(best.value)
        assert np.all(best.value[met] == final.value[met])
        assert np.all(best.error_estimate[met] == final.error_estimate[met])
        seen_partial |= bool(met[1:].any() and not met.all())
    assert seen_partial


def test_vector_evaluations_count_abscissae():
    # the scalar chirp splits 5 times; a row of zeros never leads a split
    f, asked = _rows(_chirp, np.zeros_like, lambda x: 0.5 * _chirp(x))
    res = integrate(f, 0.0, 6.0, initial_panels=7)
    assert res.evaluations == 17 * _NODES.size == 255
    scalar = integrate(_chirp, 0.0, 6.0, initial_panels=7)
    assert res.value[0] == scalar.value and res.value[1] == 0.0
    # the row of zeros meets its tolerance on the first call and retires
    assert asked and all(rows == [0, 2] for rows in asked)


def test_one_row_vector_matches_scalar():
    res = integrate(_rows(_chirp)[0], 0.0, 6.0, initial_panels=7)
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
    # three rows that all refine; a refinement call must return the rows it
    # asks for, as a 2-D array, not fewer rows or one 1-D row
    for refined in (lambda x, rows: np.ones((rows.size - 1, x.size)) * np.exp(20.0 * x),
                    lambda x, rows: np.exp(20.0 * x)):
        def f(x, rows=None):
            return np.ones((3, x.size)) * np.exp(20.0 * x) if rows is None else refined(x, rows)

        with pytest.raises(IntegrandError):
            integrate(f, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-14)


def test_vector_non_finite_row_rejected():
    def bad(x):
        out = np.ones((3, x.size), dtype=complex)
        out[2, x > 0.5] = np.inf
        return out

    with pytest.raises(IntegrandError):
        integrate(bad, 0.0, 1.0)


def test_vector_convergence_failure_carries_best_arrays(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    f = _rows(np.cos, lambda x: np.abs(x - 1.0 / 3.0) ** -0.9)[0]
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    best = err.value.result
    assert best.value.shape == best.error_estimate.shape == (2,)
    assert abs(best.value[0] - math.sin(1.0)) <= 1e-13
    assert best.error_estimate[1] > 1e-13


# the vector loop's panel tree, retirements and left-to-right sums, bit for bit

def test_vector_retirement_rounds_pinned():
    # three chirps that retire after the first, third and fifth refinement calls
    f, asked = _rows(_chirp, lambda x: np.exp(3j * np.square(x)),
                     lambda x: np.exp(8j * np.square(x)) * np.cos(x))
    res = integrate(f, 0.0, 6.0, initial_panels=7)
    assert asked == [[0, 1, 2], [1, 2], [1, 2], [2], [2]]
    assert res.evaluations == 2865
    assert res.value.tolist() == [complex(0.521722598373777, 0.34390404903765237),
                                  complex(0.3874956562521259, 0.35125132396852327),
                                  complex(0.2198202350220545, 0.2093354907740385)]
    assert res.error_estimate.tolist() == [3.9254628107245546e-11, 4.110075098270177e-12,
                                           1.5561724185648894e-11]


def test_vector_convergence_failure_best_pinned(monkeypatch):
    # the cosine retires on the first call; the singular row refines to the depth cap
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    f, asked = _rows(np.cos, lambda x: np.abs(x - 1.0 / 3.0) ** -0.9)
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    best = err.value.result
    assert asked == [[1], [1], [1], [1]]
    assert best.evaluations == 315
    assert best.value.tolist() == [complex(0.8414709848078967, 0.0), complex(8.875840862946392, 0.0)]
    assert best.error_estimate.tolist() == [3.0619170340582096e-16, 0.4748954365224322]
