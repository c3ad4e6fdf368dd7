"""The Clenshaw-Curtis ladder against antiderivative, Chebyshev and mpmath oracles."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbeam import quadrature
from spinbeam.errors import ConvergenceError, IntegrandError
from spinbeam.quadrature import _MAX_RUNG, _MIN_RUNG, QuadResult, _clenshaw_curtis, integrate


def _counted(f):
    """``f``, and the list of the node arrays it is called with."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


def test_constant_integrand():
    res = integrate(lambda x: np.ones_like(x, dtype=complex), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-14
    assert res.error_estimate <= 1e-13
    assert res.evaluations == _MIN_RUNG + 1


def test_complex_exponential():
    # antiderivative -i e^{ix} gives exactly 2i on [0, pi]
    res = integrate(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert abs(res.value - 2.0j) <= 1e-12


def test_gaussian_spectrum_normalization():
    # the Gaussian fills a tenth of [0, k] and takes a few rungs
    w0, k = 1.0, 100.0

    def integrand(kap):
        return 2.0 * w0 ** 2 * np.exp(-w0 ** 2 * np.square(kap)) * kap

    res = integrate(integrand, 0.0, k, abs_tol=1e-13, rel_tol=1e-12)
    assert abs(res.value - 1.0) <= 1e-10
    assert res.evaluations > _MIN_RUNG + 1


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


def test_polynomial_exact_on_the_first_rung():
    # the first rung integrates every polynomial of degree <= 64 exactly, and
    # their Chebyshev tail is roundoff alone
    for degree in (13, 28, 63):
        res = integrate(lambda x: x ** degree, 0.0, 1.0, abs_tol=1e-9, rel_tol=1e-6)
        assert abs(res.value - 1.0 / (degree + 1)) <= 1e-15
        assert res.error_estimate <= 1e-14
        assert res.evaluations == _MIN_RUNG + 1


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


def test_oscillatory_integrand_climbs_one_call_per_rung():
    # 160 periods, a phase of 1005 radians: the ladder climbs to the rung of
    # 2048, past half the phase, taking every node of each rung in one call
    b = 40.0 * math.pi
    f, calls = _counted(lambda x: np.exp(8j * x))
    res = integrate(f, 0.0, b)
    exact = (np.exp(8j * b) - 1.0) / 8j
    assert abs(res.value - exact) <= 1e-10
    assert [x.size for x in calls] == [2 ** n + 1 for n in range(6, 12)]
    assert res.evaluations == sum(x.size for x in calls) == 4038


def test_rung_budget_stops_the_climb_in_bounded_time():
    # about 1.6 million periods need a rung past the budget: the climb takes
    # every rung up to 2^18, in 76 calls of at most 2^13 nodes (one for each
    # rung to 4096, then 2, 3, 5, 9, 17 and 33), and the rung past it forms no
    # node
    f, calls = _counted(lambda x: np.exp(1e7j * x))
    start = time.perf_counter()
    with pytest.raises(ConvergenceError,
                       match="needs a rung of 524288, past the budget of 262144") as err:
        integrate(f, 0.0, 1.0)
    assert time.perf_counter() - start < 5.0
    assert len(calls) == 76
    assert all(x.size <= quadrature._BLOCK_ARGUMENTS for x in calls)
    assert sum(x.size for x in calls) == sum(2 ** n + 1 for n in range(6, 19)) == 524_237
    best = err.value.result
    assert isinstance(best, QuadResult)
    assert math.isfinite(abs(best.value)) and best.error_estimate > 1e-12
    assert best.evaluations == 524_237


def test_memory_stays_within_the_last_rung():
    # sixteen modes driven to the budget: the rule of the last rung, 2^18, and
    # its values take about 125 bytes a node of traced memory, and the
    # integrand's (16, nodes) intermediates stay within calls of 2^13 nodes
    # (a call of all 2^18 + 1 nodes took 149 MB)
    modes = np.arange(1, 17)
    f = lambda x: np.exp(1e7j * np.multiply.outer(modes, x)).sum(axis=0)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            integrate(f, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * (_MAX_RUNG + 1)


def test_convergence_failure_carries_best_result(monkeypatch):
    # the budget is read at each rung: with the last rung at 256 a singular
    # integrand stops after three calls, carrying the result of the third
    monkeypatch.setattr(quadrature, "_MAX_RUNG", 256)
    f, calls = _counted(lambda x: np.abs(x - 1.0 / 3.0) ** -0.9)
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    assert [x.size for x in calls] == [65, 129, 257]
    assert isinstance(err.value.result, QuadResult)
    assert err.value.result.evaluations == 451
    assert err.value.result.error_estimate > 0.0


@pytest.mark.parametrize("where", [lambda x: x > 0.5, lambda x: x == -1.0, lambda x: x == 1.0],
                         ids=["interior", "left-end", "right-end"])
def test_non_finite_integrand_rejected(where):
    # the closed rule takes the ends too
    def bad(x):
        out = np.asarray(x, dtype=complex).copy()
        out[where(x)] = np.nan
        return out

    with pytest.raises(IntegrandError):
        integrate(bad, -1.0, 1.0)


def test_overflowing_integral_rejected_without_warning():
    # every value is finite, but the integral, 1e309, overflows: a value or
    # error that is not finite never meets the tolerance, and the sums that
    # overflow warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrandError, match="not finite on the rung of 64"):
            integrate(lambda x: np.full_like(x, 1e308), 0.0, 10.0)


def test_validation_errors():
    f = lambda x: x + 0j
    # b - a overflowing to inf once gave a NaN value and error estimate
    for a, b in ((1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                 (-1e308, 1e308)):
        with pytest.raises(ValueError, match="limits"):
            integrate(f, a, b)
    # a NaN tolerance compares false both ways, so it must fail the check
    # rather than stop the climb at the first rung
    for tols in (dict(abs_tol=0.0), dict(abs_tol=math.nan), dict(rel_tol=math.nan),
                 dict(abs_tol=math.nan, rel_tol=math.nan)):
        with pytest.raises(ValueError):
            integrate(f, 0.0, 1.0, **tols)


def test_degenerate_interval():
    res = integrate(lambda x: np.exp(x), 2.0, 2.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_deterministic_repeat():
    f, calls = _counted(lambda x: np.exp(1j * np.square(x)) / (1.0 + x))
    r1 = integrate(f, 0.0, 6.0)
    r2 = integrate(f, 0.0, 6.0)
    assert r1 == r2
    # the first rung meets the tolerance, in one call each
    assert [x.size for x in calls] == [65, 65]
    assert np.array_equal(calls[0], calls[1])
    assert isinstance(r1.value, complex) and isinstance(r1.error_estimate, float)


def test_deterministic_repeat_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        want = complex(mp.quad(lambda x: mp.exp(1j * x * x) / (1 + x), mp.linspace(0, 6, 25)))
    res = integrate(lambda x: np.exp(1j * np.square(x)) / (1.0 + x), 0.0, 6.0)
    assert abs(res.value - want) <= 1e-15


# ----------------------------------------------------------------------
# the Clenshaw-Curtis rule on [0, 1]
# ----------------------------------------------------------------------

_RUNGS = [_MIN_RUNG, 2 * _MIN_RUNG, 2 ** 10]


@pytest.mark.parametrize("rung", _RUNGS)
def test_weights_integrate_chebyshev_polynomials_through_degree_n(rung):
    # T_k(2t - 1) on [0, 1] is half of T_k on [-1, 1], whose integral is
    # 2/(1 - k^2) for even k and 0 for odd k, up to degree N; the T_k come
    # from numpy's three-term recurrence, not from the cosines the rule is
    # built on
    t, matrix = _clenshaw_curtis(rung)
    want = [1.0 / (1.0 - k * k) if k % 2 == 0 else 0.0 for k in range(rung + 1)]
    got = np.polynomial.chebyshev.chebvander(2.0 * t - 1.0, rung).T @ matrix[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("rung", _RUNGS)
def test_tail_columns_are_the_last_three_chebyshev_coefficients(rung):
    # c_k = (1/N) sum'' f_l cos(pi k l / N), k = N - 2, N - 1, N, as a plain
    # cosine sum with the ends halved
    _, matrix = _clenshaw_curtis(rung)
    l = np.arange(rung + 1)
    halved = np.where((l == 0) | (l == rung), 0.5, 1.0) / rung
    for column, k in enumerate((rung - 2, rung - 1, rung), start=1):
        want = halved * np.cos(math.pi * k * l / rung)
        assert np.max(np.abs(matrix[:, column] - want)) <= 1e-15


@pytest.mark.parametrize("rung", _RUNGS + [_MAX_RUNG // 2])
def test_rung_nodes_are_every_other_node_of_the_next(rung):
    # cos^2(pi l / 2N) at l is cos^2(pi 2l / 4N): nested bit for bit, from
    # 1 down to 0
    t, _ = _clenshaw_curtis(rung)
    finer, _ = _clenshaw_curtis(2 * rung)
    assert np.array_equal(t, finer[::2])
    assert t[0] == 1.0 and 0.0 <= t[-1] < 1e-32 and np.all(np.diff(t) < 0.0)


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
