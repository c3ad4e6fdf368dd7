"""Clenshaw-Curtis quadrature on a ladder of nested rules, and its one climb.

The package's one quadrature rule: Clenshaw-Curtis on rungs of N + 1
nodes, N a power of two from ``_MIN_RUNG`` (64) to ``_MAX_RUNG`` (2^18).
The nodes of rung N are every other node of rung 2N; the weights come
from one FFT (Waldvogel, BIT 46, 195 (2006)), and the error of a rung is
estimated from its last three Chebyshev coefficients.  On smooth
integrands the rule converges as fast as Gauss-Legendre (Trefethen, SIAM
Rev. 50(1), 67 (2008)).  :func:`integrate` and the spectral profiles of
``beams`` climb it through one function, ``_climb``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrandError

__all__ = ["QuadResult", "integrate"]

# the first and the last rung; the last bounds the memory of an integral,
# its rule and its values, as well as its time
_MIN_RUNG = 64
_MAX_RUNG = 2 ** 18
# the cap on the arguments (points x nodes) of one integrand call, which bounds its memory
_BLOCK_ARGUMENTS = 2 ** 13


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate (from the Chebyshev tail of the last rung; not a
    guarantee) and evaluation count of one integral."""

    value: complex
    error_estimate: float
    evaluations: int


def _clenshaw_curtis(rung: int) -> tuple[np.ndarray, np.ndarray]:
    # The Clenshaw-Curtis nodes cos^2(pi l / 2 rung), l = 0 .. rung, on [0, 1],
    # and the (rung + 1, 4) matrix that takes the values there to the
    # integral, whose weights come from one FFT (Waldvogel, BIT 46, 195
    # (2006)), and to the Chebyshev coefficients
    # c_k = (1/rung) sum'' f_l cos(pi k l / rung) of k = rung - 2 .. rung
    l = np.arange(rung + 1)
    half = np.where(l % rung == 0, 0.5, 1.0) / rung  # sum'' halves l = 0 and rung
    moments = np.zeros(2 * rung)
    moments[:rung + 1:2] = 2.0 / (1.0 - np.square(l[::2], dtype=float))
    moments[[0, rung]] *= 0.5
    alternate = half * (-1.0) ** l  # cos(pi (rung - j) l / rung) = (-1)^l cos(pi j l / rung)
    matrix = np.stack((half * np.fft.rfft(moments).real,
                       alternate * np.cos(l * (2.0 * math.pi / rung)),
                       alternate * np.cos(l * (math.pi / rung)), alternate), axis=1)
    return np.square(np.cos(l * (0.5 * math.pi / rung))), matrix


def _climb(integrand, width: float, sweep: np.ndarray, rows: int, abs_tol: float,
           rel_tol: float, refuse) -> tuple[np.ndarray, np.ndarray]:
    # The integrals over [0, width] of ``rows`` integrands at each point of
    # ``sweep``, the phase its integrands sweep there: integrand(t, points)
    # returns their (rows, points, nodes) values at width t, t in [0, 1].  A
    # point starts on the power of two N >= max(64, sweep/2); each pass takes
    # the lowest pending rung, with every point on it.  Each row keeps the
    # value and error, 2 width (|c_{N-2}| + |c_{N-1}| + |c_N|), of its first
    # rung where the error meets abs_tol + rel_tol |value|, and IntegrandError
    # is raised where either is not finite.  Before any node of a rung past
    # _MAX_RUNG, refuse(point, why, values, errors) gives the error to raise,
    # with the point's rows of its last rung.  Returns (values, errors).
    rung = 2.0 ** np.ceil(np.log2(np.maximum(0.5 * sweep, _MIN_RUNG)))
    value = np.zeros((rows, sweep.size), dtype=complex)
    error = np.zeros(value.shape)
    # an interval of width 0 leaves every integral 0, and calls no integrand
    done = np.full(value.shape, not width > 0.0)
    while not done.all():
        pending = np.flatnonzero(~done.all(axis=0))
        if not rung[pending].max() <= _MAX_RUNG:
            at = pending[~(rung[pending] <= _MAX_RUNG)][0]
            raise refuse(at, f"needs a rung of {rung[at]:.0f}, past the budget of {_MAX_RUNG}",
                         value[:, at], error[:, at])
        lowest = int(rung[pending].min())
        on = pending[rung[pending] == lowest]
        t, matrix = _clenshaw_curtis(lowest)
        cap = max(1, _BLOCK_ARGUMENTS // (lowest + 1))
        for points in (on[i:i + cap] for i in range(0, on.size, cap)):
            # the nodes, in calls within the cap (a lone point's may take several)
            step = _BLOCK_ARGUMENTS // points.size
            values = np.concatenate([integrand(t[i:i + step], points)
                                     for i in range(0, t.size, step)], axis=-1)
            with np.errstate(over="ignore", invalid="ignore"):
                # (values @ matrix would copy the matrix to complex)
                sums = values.real @ matrix + 1j * (values.imag @ matrix)
                now = width * sums[..., 0]
                tail = 2.0 * width * np.sum(np.abs(sums[..., 1:]), axis=-1)
                met = tail <= abs_tol + rel_tol * np.abs(now)
            if not np.all(np.isfinite(now) & np.isfinite(tail)):
                raise IntegrandError(f"an integral is not finite on the rung of {lowest}")
            # rows that met their tolerance on a lower rung keep its value
            value[:, points] = np.where(done[:, points], value[:, points], now)
            error[:, points] = np.where(done[:, points], error[:, points], tail)
            done[:, points] |= met
        rung[on] *= 2.0
    return value, error


def integrate(f, a: float, b: float, abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> QuadResult:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    ``f`` takes a 1-D float64 array of nodes, both ends of [a, b] among them,
    in calls of at most 2^13 nodes, and returns an array of the same shape
    (complex or real).  The climb starts on rung 64 and ends at the first
    rung whose Chebyshev-tail error estimate meets ``abs_tol + rel_tol *
    |value|``.  Raises ValueError for limits that are not finite with a <= b,
    or whose difference overflows, or a tolerance that is not positive;
    :class:`ConvergenceError`, carrying the best result, that of the last
    rung, before any node of a rung past 2^18; and :class:`IntegrandError`
    on a result of another shape or an integral that is not finite.
    """
    # (b - a is not finite where a limit is not, or where it overflows)
    if not (a <= b) or not math.isfinite(b - a):
        raise ValueError("integration limits must be finite with a <= b and b - a finite")
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise ValueError("tolerances must be positive")
    width, evals = b - a, 0

    def integrand(t, points):
        nonlocal evals
        x = a + width * t
        y = np.asarray(f(x), dtype=complex)
        if y.shape != x.shape:
            raise IntegrandError("integrand returned a result of the wrong shape")
        evals += x.size
        return y[None, None]

    def refuse(at, why, value, error):
        return ConvergenceError(f"the integral {why}",
                                QuadResult(complex(value[0]), float(error[0]), evals))

    value, error = _climb(integrand, width, np.zeros(1), 1, abs_tol, rel_tol, refuse)
    return QuadResult(complex(value[0, 0]), float(error[0, 0]), evals)
