"""Clenshaw-Curtis quadrature on a ladder of nested rules.

The package's one quadrature rule: Clenshaw-Curtis on rungs of N + 1
nodes, N a power of two from ``_MIN_RUNG`` (64) to ``_MAX_RUNG`` (2^18).
The nodes of rung N are every other node of rung 2N; the weights come
from one FFT (Waldvogel, BIT 46, 195 (2006)), and the error of a rung is
estimated from its last three Chebyshev coefficients.  On smooth
integrands the rule converges as fast as Gauss-Legendre (Trefethen, SIAM
Rev. 50(1), 67 (2008)).  :func:`integrate` climbs the ladder for one
scalar integral; ``beams`` climbs it for spectral profiles, many points
and rows at a time.

The closed rule takes the integrand at both ends of the interval.
Integrands are called with a 1-D float64 array of nodes and must return
an array of the same shape (complex or real), one scalar integral per
call; a result of any other shape raises :class:`IntegrandError`.
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


@dataclass(frozen=True)
class QuadResult:
    """Value, reported error bound and evaluation count of one integral.

    ``error_estimate`` comes from the Chebyshev tail of the last rung; it is
    an estimate, not a guarantee.
    """

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


def integrate(f, a: float, b: float, abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> QuadResult:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    The integral climbs the Clenshaw-Curtis ladder from rung 64, taking all
    N + 1 nodes of each rung, which reach both ends of [a, b], in one
    integrand call.  It ends at the first rung whose error estimate,
    2 (b - a) (|c_{N-2}| + |c_{N-1}| + |c_N|) from the Chebyshev tail, meets
    ``abs_tol + rel_tol * |value|``.

    Raises ValueError for limits that are not finite with a <= b, or whose
    difference b - a overflows, or a tolerance that is not positive; :class:`ConvergenceError` (carrying the
    best result) before any node of a rung past ``_MAX_RUNG`` (2^18) is
    formed; and :class:`IntegrandError` on non-finite integrand values or a
    result whose shape is not that of the nodes.
    """
    # (b - a is not finite where a limit is not, or where it overflows)
    if not (a <= b) or not math.isfinite(b - a):
        raise ValueError("integration limits must be finite with a <= b and b - a finite")
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise ValueError("tolerances must be positive")
    if a == b:
        return QuadResult(0.0 + 0.0j, 0.0, 0)
    width = b - a
    rung, evals = _MIN_RUNG, 0
    while True:
        t, matrix = _clenshaw_curtis(rung)
        x = a + width * t
        y = np.asarray(f(x), dtype=complex)
        if y.shape != x.shape:
            raise IntegrandError("integrand returned a result of the wrong shape")
        if not np.all(np.isfinite(y)):
            raise IntegrandError("integrand returned a non-finite value")
        evals += x.size
        # (y @ matrix would copy the matrix to complex)
        sums = y.real @ matrix + 1j * (y.imag @ matrix)
        value = width * sums[0]
        error = 2.0 * width * float(np.sum(np.abs(sums[1:])))
        best = QuadResult(complex(value), error, evals)
        if not error > abs_tol + rel_tol * np.abs(value):
            return best
        rung *= 2
        if rung > _MAX_RUNG:
            raise ConvergenceError(f"tolerance not met on the last rung, {_MAX_RUNG}: "
                                   f"estimate {error:.3e}", best)
