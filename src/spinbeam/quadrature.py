"""Adaptive integration of complex-valued integrands on finite intervals.

This is the independent oracle used to cross-check every closed form in
the package: spectral profile integrals, momentum-space reconstruction,
spectrum normalization and the spin expectation.

The scheme is a Gauss-Legendre pair per panel (7-point low rule, 15-point
high rule, nodes from numpy), with the per-panel error taken as the
magnitude of the difference between the two rules; a batch of panels
takes one integrand call and three matrix-vector products.  Panels
are split at their midpoint, worst panel first, until the summed error
estimate meets ``abs_tol + rel_tol * |value|``.  The final sum runs over
panels sorted by left endpoint, so results are bit-reproducible and
independent of refinement order.

Integrands are called with a 1-D float64 array of nodes and must
return a matching array (complex or real); a result of any other shape
raises :class:`IntegrandError`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrandError

__all__ = ["QuadResult", "integrate"]

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate((_NODES_HI, _NODES_LO))

_MAX_PANELS = 200_000


@dataclass(frozen=True)
class QuadResult:
    """Value, reported error bound and evaluation count of one integral.

    ``error_estimate`` is the sum of per-panel embedded-rule differences;
    it is an estimate, not a guarantee.
    """

    value: complex
    error_estimate: float
    evaluations: int


def _rule(f, lo: np.ndarray, hi: np.ndarray) -> tuple[list, list]:
    """Values and error estimates of the panels [lo[i], hi[i]], from one integrand call.

    BLAS may sum a one-panel batch in another order than a larger one, but
    the panel tree fixes the batches, so refinement order cannot change a value.
    """
    half = 0.5 * (hi - lo)
    x = ((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES[None, :]).ravel()
    y = np.asarray(f(x), dtype=complex)
    if y.shape != x.shape:
        raise IntegrandError("integrand returned a result of the wrong shape")
    if not np.all(np.isfinite(y)):
        raise IntegrandError("integrand returned a non-finite value")
    y = y.reshape(lo.size, _NODES.size)
    # the 15-point L1 norm puts a roundoff floor under the error
    value = half * (y[:, :15] @ _WEIGHTS_HI)
    low = half * (y[:, 15:] @ _WEIGHTS_LO)
    l1 = half * (np.abs(y[:, :15]) @ _WEIGHTS_HI)
    return value.tolist(), (np.abs(value - low) + 1e-16 * l1).tolist()


def integrate(
    f,
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_depth: int = 60,
    initial_panels: int = 1,
) -> QuadResult:
    """Integrate ``f`` over [a, b] adaptively to the requested tolerance.

    ``initial_panels`` pre-splits the interval uniformly before any
    adaptive refinement; callers facing oscillatory integrands should set
    it so each starting panel spans at most one oscillation period.

    Raises :class:`ConvergenceError` (carrying the best result) if the
    tolerance cannot be met within ``max_depth`` panel splits, and
    :class:`IntegrandError` on non-finite integrand values or a result
    whose shape does not match the nodes.
    """
    if not (a <= b) or not math.isfinite(a) or not math.isfinite(b):
        raise ValueError("integration limits must be finite with a <= b")
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise ValueError("tolerances must be positive")
    if a == b:
        return QuadResult(0.0 + 0.0j, 0.0, 0)
    n_init = max(1, int(initial_panels))
    edges = np.linspace(a, b, n_init + 1)

    heap = []  # entries: (-err, left, right, depth, value, err)

    def add(lo, hi, depth):
        values, errors = _rule(f, lo, hi)
        for x0, x1, v, e in zip(lo.tolist(), hi.tolist(), values, errors):
            heapq.heappush(heap, (-e, x0, x1, depth, v, e))
        return lo.size * _NODES.size

    evals = add(edges[:-1], edges[1:], 0)

    def totals():
        v = sum(item[4] for item in sorted(heap, key=lambda t: t[1]))
        e = math.fsum(item[5] for item in heap)
        return v, e

    value, error = totals()
    while error > abs_tol + rel_tol * abs(value):
        _, lo, hi, depth, _, _ = heap[0]
        if depth >= max_depth or (hi - lo) < 1e-15 * (abs(lo) + abs(hi) + 1.0):
            raise ConvergenceError(
                f"tolerance not met after depth {depth}: estimate {error:.3e}",
                QuadResult(value, error, evals),
            )
        heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        evals += add(np.array([lo, mid]), np.array([mid, hi]), depth + 1)
        value, error = totals()
        if len(heap) > _MAX_PANELS:
            raise ConvergenceError(
                f"panel budget exhausted: estimate {error:.3e}",
                QuadResult(value, error, evals),
            )
    return QuadResult(value, error, evals)
