"""Adaptive integration of complex-valued integrands on finite intervals.

This is the independent oracle used to cross-check every closed form in
the package: spectral profile integrals, momentum-space reconstruction,
spectrum normalization and the spin expectation.

The scheme is a Gauss-Legendre pair per panel (7-point low rule, 15-point
high rule, nodes from numpy), with the per-panel error taken as the
magnitude of the difference between the two rules.  Panels
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


_NODES_PER_PANEL = _NODES_HI.size + _NODES_LO.size


def _panel_nodes(edges_lo: np.ndarray, edges_hi: np.ndarray) -> np.ndarray:
    mid = 0.5 * (edges_lo + edges_hi)[:, None]
    half = 0.5 * (edges_hi - edges_lo)[:, None]
    both = np.concatenate((_NODES_HI, _NODES_LO))
    return (mid + half * both[None, :]).ravel()


def _panels_eval(f, edges_lo, edges_hi):
    """Evaluate a batch of panels in one integrand call.

    Returns a list of (value, error, l1) per panel plus the evaluation
    count.  The per-panel reductions are independent of how panels were
    batched, so refinement order cannot change any value.
    """
    edges_lo = np.asarray(edges_lo, dtype=float)
    edges_hi = np.asarray(edges_hi, dtype=float)
    x = _panel_nodes(edges_lo, edges_hi)
    y = np.asarray(f(x), dtype=complex)
    if y.shape != x.shape:
        raise IntegrandError("integrand returned a result of the wrong shape")
    if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
        raise IntegrandError("integrand returned a non-finite value")
    y = y.reshape(edges_lo.size, _NODES_PER_PANEL)
    out = []
    for i in range(edges_lo.size):
        half = 0.5 * (edges_hi[i] - edges_lo[i])
        hi = half * np.dot(_WEIGHTS_HI, y[i, :15])
        lo = half * np.dot(_WEIGHTS_LO, y[i, 15:])
        l1 = abs(half) * float(np.dot(_WEIGHTS_HI, np.abs(y[i, :15])))
        out.append((hi, abs(hi - lo) + 1e-16 * l1, l1))
    return out, x.size


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

    # heap entries: (-err, left, right, depth, value, err)
    heap = []
    results, evals = _panels_eval(f, edges[:-1], edges[1:])
    for i, (val, err, _) in enumerate(results):
        heapq.heappush(heap, (-err, edges[i], edges[i + 1], 0, val, err))

    def totals():
        v = sum(item[4] for item in sorted(heap, key=lambda t: t[1]))
        e = math.fsum(item[5] for item in heap)
        return v, e

    value, error = totals()
    while error > abs_tol + rel_tol * abs(value):
        neg_err, lo, hi, depth, val, err = heapq.heappop(heap)
        if depth >= max_depth or (hi - lo) < 1e-15 * (abs(lo) + abs(hi) + 1.0):
            heapq.heappush(heap, (neg_err, lo, hi, depth, val, err))
            value, error = totals()
            raise ConvergenceError(
                f"tolerance not met after depth {depth}: estimate {error:.3e}",
                QuadResult(value, error, evals),
            )
        mid = 0.5 * (lo + hi)
        children, n = _panels_eval(f, np.array([lo, mid]), np.array([mid, hi]))
        evals += n
        for (x0, x1), (v2, e2, _) in zip(((lo, mid), (mid, hi)), children):
            heapq.heappush(heap, (-e2, x0, x1, depth + 1, v2, e2))
        if len(heap) > _MAX_PANELS:
            value, error = totals()
            raise ConvergenceError(
                f"panel budget exhausted: estimate {error:.3e}",
                QuadResult(value, error, evals),
            )
        value, error = totals()
    return QuadResult(value, error, evals)
