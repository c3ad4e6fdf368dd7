"""Adaptive integration of complex-valued integrands on finite intervals.

This is the independent oracle used to cross-check every closed form in
the package: spectral profile integrals, momentum-space reconstruction,
spectrum normalization and the spin expectation.

The scheme is the embedded Gauss-Kronrod 7/15 pair of QUADPACK's QK15
(Piessens et al., 1983): the 7 Gauss-Legendre nodes are every other one of
the 15 Kronrod nodes, so each panel takes the integrand at 15 nodes, its
value is the 15-point Kronrod sum and its error the magnitude of the
difference from the 7-point Gauss sum (without QUADPACK's rescaling of
that difference).  A batch of panels takes one integrand call and two
matrix products.  Panels
are split at their midpoint, worst panel first, until the summed error
estimate meets ``abs_tol + rel_tol * |value|``.  The final sum runs over
panels sorted by left endpoint, so results are bit-reproducible and
independent of refinement order.

Integrands are called with a 1-D float64 array of nodes and must
return a matching array (complex or real), or shape (rows, nodes) for a
vector integrand; a result of any other shape raises
:class:`IntegrandError`.  The rows of a vector integrand share one panel
tree, as in ``scipy.integrate.quad_vec``: each meets its own tolerance,
and the panel split next is the largest-error panel of the row with the
largest ratio of summed error to tolerance (with one row, the scalar rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrandError

__all__ = ["QuadResult", "integrate"]

# QK15 on [0, 1], outermost node first: the 8 Kronrod nodes, their weights,
# and the Gauss weights of the odd ones, the 4 nodes of the 7-point rule
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

# the 15 nodes on [-1, 1] in ascending order; the 7-point Gauss rule has
# weight on the odd indices only.  Columns of _WEIGHTS: Kronrod, Gauss.
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = _WGK[:-1] + _WGK[::-1]
_WEIGHTS[1::2, 1] = _WG[:-1] + _WG[::-1]

_MAX_PANELS = 200_000


@dataclass(frozen=True)
class QuadResult:
    """Value, reported error bound and evaluation count of one integral.

    ``error_estimate`` is the sum of per-panel embedded-rule differences;
    it is an estimate, not a guarantee.  Both are (rows,) arrays for a
    vector integrand; ``evaluations`` counts abscissae, not rows.
    """

    value: complex | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


def _rule(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """(rows, panels) values and error estimates of the panels [lo[i], hi[i]] from
    one integrand call, and whether the integrand is scalar (one 1-D row).

    BLAS may sum a one-panel batch in another order than a larger one, but
    the panel tree fixes the batches, so refinement order cannot change a value.
    """
    half = 0.5 * (hi - lo)
    x = ((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES[None, :]).ravel()
    y = np.asarray(f(x), dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise IntegrandError("integrand returned a result of the wrong shape")
    if not np.all(np.isfinite(y)):
        raise IntegrandError("integrand returned a non-finite value")
    scalar = y.ndim == 1
    y = y.reshape(-1, _NODES.size)
    value, low = half * (y @ _WEIGHTS).T.reshape(2, -1, lo.size)
    # the Kronrod L1 norm puts a roundoff floor under the error
    l1 = half * (np.abs(y) @ _WEIGHTS[:, 0]).reshape(-1, lo.size)
    return value, np.abs(value - low) + 1e-16 * l1, scalar


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

    Each row of a vector integrand meets ``abs_tol + rel_tol * |value_i|``.
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
    # (left, right, depth) of each panel, sorted by left endpoint; their
    # values and errors are the columns of two (rows, panels) arrays
    panels = [(lo, hi, 0) for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())]
    values, errors, scalar = _rule(f, edges[:-1], edges[1:])
    evals = n_init * _NODES.size
    while True:
        # summed left to right, as the panel tree orders them
        value = np.cumsum(values, axis=1)[:, -1]
        error = np.array([math.fsum(row) for row in errors.tolist()])
        best = QuadResult(complex(value[0]), float(error[0]), evals) if scalar else \
            QuadResult(value, error, evals)
        tol = abs_tol + rel_tol * np.abs(value)
        if np.all(error <= tol):
            return best
        # the worst row's largest error; the first of equal errors is the leftmost
        i = int(errors[np.argmax(error / tol)].argmax())
        lo, hi, depth = panels[i]
        if depth >= max_depth or (hi - lo) < 1e-15 * (abs(lo) + abs(hi) + 1.0) \
                or len(panels) > _MAX_PANELS:
            raise ConvergenceError(f"tolerance not met at depth {depth} with {len(panels)} "
                                   f"panels: estimate {np.max(error):.3e}", best)
        mid = 0.5 * (lo + hi)
        new = _rule(f, np.array([lo, mid]), np.array([mid, hi]))
        if len(new[0]) != len(values):
            raise IntegrandError("integrand returned a result of the wrong shape")
        evals += 2 * _NODES.size
        panels[i:i + 1] = [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        values, errors = (np.concatenate((old[:, :i], part, old[:, i + 1:]), axis=1)
                          for old, part in zip((values, errors), new))
