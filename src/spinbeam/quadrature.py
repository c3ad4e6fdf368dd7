"""Adaptive integration of complex-valued integrands on finite intervals.

It integrates the spectral profiles of finite beams and, in ``verify``,
the position-space spin expectation that checks its closed form.

The scheme is the embedded Gauss-Kronrod 7/15 pair of QUADPACK's QK15
(Piessens et al., 1983): the 7 Gauss-Legendre nodes are every other one of
the 15 Kronrod nodes, so each panel takes the integrand at 15 nodes and its
value is the 15-point Kronrod sum.  Its error is QUADPACK's rescaled
estimate resasc min(1, (200 |K15 - G7| / resasc)^1.5), where resasc is the
Kronrod integral of |f - mean of f| on the panel, plus a roundoff floor of
1e-16 times the Kronrod L1 norm (not QUADPACK's 50 eps times it).  A batch
of panels takes one integrand call and three matrix products.

Refinement runs in rounds until the summed error estimate meets
``abs_tol + rel_tol * |value|``.  A round splits at their midpoints the
largest-error panels of every row that misses its tolerance, as many as
leave the panels that row keeps summing to at most half the tolerance,
and evaluates all their children together, in integrand calls no larger
than the first call or ``_BATCH_VALUES`` values (rows x nodes), whichever
is larger.  Integrand calls and the bookkeeping of the panel arrays then
follow the depth of the panel tree, not the number of splits.
A split panel gives way to its two children at its own position, so the
panels stay sorted by left endpoint and every sum runs over them left to
right: results are bit-reproducible.  A depth limit of ``_MAX_DEPTH``
halvings and a budget of ``_MAX_PANELS`` panels are checked before each
round, and the budget also before the initial split.

Integrands are called with a 1-D float64 array of nodes and must
return a matching array (complex or real), or shape (rows, nodes) for a
vector integrand; a result of any other shape raises
:class:`IntegrandError`.  The rows of a vector integrand share one panel
tree, and a round splits the union of the panels its missing rows pick
(with one row, the scalar rule).  Each row meets its own tolerance, as
one QUADPACK integral would, and then retires with the value and error
of that round: the first call ``f(x)`` returns every row, and refinement
calls ``f(x, rows)`` return only the rows of the index array ``rows``.
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

# the panel budget of one integral, and the most halvings of a first panel
_MAX_PANELS = 200_000
_MAX_DEPTH = 60
# cap on the integrand values (rows x nodes) of one refinement call, unless
# the first call was larger
_BATCH_VALUES = 2 ** 13


@dataclass(frozen=True)
class QuadResult:
    """Value, reported error bound and evaluation count of one integral.

    ``error_estimate`` is the sum of the per-panel QK15 estimates; it is an
    estimate, not a guarantee.  Both are (rows,) arrays for a
    vector integrand; ``evaluations`` counts abscissae, not rows.
    """

    value: complex | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


def _rule(f, lo: np.ndarray, hi: np.ndarray, *rows) -> tuple[np.ndarray, np.ndarray, bool]:
    """(rows, panels) values and error estimates of the panels [lo[i], hi[i]] from
    one integrand call ``f(x, *rows)``, and whether the integrand is scalar
    (one 1-D row).

    BLAS may sum a one-panel batch in another order than a larger one, but
    the panel tree and the rounds fix the batches, so a value repeats bit for bit.
    """
    half = 0.5 * (hi - lo)
    x = ((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES[None, :]).ravel()
    y = np.asarray(f(x, *rows), dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise IntegrandError("integrand returned a result of the wrong shape")
    if not np.all(np.isfinite(y)):
        raise IntegrandError("integrand returned a non-finite value")
    scalar = y.ndim == 1
    y = y.reshape(-1, _NODES.size)
    sums = y @ _WEIGHTS
    value, low = half * sums.T.reshape(2, -1, lo.size)
    # the Kronrod L1 norm of f puts a roundoff floor under the error, and that
    # of f less its mean (half the Kronrod sum) is QUADPACK's resasc
    l1 = half * (np.abs(y) @ _WEIGHTS[:, 0]).reshape(-1, lo.size)
    resasc = half * (np.abs(y - 0.5 * sums[:, :1]) @ _WEIGHTS[:, 0]).reshape(-1, lo.size)
    # QK15's rescaling resasc min(1, (200 |K15 - G7| / resasc)^1.5), which
    # keeps the raw difference where resasc is 0
    raw = np.abs(value - low)
    ratio = np.divide(200.0 * raw, resasc, out=np.ones_like(raw), where=resasc > 0.0)
    error = np.where(resasc > 0.0, resasc * np.minimum(ratio, 1.0) ** 1.5, raw)
    return value, error + 1e-16 * l1, scalar


def _worst_panels(errors: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Mask of the panels to split for the rows of ``errors`` with tolerances
    ``tol``: each row's largest-error panels (the first of equal errors the
    leftmost) until the panels it keeps sum to at most half its tolerance."""
    order = np.argsort(-errors, axis=1, kind="stable")
    # kept[:, i] sums the errors the row keeps if its i worst panels split;
    # summed from the smallest, it falls as i grows
    kept = np.cumsum(np.take_along_axis(errors, order, axis=1)[:, ::-1], axis=1)[:, ::-1]
    count = np.count_nonzero(kept > 0.5 * tol[:, None], axis=1)
    # a panel splits if its rank, its position in its row's order, is below the count
    return (np.argsort(order, axis=1) < count[:, None]).any(axis=0)


def integrate(
    f,
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    initial_panels: int = 1,
) -> QuadResult:
    """Integrate ``f`` over [a, b] adaptively to the requested tolerance.

    Each row of a vector integrand meets ``abs_tol + rel_tol * |value_i|``
    and retires; refinement calls ``f(x, rows)`` for the rows still missing.
    ``initial_panels`` pre-splits the interval uniformly before any
    adaptive refinement, and the integrand takes all of them in its first
    call; callers facing oscillatory integrands should set it so each
    starting panel spans at most one oscillation period.

    Refinement runs in rounds.  A round takes every row that misses its
    tolerance and splits, at their midpoints, that row's largest-error
    panels until the panels it keeps sum to at most half the tolerance;
    the union of these panels splits at once, and their children reach the
    integrand in calls of at most ``initial_panels`` panels or
    ``_BATCH_VALUES`` values (live rows x nodes), whichever is more, so no
    call is larger than both the first and the cap.  The number of integrand
    calls therefore follows the depth of the panel tree, not the number of
    splits.

    Raises :class:`ConvergenceError` (carrying the best result, every row) if a round
    would split a panel at depth ``_MAX_DEPTH``, or one too narrow to
    halve, or would take the tree past ``_MAX_PANELS`` panels (carrying no
    result, before any integrand call, if ``initial_panels`` does); and
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
    if n_init > _MAX_PANELS:
        raise ConvergenceError(f"{n_init} initial panels exceed the budget of {_MAX_PANELS}")
    edges = np.linspace(a, b, n_init + 1)
    # the ends and depths of the panels, sorted by left endpoint; their
    # values and errors are the columns of two (rows, panels) arrays
    lo, hi, depth = edges[:-1], edges[1:], np.zeros(n_init, dtype=int)
    values, errors, scalar = _rule(f, lo, hi)
    evals = n_init * _NODES.size
    # live: the rows still refining, which values and errors hold; a row that
    # meets its tolerance keeps its entries of value and error and retires
    live = np.arange(len(values))
    value, error = np.empty(live.size, dtype=complex), np.empty(live.size)
    while True:
        # summed left to right, as the panel tree orders them
        value[live] = np.cumsum(values, axis=1)[:, -1]
        error[live] = [math.fsum(row) for row in errors.tolist()]
        best = QuadResult(complex(value[0]), float(error[0]), evals) if scalar else \
            QuadResult(value, error, evals)
        tol = abs_tol + rel_tol * np.abs(value[live])
        missed = error[live] > tol
        if not missed.any():
            return best
        live, values, errors, tol = live[missed], values[missed], errors[missed], tol[missed]
        split = _worst_panels(errors, tol)
        left, right = lo[split], hi[split]
        if depth[split].max() >= _MAX_DEPTH or lo.size + left.size > _MAX_PANELS or \
                np.any(right - left < 1e-15 * (np.abs(left) + np.abs(right) + 1.0)):
            raise ConvergenceError(f"tolerance not met at depth {depth.max()} with {lo.size} "
                                   f"panels: estimate {np.max(error):.3e}", best)
        # the children of each split panel, left then right, for the live rows
        # in calls of no more values than the first call or the cap
        mid = 0.5 * (left + right)
        child_lo = np.stack((left, mid), axis=1).ravel()
        child_hi = np.stack((mid, right), axis=1).ravel()
        batch = max(n_init, _BATCH_VALUES // (live.size * _NODES.size))
        parts = [_rule(f, child_lo[i:i + batch], child_hi[i:i + batch], *(() if scalar else (live,)))
                 for i in range(0, child_lo.size, batch)]
        if any(len(part[0]) != live.size or part[2] != scalar for part in parts):
            raise IntegrandError("integrand returned a result of the wrong shape")
        evals += child_lo.size * _NODES.size
        # each split panel gives way to its two children at its own position,
        # so the panels stay sorted by left endpoint
        copies = 1 + split
        child = np.repeat(split, copies)
        lo, hi, depth = np.repeat(lo, copies), np.repeat(hi, copies), np.repeat(depth, copies) + child
        lo[child], hi[child] = child_lo, child_hi
        values, errors = np.repeat(values, copies, axis=1), np.repeat(errors, copies, axis=1)
        values[:, child] = np.concatenate([part[0] for part in parts], axis=1)
        errors[:, child] = np.concatenate([part[1] for part in parts], axis=1)
