"""Skyrmion topological charge of finite radial beam textures.

Three routes are provided and cross-checked:

* the closed formula in j alone,
* the boundary-value definition q = (s_z at infinity - s_z on axis)/2,
  with the large-radius limit extracted by Richardson extrapolation,
* a discretized solid-angle surface integral over the sampled texture.

The last two are not independent.  For a cylindrically symmetric unit
texture with a single azimuthal winding the solid-angle integral reduces
to the integral of sin(theta) d(theta) over the radial polar-angle
profile.  Taken from r_max in to the axis, half that integral is
(s_z(r_max) - s_z on axis)/2: q with r_max for infinity, in q's own
orientation.  Its midpoint sum converges to it as O(1/n_r^2) (at the
waist of a k w0 = 100 beam it is off by -3.0e-4 at n_r = 256 and
-1.2e-6 at n_r = 4096 for j = 3/2).  So the integral is the boundary
route at r_max without its Richardson step: agreement with the boundary
value checks the extrapolation, not the texture.

Every route is one call of a private function that evaluates the
texture once, over the integral grid (if any) and the three boundary
radii.  Errors come in one order: the kind of beam and k w0, then n_r
and r_max, then z (inside the texture), then two gates that raise
:class:`IllConvergedLimitError`: the two Richardson extrapolants of s_z
at infinity, and then the integral and the boundary value, must each
agree within 1e-2.  A usage error is an ``_ArgumentError`` that names
'beam', 'n_r', 'r_max', 'r' or 'z'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamSpec, Configuration, Finite
from .errors import IllConvergedLimitError, _ArgumentError
from .polarization import closed_form_texture
from .specfun import HalfInt

__all__ = [
    "ChargeReport",
    "charge_formula",
    "charge_boundary",
    "charge_integral",
    "full_charge_report",
]

_EXTRAPOLATION_RADII = (10.0, 14.0, 20.0)  # in units of w0
_SPREAD_GATE = 1e-2
_MIN_N_R = 64
# the midpoint sum is off by O(1/n_r^2), about 1.2e-6 at n_r = 4096: past
# 2^20 no change is measurable, and the grid would only exhaust memory
_MAX_N_R = 2 ** 20
_MIN_R_MAX = 10.0  # in units of w0


@dataclass(frozen=True)
class ChargeReport:
    """Charge by all routes and the boundary limits used; None for a route not run."""

    q_formula: float
    q_boundary: float
    q_integral: float | None
    s_z_axis: float
    s_z_infinity: float
    grid_resolution: int | None


def charge_formula(j: HalfInt) -> float:
    """Closed-form charge -1/2 (1 + j / (j^2 + 1/4)).

    Valid as stated for j >= 1/2 (the derivation fixes that branch); for
    negative j the boundary-based charge is the mirror value -q(-j),
    which :func:`charge_boundary` reports as ``q_formula``.
    """
    if not isinstance(j, HalfInt) or j.is_integer:
        raise ValueError("j must be a half-odd-integer HalfInt")
    jf = float(j)
    return -0.5 * (1.0 + jf / (jf * jf + 0.25))


def _charge(spec: BeamSpec, z: float, who: str, grid: tuple | None = None) -> ChargeReport:
    """The report of the boundary route, and of the integral route when
    ``grid`` is its (n_r, r_max), from one texture evaluation."""
    if not isinstance(spec.kind, Finite) or spec.configuration is not Configuration.RADIAL:
        raise _ArgumentError("beam", f"{who} is defined for finite radial beams only; "
                             "azimuthal and non-diffractive beams have no charge here")
    w0 = spec.kind.spectrum.w0
    # below it the band cut min(k, 10/w0) is k, which truncates the Gaussian
    # spectrum, and the fixed radii sample only the core of a beam ~1/k wide
    if not spec.kind.spectrum.paraxial_valid(spec.k):
        raise _ArgumentError("beam", f"{who} requires k * w0 >= 10, got {spec.k * w0:g}")
    radii = np.array(_EXTRAPOLATION_RADII) * w0
    if grid is not None:
        n_r, r_max = grid
        if (isinstance(n_r, bool) or not isinstance(n_r, (int, np.integer))
                or not _MIN_N_R <= n_r <= _MAX_N_R):
            raise _ArgumentError("n_r", f"n_r must be an integer from {_MIN_N_R} to {_MAX_N_R}")
        if r_max is None:
            # s_z approaches its limit like 1/r^2; a 40 w0 disk keeps the
            # truncation of the swept solid angle below ~1e-3 for j <= 5/2
            r_max = 40.0 * w0
        if not (math.isfinite(r_max) and r_max >= _MIN_R_MAX * w0):
            raise _ArgumentError("r_max", f"r_max must be finite and at least {_MIN_R_MAX:g} * w0")
        radii = np.concatenate([np.linspace(0.0, r_max, n_r + 1), radii])
    # the integral grid, if any, then the three boundary radii
    s_r, s_phi, s_z = closed_form_texture(spec, radii, z)
    # s_z at infinity by one Richardson step in 1/r^2 on each neighbouring pair of radii
    (ra, rb, rc), (sa, sb, sc) = radii[-3:].tolist(), s_z[-3:].tolist()
    e1 = (rb * rb * sb - ra * ra * sa) / (rb * rb - ra * ra)
    e2 = (rc * rc * sc - rb * rb * sb) / (rc * rc - rb * rb)
    if abs(e1 - e2) > _SPREAD_GATE:
        raise IllConvergedLimitError(f"large-r extrapolants disagree: {e1:.6f} vs {e2:.6f}")
    s_axis = 1.0 if spec.j.twice_value > 0 else -1.0
    q_boundary = 0.5 * (e2 - s_axis)
    q_integral = None
    if grid is not None:
        # the midpoint rule for (1/2) integral sin(theta) d(theta) from r_max
        # in to the axis, whose steps are theta_i - theta_{i+1}
        th = np.arctan2(np.hypot(s_r[:-3], s_phi[:-3]), s_z[:-3])
        q_integral = 0.5 * float(np.sum(np.sin(0.5 * (th[1:] + th[:-1])) * (th[:-1] - th[1:])))
        if abs(q_integral - q_boundary) > _SPREAD_GATE:
            raise IllConvergedLimitError(
                f"solid-angle integral {q_integral:.6f} disagrees with the boundary value "
                f"{q_boundary:.6f}: {n_r} intervals out to r_max = {r_max:g} miss the texture"
            )
    return ChargeReport(
        q_formula=s_axis * charge_formula(HalfInt(abs(spec.j.twice_value))),
        q_boundary=q_boundary,
        q_integral=q_integral,
        s_z_axis=s_axis,
        s_z_infinity=e2,
        grid_resolution=None if grid is None else n_r,
    )


def charge_boundary(spec: BeamSpec, z: float = 0.0) -> ChargeReport:
    """Charge from the boundary values of s_z.

    The axis value follows the sign-of-j law; the large-radius value is
    measured at 10, 14 and 20 waists and extrapolated with one Richardson
    step in 1/r^2.  A spread above 1e-2 between the two extrapolants
    raises :class:`IllConvergedLimitError`.  ``q_formula`` is the closed
    formula for j > 0 and its mirror value -q(-j) for j < 0.
    """
    return _charge(spec, z, "charge_boundary")


def charge_integral(
    spec: BeamSpec,
    z: float = 0.0,
    n_r: int = 4096,
    r_max: float | None = None,
) -> float:
    """Charge from the discretized solid-angle surface integral.

    Samples the polar angle of the polarization on n_r intervals out to
    r_max (default 40 w0) and sums, by the midpoint rule, the solid angle
    that the winding-one texture sweeps from r_max in to the axis; that
    orientation is the one of ``q_boundary``, so the two compare
    directly.  n_r must be an integer from 64 to 2^20 and r_max finite
    and at least 10 w0.  It raises wherever :func:`charge_boundary` does,
    and also where the two routes differ by more than 1e-2.
    """
    return _charge(spec, z, "charge_integral", (n_r, r_max)).q_integral


def full_charge_report(
    spec: BeamSpec,
    z: float = 0.0,
    n_r: int = 4096,
    r_max: float | None = None,
) -> ChargeReport:
    """All three charge routes in one report, from one texture evaluation
    over the integral grid and the three boundary radii (n_r + 4 radii)."""
    return _charge(spec, z, "full_charge_report", (n_r, r_max))
