"""Skyrmion topological charge of finite radial beam textures.

Three routes are provided and cross-checked:

* the closed formula in j alone,
* the boundary-value definition q = (s_z at infinity - s_z on axis)/2,
  with the large-radius limit extracted by Richardson extrapolation,
* a discretized solid-angle surface integral over the sampled texture.

The last two are not independent.  For a cylindrically symmetric unit
texture with a single azimuthal winding the solid-angle integral reduces
to the integral of sin(theta) d(theta) over the radial polar-angle
profile, which is half the s_z difference between the axis and r_max.
The midpoint sum below converges to that value as O(1/n_r^2) (at the
waist of a k w0 = 100 beam it is off by -3.0e-4 at n_r = 256 and
-1.2e-6 at n_r = 4096 for j = 3/2).  So the integral is the boundary
route at r_max without its Richardson step: agreement with the boundary
value checks the extrapolation, not the texture.  The orientation
convention of that surface integral is opposite to the
boundary-difference convention used for q, so ``charge_integral``
applies a single global sign (documented here, fixed once) to report a
value directly comparable to ``charge_boundary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .beams import BeamSpec, Configuration, Finite
from .errors import IllConvergedLimitError, SpinBeamError
from .polarization import closed_form_texture
from .specfun import HalfInt

__all__ = [
    "ChargeReport",
    "charge_formula",
    "charge_boundary",
    "charge_integral",
    "solid_angle_charge",
    "full_charge_report",
]

_EXTRAPOLATION_RADII = (10.0, 14.0, 20.0)  # in units of w0
_SPREAD_GATE = 1e-2


@dataclass(frozen=True)
class ChargeReport:
    """Topological charge by all routes plus the boundary limits used."""

    q_formula: float
    q_boundary: float
    s_z_axis: float
    s_z_infinity: float
    q_integral: float | None = None
    grid_resolution: int | None = None


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


def _require_finite_radial(spec: BeamSpec, who: str) -> None:
    if not isinstance(spec.kind, Finite):
        raise ValueError(f"{who} is defined for finite beams only")
    if spec.configuration is not Configuration.RADIAL:
        raise ValueError(
            f"{who} supports the radial configuration only; the azimuthal "
            "family has no defined charge here"
        )


def _boundary_radii(spec: BeamSpec) -> list[float]:
    return [c * spec.kind.spectrum.w0 for c in _EXTRAPOLATION_RADII]


def _boundary_report(spec: BeamSpec, radii: list[float], sz: list[float]) -> ChargeReport:
    # s_z at infinity by Richardson extrapolation of s_z at the three radii
    def richardson(ra, sa, rb, sb):
        return (rb * rb * sb - ra * ra * sa) / (rb * rb - ra * ra)

    e1 = richardson(radii[0], sz[0], radii[1], sz[1])
    e2 = richardson(radii[1], sz[1], radii[2], sz[2])
    if abs(e1 - e2) > _SPREAD_GATE:
        raise IllConvergedLimitError(
            f"large-r extrapolants disagree: {e1:.6f} vs {e2:.6f}"
        )
    s_axis = 1.0 if spec.j.twice_value > 0 else -1.0
    s_inf = e2
    return ChargeReport(
        q_formula=s_axis * charge_formula(HalfInt(abs(spec.j.twice_value))),
        q_boundary=0.5 * (s_inf - s_axis),
        s_z_axis=s_axis,
        s_z_infinity=s_inf,
    )


def charge_boundary(spec: BeamSpec, z: float = 0.0) -> ChargeReport:
    """Charge from the boundary values of s_z.

    The axis value follows the sign-of-j law; the large-radius value is
    measured at 10, 14 and 20 waists and extrapolated with one Richardson
    step in 1/r^2.  A spread above 1e-2 between the two extrapolants
    raises :class:`IllConvergedLimitError`.  ``q_formula`` is the closed
    formula for j > 0 and its mirror value -q(-j) for j < 0.
    """
    _require_finite_radial(spec, "charge_boundary")
    radii = _boundary_radii(spec)
    return _boundary_report(spec, radii, closed_form_texture(spec, radii, z)[2].tolist())


def solid_angle_charge(theta: np.ndarray) -> float:
    """Discretized solid-angle count of a winding-one radial profile.

    ``theta`` holds polar-angle samples theta(r_i) of the texture on an
    increasing radial grid.  Returns (1/4 pi) of the accumulated solid
    angle, i.e. the midpoint-rule estimate of (1/2) integral sin(theta)
    d(theta); a profile sweeping 0 to pi gives +1.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or th.size < 2:
        raise ValueError("theta must be a 1-D array with at least 2 samples")
    mid = 0.5 * (th[1:] + th[:-1])
    dth = np.diff(th)
    return 0.5 * float(np.sum(np.sin(mid) * dth))


def _integral_grid(spec: BeamSpec, n_r, r_max) -> np.ndarray:
    if isinstance(n_r, bool) or not isinstance(n_r, (int, np.integer)) or n_r < 64:
        raise ValueError("n_r must be an integer >= 64")
    w0 = spec.kind.spectrum.w0
    if r_max is None:
        # s_z approaches its limit like 1/r^2; a 40 w0 disk keeps the
        # truncation of the swept solid angle below ~1e-3 for j <= 5/2
        r_max = 40.0 * w0
    if not (math.isfinite(r_max) and r_max >= 10.0 * w0):
        raise ValueError("r_max must be finite and at least 10 * w0")
    return np.linspace(0.0, r_max, n_r + 1)


def _integral_charge(s_r, s_phi, s_z) -> float:
    return -solid_angle_charge(np.arctan2(np.hypot(s_r, s_phi), s_z))


def charge_integral(
    spec: BeamSpec,
    z: float = 0.0,
    n_r: int = 4096,
    r_max: float | None = None,
) -> float:
    """Charge from the discretized solid-angle surface integral.

    Samples the polar angle of the polarization along a radius and
    accumulates the solid angle swept by the winding-one texture.  The
    raw surface integral carries the opposite orientation to the
    boundary-difference convention; the returned value includes the
    single global sign flip so it compares directly to ``q_boundary``.
    """
    _require_finite_radial(spec, "charge_integral")
    return _integral_charge(*closed_form_texture(spec, _integral_grid(spec, n_r, r_max), z))


def full_charge_report(
    spec: BeamSpec,
    z: float = 0.0,
    n_r: int = 4096,
    r_max: float | None = None,
) -> ChargeReport:
    """All three charge routes in one report.

    One texture evaluation serves both routes: the integral grid of
    :func:`charge_integral` and the three radii of :func:`charge_boundary`
    form one batch of n_r + 4 radii.  Errors come in the order of those two
    calls: when the grid or the batch fails, the boundary route runs alone,
    so that its error, if any, is raised first.
    """
    _require_finite_radial(spec, "charge_boundary")
    radii = _boundary_radii(spec)
    try:
        grid = _integral_grid(spec, n_r, r_max)
        texture = np.stack(closed_form_texture(spec, np.concatenate([grid, radii]), z))
    except (ValueError, SpinBeamError):
        charge_boundary(spec, z)
        raise
    report = _boundary_report(spec, radii, texture[2, -3:].tolist())
    return replace(report, q_integral=_integral_charge(*texture[:, :-3]), grid_resolution=n_r)
