"""Probability density, spin-polarization vectors and the spin expectation.

The local polarization is the Bloch vector s = psi^dag sigma psi / rho
of the two-component wavefunction; for a pure spinor it has unit length
wherever the density rho is nonzero.  ``closed_form_texture`` reduces
the radial amplitudes of the component table in the cylindrical frame,
without going through the spinor, so the two routes cross-check each
other; both take arrays of points.  ``spin_expectation`` integrates
over the spectrum rather than over the plane, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import (
    _COMPONENTS, BeamSpec, CylPoint, Finite, Spinor, _points, radial_amplitudes,
)
from .errors import UndefinedPolarizationError

__all__ = [
    "PolarizationVector",
    "probability_density",
    "spin_polarization",
    "closed_form_texture",
    "closed_form_polarization",
    "spin_expectation",
]

_RHO_FLOOR = 1e-300


@dataclass(frozen=True)
class PolarizationVector:
    """Unit polarization vector in cylindrical and Cartesian components.

    The Cartesian pair is redundant (s_x = s_r cos phi - s_phi sin phi
    and cyclically) but kept because e_r, e_phi are undefined on the
    axis; there the cylindrical entries are reported as 0 and the
    Cartesian entries carry the full vector.  The entries are floats, or
    arrays for a vector field.
    """

    s_r: float
    s_phi: float
    s_z: float
    s_x: float
    s_y: float

    @classmethod
    def from_cylindrical(cls, s_r, s_phi, s_z, phi):
        c, s = np.cos(phi), np.sin(phi)
        return cls(s_r, s_phi, s_z, s_r * c - s_phi * s, s_r * s + s_phi * c)

    @property
    def norm(self):
        return np.sqrt(self.s_r ** 2 + self.s_phi ** 2 + self.s_z ** 2)


def probability_density(psi: Spinor):
    """rho = |up|^2 + |down|^2."""
    return abs(psi.up) ** 2 + abs(psi.down) ** 2


def spin_polarization(psi: Spinor, phi) -> PolarizationVector:
    """Bloch vector of a spinor; phi fixes the cylindrical decomposition.

    The components of psi and phi may be arrays, which broadcast.  Raises
    :class:`UndefinedPolarizationError` when the density is below the
    underflow floor anywhere.
    """
    rho = probability_density(psi)
    if not np.all(rho > _RHO_FLOOR):
        raise UndefinedPolarizationError("polarization undefined where rho vanishes")
    cross = psi.up.conjugate() * psi.down
    s_x = 2.0 * cross.real / rho
    s_y = 2.0 * cross.imag / rho
    s_z = (abs(psi.up) ** 2 - abs(psi.down) ** 2) / rho
    c, s = np.cos(phi), np.sin(phi)
    return PolarizationVector(s_x * c + s_y * s, -s_x * s + s_y * c, s_z, s_x, s_y)


def closed_form_texture(spec: BeamSpec, r, z):
    """Cylindrical components (s_r, s_phi, s_z) of the polarization at (r, z).

    r and z broadcast, and the three components are arrays of the
    broadcast shape (floats for scalar input).  They are reduced from the
    radial amplitudes (a, b) of the component table, not from the spinor:
    with cross = a* b and rho = |a|^2 + |b|^2, s_r = 2 Re(cross)/rho,
    s_phi = 2 Im(cross)/rho and s_z = (|a|^2 - |b|^2)/rho.  Agreement with
    :func:`spin_polarization` of the spinor is therefore a genuine
    cross-check of the sigma-matrix reduction.  On the axis (r = 0) the
    longitudinal limit (0, 0, sign j) is returned; off the axis
    :class:`UndefinedPolarizationError` is raised wherever rho vanishes.
    """
    r, z = _points(r, z)
    axis = r == 0.0
    s_r, s_phi = np.zeros(r.shape), np.zeros(r.shape)
    s_z = np.full(r.shape, 1.0 if spec.j.twice_value > 0 else -1.0)
    s_r[~axis], s_phi[~axis], s_z[~axis] = _texture(*radial_amplitudes(spec, r[~axis], z[~axis]))
    return s_r[()], s_phi[()], s_z[()]


def _texture(a: np.ndarray, b: np.ndarray):
    """(s_r, s_phi, s_z) of :func:`closed_form_texture` from the radial
    amplitudes (a, b) off the axis."""
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    rho = aa + bb
    if not np.all(rho > _RHO_FLOOR):
        raise UndefinedPolarizationError("both spinor components vanish")
    cross = a.conjugate() * b
    return 2.0 * cross.real / rho, 2.0 * cross.imag / rho, (aa - bb) / rho


def closed_form_polarization(spec: BeamSpec, x: CylPoint) -> PolarizationVector:
    """Polarization vector at one point, from :func:`closed_form_texture`."""
    return PolarizationVector.from_cylindrical(*closed_form_texture(spec, x.r, x.z), x.phi)


# ----------------------------------------------------------------------
# integrated spin expectation
# ----------------------------------------------------------------------


def spin_expectation(spec: BeamSpec, z: float = 0.0, abs_tol: float = 1e-9) -> np.ndarray:
    """Integrated spin <sigma> of a finite beam over the plane at z.

    The azimuthal integral is done analytically: the e^{i phi} structure
    of the cross term makes the transverse components vanish identically,
    and <sigma_z> is half the radial integral of |a|^2 - |b|^2.  Parseval's
    theorem for the Hankel transform turns each |F_n|^2 r dr into
    |f|^2 kappa dkappa, whatever the order, because the propagation phase
    and the constant factors have unit modulus.  With the cone weights
    w^2 = 1 + s kappa/k of the component table, <sigma_z> is the spectral
    integral of (s_up - s_low) |f|^2 kappa^2 / (2k) over [0, k], the
    propagating band.  For the Gaussian |f|^2 = 2 w0^2 e^{-w0^2 kappa^2}
    that integral is
    (s_up - s_low)/(2k) [sqrt(pi)/(2 w0) erf(w0 k) - k e^{-w0^2 k^2}],
    so the value is exact to rounding; ``abs_tol`` is only validated
    (ValueError unless it is positive).

    The value does not depend on z, which free propagation conserves.  It
    is 0 for the radial families (no cone weight) and
    sigma sqrt(pi) / (2 k w0) for the azimuthal ones, up to the band's end.
    """
    if not isinstance(spec.kind, Finite):
        raise ValueError("spin_expectation needs a Finite spec")
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if not abs_tol > 0.0:
        raise ValueError("tolerances must be positive")
    w0 = spec.kind.spectrum.w0
    (s_up, _), (s_low, _) = _COMPONENTS[spec.configuration, spec.sigma]
    scale = (s_up - s_low) / (2.0 * spec.k)
    edge = w0 * spec.k
    band = math.sqrt(math.pi) / (2.0 * w0) * math.erf(edge) - spec.k * math.exp(-edge * edge)
    return np.array([0.0, 0.0, scale * band])
