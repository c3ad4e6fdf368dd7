"""Probability density, spin-polarization vectors and the spin expectation.

The local polarization is the Bloch vector s = psi^dag sigma psi / rho
of the two-component wavefunction; for a pure spinor it has unit length
wherever the density rho is nonzero.  ``closed_form_polarization``
reduces the radial amplitudes of the component table in the cylindrical
frame, without going through the spinor, so the two routes cross-check
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamSpec, Configuration, CylPoint, Finite, FiniteMethod, Spinor, radial_amplitudes
from .errors import UndefinedPolarizationError
from .quadrature import integrate

__all__ = [
    "PolarizationVector",
    "probability_density",
    "spin_polarization",
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
    Cartesian entries carry the full vector.
    """

    s_r: float
    s_phi: float
    s_z: float
    s_x: float
    s_y: float

    @classmethod
    def from_cylindrical(cls, s_r: float, s_phi: float, s_z: float, phi: float):
        c, s = math.cos(phi), math.sin(phi)
        return cls(s_r, s_phi, s_z, s_r * c - s_phi * s, s_r * s + s_phi * c)

    @classmethod
    def from_cartesian(cls, s_x: float, s_y: float, s_z: float, phi: float):
        c, s = math.cos(phi), math.sin(phi)
        return cls(s_x * c + s_y * s, -s_x * s + s_y * c, s_z, s_x, s_y)

    @classmethod
    def axis(cls, s_z: float):
        return cls(0.0, 0.0, s_z, 0.0, 0.0)

    @property
    def norm(self) -> float:
        return math.sqrt(self.s_r ** 2 + self.s_phi ** 2 + self.s_z ** 2)


def probability_density(psi: Spinor) -> float:
    """rho = |up|^2 + |down|^2."""
    return abs(psi.up) ** 2 + abs(psi.down) ** 2


def spin_polarization(psi: Spinor, phi: float) -> PolarizationVector:
    """Bloch vector of a spinor; phi fixes the cylindrical decomposition.

    Raises :class:`UndefinedPolarizationError` when the density is below
    the underflow floor.
    """
    rho = probability_density(psi)
    if not rho > _RHO_FLOOR:
        raise UndefinedPolarizationError("polarization undefined where rho vanishes")
    cross = psi.up.conjugate() * psi.down
    s_x = 2.0 * cross.real / rho
    s_y = 2.0 * cross.imag / rho
    s_z = (abs(psi.up) ** 2 - abs(psi.down) ** 2) / rho
    return PolarizationVector.from_cartesian(s_x, s_y, s_z, phi)


def _axis_vector(spec: BeamSpec) -> PolarizationVector:
    # on the axis the polarization is purely longitudinal with the sign of j
    return PolarizationVector.axis(1.0 if spec.j.twice_value > 0 else -1.0)


def closed_form_polarization(spec: BeamSpec, x: CylPoint) -> PolarizationVector:
    """Polarization vector reduced in the cylindrical frame.

    Built from the radial amplitudes (a, b) of the component table rather
    than from the spinor: with cross = a* b and rho = |a|^2 + |b|^2,
    s_r = 2 Re(cross)/rho, s_phi = 2 Im(cross)/rho and
    s_z = (|a|^2 - |b|^2)/rho.  Agreement with
    ``spin_polarization(evaluate_*(spec, x), x.phi)`` is therefore a
    genuine cross-check of the sigma-matrix reduction.  On the axis
    (r = 0) the longitudinal limit with the sign of j is returned.
    """
    if x.r == 0.0:
        return _axis_vector(spec)
    a, b = radial_amplitudes(spec, x.r, x.z)
    aa, bb = abs(a) ** 2, abs(b) ** 2
    rho = aa + bb
    if not rho > _RHO_FLOOR:
        raise UndefinedPolarizationError("both spinor components vanish")
    cross = a.conjugate() * b
    return PolarizationVector.from_cylindrical(
        2.0 * cross.real / rho, 2.0 * cross.imag / rho, (aa - bb) / rho, x.phi
    )


# ----------------------------------------------------------------------
# integrated spin expectation
# ----------------------------------------------------------------------


def _component_moduli_sq(spec: BeamSpec, r: float, z: float) -> tuple[float, float]:
    a, b = radial_amplitudes(spec, r, z)
    return abs(a) ** 2, abs(b) ** 2


def _tail_spec(spec: BeamSpec) -> BeamSpec:
    # the far tail is always evaluated through the closed form: the
    # spectral quadrature would need ever finer oscillation panels there
    kind = spec.kind
    if (
        spec.configuration is Configuration.RADIAL
        and kind.method is not FiniteMethod.PARAXIAL_CLOSED_FORM
        and kind.spectrum.paraxial_valid(spec.k)
    ):
        return BeamSpec(
            spec.configuration,
            spec.j,
            spec.sigma,
            spec.k,
            Finite(kind.spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM),
        )
    return spec


def spin_expectation(spec: BeamSpec, z: float = 0.0, abs_tol: float = 1e-9) -> np.ndarray:
    """Integrated spin <sigma> of a finite beam over the plane at z.

    The azimuthal integral is done analytically: the e^{i phi} structure
    of the cross term makes the transverse components vanish identically,
    and the longitudinal component reduces to the radial integral of the
    difference of the squared component profiles.  Only that radial
    integral is numerical; its far tail decays algebraically, so the
    integration is split at a matching radius and the outer part is
    integrated in the inverse variable u = R/r.

    Radial beams evaluate the tail through the closed form (the tail of
    the quadrature representation differs from it by less than the
    spectrum truncation, which is negligible for k w0 >= 10).  Azimuthal
    beams have no closed form; their tail is truncated at 200 w0 with a
    leading-order correction, which limits the measurement near 1e-6.
    """
    if not isinstance(spec.kind, Finite):
        raise ValueError("spin_expectation needs a Finite spec")
    w0 = spec.kind.spectrum.w0
    r_head = 12.0 * w0
    tail_beam = _tail_spec(spec)

    def head(rr):
        out = np.empty_like(rr, dtype=complex)
        for i, r in enumerate(rr):
            amin, aplus = _component_moduli_sq(spec, float(r), z)
            out[i] = (amin - aplus) * r
        return out

    def tail(uu):
        out = np.empty_like(uu, dtype=complex)
        for i, u in enumerate(uu):
            if u == 0.0:
                out[i] = 0.0
                continue
            r = r_head / float(u)
            amin, aplus = _component_moduli_sq(tail_beam, r, z)
            out[i] = (amin - aplus) * r * r_head / u ** 2
        return out

    head_res = integrate(head, 0.0, r_head, abs_tol=0.25 * abs_tol, rel_tol=1e-10)
    if spec.configuration is Configuration.RADIAL:
        tail_res = integrate(tail, 0.0, 1.0, abs_tol=0.25 * abs_tol, rel_tol=1e-10)
        radial_integral = (head_res.value + tail_res.value).real
    else:
        u_min = r_head / (200.0 * w0)
        tail_res = integrate(tail, u_min, 1.0, abs_tol=0.25 * abs_tol, rel_tol=1e-8)
        r_far = r_head / u_min
        amin, aplus = _component_moduli_sq(spec, r_far, z)
        # integrand ~ c / r^3 beyond the cut, so the remainder is g(R) R / 2
        remainder = 0.5 * (amin - aplus) * r_far ** 2
        radial_integral = (head_res.value + tail_res.value).real + remainder
    return np.array([0.0, 0.0, 0.5 * radial_integral])
