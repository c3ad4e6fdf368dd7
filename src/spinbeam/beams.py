"""Spinor beam families and their evaluation.

Four families of cylindrically symmetric spin-polarized beams, all
eigenstates of the total angular momentum J_z = L_z + sigma_z/2 with
half-odd-integer eigenvalue j (hbar = 1, lengths in user units): the
non-diffractive kind (fixed transverse wavenumber kappa, Bessel
profiles) and the finite kind (Gaussian spectrum over kappa), each in
the radial or the azimuthal configuration.  Finite radial profiles
F_n(r, z) come from quadrature of the spectral integral (exact
longitudinal wavenumber) or, for the radial configuration only, from
the paraxial modified-Bessel-Gaussian closed form.

In every family the upper spinor component has order j - 1/2 and the
lower one j + 1/2; they differ only by a cone weight sqrt(1 +- kappa/k)
and a constant factor, tabulated once in ``_COMPONENTS`` and turned
into radial amplitudes by :func:`radial_amplitudes`.  The momentum-space
reconstruction integrates the eigenspinors against the plane-wave
kernel and is the independent oracle for that table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quadrature import integrate
from .specfun import HalfInt, bessel_i_scaled, bessel_j

__all__ = [
    "Configuration",
    "FiniteMethod",
    "GaussianSpectrum",
    "NonDiffractive",
    "Finite",
    "BeamSpec",
    "CylPoint",
    "Spinor",
    "eigenspinor_radial",
    "eigenspinor_azimuthal",
    "evaluate_nondiffractive",
    "evaluate_finite",
    "evaluate_ring",
    "radial_amplitudes",
    "spectral_profile",
    "reconstruct_from_momentum",
]

_TWO_PI = 2.0 * math.pi
_AMP_FINITE = 1.0 / math.sqrt(4.0 * math.pi)

# the spectrum is numerically dead beyond kappa ~ 10/w0 (|f|^2 tail < 1e-43)
_SPECTRUM_CUT = 10.0
_MAX_GUARD_PANELS = 3000


class Configuration(Enum):
    RADIAL = "radial"
    AZIMUTHAL = "azimuthal"


class FiniteMethod(Enum):
    PARAXIAL_CLOSED_FORM = "paraxial"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class GaussianSpectrum:
    """Normalized Gaussian spectral amplitude f(kappa) = sqrt(2) w0 exp(-w0^2 kappa^2 / 2).

    Satisfies the continuum normalization: the integral of |f|^2 kappa
    over [0, infinity) is exactly 1.
    """

    w0: float

    def __post_init__(self):
        if not (self.w0 > 0.0 and math.isfinite(self.w0)):
            raise ValueError("waist w0 must be positive and finite")

    def amplitude(self, kappa):
        return math.sqrt(2.0) * self.w0 * np.exp(-0.5 * self.w0 ** 2 * np.square(kappa))

    def rayleigh_range(self, k: float) -> float:
        return k * self.w0 ** 2

    def paraxial_valid(self, k: float) -> bool:
        return k * self.w0 >= 10.0


@dataclass(frozen=True)
class NonDiffractive:
    kappa: float


@dataclass(frozen=True)
class Finite:
    spectrum: GaussianSpectrum
    method: FiniteMethod = FiniteMethod.QUADRATURE


@dataclass(frozen=True)
class CylPoint:
    """Observation point (r, phi, z); phi is reduced to [0, 2 pi)."""

    r: float
    phi: float
    z: float

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError("r must be finite and >= 0")
        if not (math.isfinite(self.phi) and math.isfinite(self.z)):
            raise ValueError("phi and z must be finite")
        object.__setattr__(self, "phi", self.phi % _TWO_PI)


@dataclass(frozen=True)
class Spinor:
    """Two-component amplitude (spin-up, spin-down) at a point."""

    up: complex
    down: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2


@dataclass(frozen=True)
class BeamSpec:
    """Full description of one beam.

    j must be half-odd-integer; the orbital quantum number of the upper
    component is m = j - sigma/2, always an integer.  Non-diffractive
    kinds need 0 < kappa < k; the paraxial closed form is only defined
    for the radial configuration and requires k * w0 >= 10.
    """

    configuration: Configuration
    j: HalfInt
    sigma: int
    k: float
    kind: NonDiffractive | Finite

    def __post_init__(self):
        if not isinstance(self.j, HalfInt) or self.j.is_integer:
            raise ValueError(f"j must be a half-odd-integer HalfInt, got {self.j!r}")
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma!r}")
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError("k must be positive and finite")
        if isinstance(self.kind, NonDiffractive):
            if not (0.0 < self.kind.kappa < self.k):
                raise ValueError("non-diffractive beams need 0 < kappa < k")
        elif isinstance(self.kind, Finite):
            if self.kind.method is FiniteMethod.PARAXIAL_CLOSED_FORM:
                if self.configuration is not Configuration.RADIAL:
                    raise ValueError(
                        "the paraxial closed form exists only for the radial configuration"
                    )
                if not self.kind.spectrum.paraxial_valid(self.k):
                    raise ValueError("paraxial closed form requires k * w0 >= 10")
        else:
            raise ValueError(f"unknown beam kind {self.kind!r}")

    @property
    def m(self) -> int:
        return HalfInt(self.j.twice_value - self.sigma).as_int()

    @property
    def order_minus(self) -> int:
        return (self.j - HalfInt(1)).as_int()

    @property
    def order_plus(self) -> int:
        return (self.j + HalfInt(1)).as_int()

    @property
    def kz(self) -> float:
        if not isinstance(self.kind, NonDiffractive):
            raise ValueError("kz is defined for non-diffractive beams only")
        return math.sqrt(self.k ** 2 - self.kind.kappa ** 2)


# ----------------------------------------------------------------------
# eigenspinors
# ----------------------------------------------------------------------


def eigenspinor_radial(sigma: int, phi) -> Spinor:
    """Unit eigenspinor of sigma . v, v = -e_phi, eigenvalue sigma; phi may be an array."""
    inv = 1.0 / math.sqrt(2.0)
    if sigma == 1:
        return Spinor(inv + 0.0j, -1j * np.exp(1j * phi) * inv)
    if sigma == -1:
        return Spinor(-1j * np.exp(-1j * phi) * inv, inv + 0.0j)
    raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")


def eigenspinor_azimuthal(sigma: int, phi, w_rho: float) -> Spinor:
    """Unit eigenspinor of sigma . u, u = v x p/p, w_rho = k_rho / k; phi may be an array."""
    if not 0.0 <= w_rho <= 1.0:
        raise ValueError("w_rho must lie in [0, 1]")
    inv = 1.0 / math.sqrt(2.0)
    a = math.sqrt(1.0 + w_rho)
    b = math.sqrt(1.0 - w_rho)
    if sigma == 1:
        return Spinor(a * inv + 0.0j, -np.exp(1j * phi) * b * inv)
    if sigma == -1:
        return Spinor(np.exp(-1j * phi) * b * inv, a * inv + 0.0j)
    raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")


# ----------------------------------------------------------------------
# spectral profiles of finite beams
# ----------------------------------------------------------------------


def _guard_panels(kappa_cut: float, r: float, z: float, k: float) -> int:
    # pre-split so each starting panel spans at most about one period of
    # the fastest phase: J_n(kappa r) oscillates at rate r in kappa, and
    # the propagation phase at rate |z| kappa / k_z.
    kz_min = math.sqrt(max(k * k - kappa_cut * kappa_cut, 1e-12 * k * k))
    rate = r + abs(z) * kappa_cut / kz_min
    return min(_MAX_GUARD_PANELS, int(kappa_cut * rate / _TWO_PI) + 4)


def _quadrature_profile(
    n: int,
    r: float,
    z: float,
    spectrum: GaussianSpectrum,
    k: float,
    paraxial_phase: bool,
    weight_sign: int,
    abs_tol: float | None,
    rel_tol: float,
) -> complex:
    kappa_cut = min(k, _SPECTRUM_CUT / spectrum.w0)

    def integrand(kap):
        f = spectrum.amplitude(kap)
        if paraxial_phase:
            phase = np.exp(1j * (k - np.square(kap) / (2.0 * k)) * z)
        else:
            kz = np.sqrt(np.maximum(k * k - np.square(kap), 0.0))
            phase = np.exp(1j * kz * z)
        vals = f * bessel_j(n, kap * r) * phase * kap
        if weight_sign != 0:
            vals = vals * np.sqrt(np.clip(1.0 + weight_sign * kap / k, 0.0, None))
        return vals

    if abs_tol is None:
        abs_tol = 1e-13 * math.sqrt(2.0) / spectrum.w0
    res = integrate(
        integrand,
        0.0,
        kappa_cut,
        abs_tol=abs_tol,
        rel_tol=rel_tol,
        initial_panels=_guard_panels(kappa_cut, r, z, k),
    )
    return res.value


def _scaled_bessel_bracket(n: int, x: complex) -> complex:
    """e^{-x} (I_{(n-1)/2}(x) - I_{(n+1)/2}(x)) for n >= 1, Re x >= 0."""
    return bessel_i_scaled(HalfInt(n - 1), x) - bessel_i_scaled(HalfInt(n + 1), x)


def _paraxial_profile(n: int, r: float, z: float, spectrum: GaussianSpectrum, k: float) -> complex:
    # modified-Bessel-Gaussian closed form; w^2 = w0^2 (1 + i z/z0) with
    # the principal square root, so Re(1/w^2) > 0 and the profile decays.
    w0 = spectrum.w0
    z0 = k * w0 * w0
    wsq = w0 * w0 * complex(1.0, z / z0)
    carrier = cmath.exp(1j * k * z)
    if n == 0:
        # the half-integer bracket collapses: e^{-x}(I_{-1/2} - I_{1/2})
        # equals sqrt(2/(pi x)) e^{-2x}, leaving a pure Gaussian
        return math.sqrt(2.0) * w0 / wsq * cmath.exp(-r * r / (2.0 * wsq)) * carrier
    if r == 0.0:
        return 0.0j
    x = r * r / (4.0 * wsq)
    w = cmath.sqrt(wsq)
    pref = math.sqrt(math.pi) * w0 * r / (2.0 * wsq * w)
    return pref * _scaled_bessel_bracket(n, x) * carrier


def spectral_profile(
    n: int,
    r: float,
    z: float,
    spectrum: GaussianSpectrum,
    k: float,
    method: FiniteMethod = FiniteMethod.QUADRATURE,
    paraxial_phase: bool = False,
    abs_tol: float | None = None,
    rel_tol: float = 1e-9,
) -> complex:
    """Radial profile F_n(r, z) of a finite beam component.

    Quadrature method: the spectral integral of f(kappa) J_n(kappa r)
    e^{i k_z z} kappa over [0, k], with exact k_z = sqrt(k^2 - kappa^2)
    by default; ``paraxial_phase=True`` replaces the phase by
    k - kappa^2/(2k) (used by the consistency checks).  Negative n is
    reflected through (-1)^n F_{|n|}.

    Paraxial method: the modified-Bessel-Gaussian closed form, defined
    for n >= 0 and k * w0 >= 10 only.
    """
    if r < 0.0:
        raise ValueError("r must be >= 0")
    if method is FiniteMethod.PARAXIAL_CLOSED_FORM:
        if n < 0:
            raise ValueError("the paraxial closed form is derived for n >= 0 only")
        if not spectrum.paraxial_valid(k):
            raise ValueError("paraxial closed form requires k * w0 >= 10")
        return _paraxial_profile(n, r, z, spectrum, k)
    return _quadrature_profile(n, r, z, spectrum, k, paraxial_phase, 0, abs_tol, rel_tol)


# ----------------------------------------------------------------------
# the component table and the spinor evaluators
# ----------------------------------------------------------------------

# (configuration, sigma) -> ((cone-weight sign, constant factor) of the
# upper component, of order j - 1/2; the same of the lower component,
# of order j + 1/2).  Weight sign s means sqrt(1 + s kappa/k); 0 means none.
_COMPONENTS = {
    (Configuration.RADIAL, 1): ((0, 1), (0, 1)),
    (Configuration.RADIAL, -1): ((0, -1), (0, 1)),
    (Configuration.AZIMUTHAL, 1): ((1, 1), (-1, -1j)),
    (Configuration.AZIMUTHAL, -1): ((-1, -1j), (1, 1)),
}


def _component(spec: BeamSpec, n: int, weight_sign: int, factor: complex,
               r: float, z: float, abs_tol: float | None, rel_tol: float) -> complex:
    kind = spec.kind
    if isinstance(kind, NonDiffractive):
        weight = math.sqrt(1.0 + weight_sign * kind.kappa / spec.k)
        return factor * weight * bessel_j(n, kind.kappa * r)
    if kind.method is FiniteMethod.PARAXIAL_CLOSED_FORM:
        # the closed form is derived for n >= 0; reflect through (-1)^n F_{|n|}
        sign = -1.0 if n < 0 and n % 2 == 1 else 1.0
        return factor * sign * _paraxial_profile(abs(n), r, z, kind.spectrum, spec.k)
    return factor * _quadrature_profile(n, r, z, kind.spectrum, spec.k, False, weight_sign,
                                        abs_tol, rel_tol)


def radial_amplitudes(
    spec: BeamSpec, r: float, z: float,
    abs_tol: float | None = None, rel_tol: float = 1e-9,
) -> tuple[complex, complex]:
    """Radial amplitudes (a, b) of the upper and lower spinor components.

    Each is the Bessel, paraxial or spectral-quadrature profile of its
    order times the cone weight and constant factor of ``_COMPONENTS``.
    The spinor is a normalisation times (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi});
    non-diffractive amplitudes leave out the carrier e^{i k_z z}.  The
    tolerances apply to spectral quadrature only.
    """
    upper, lower = _COMPONENTS[spec.configuration, spec.sigma]
    return (_component(spec, spec.order_minus, *upper, r, z, abs_tol, rel_tol),
            _component(spec, spec.order_plus, *lower, r, z, abs_tol, rel_tol))


def evaluate_ring(
    spec: BeamSpec, r: float, z: float, phis,
    abs_tol: float | None = None, rel_tol: float = 1e-9,
) -> list[Spinor]:
    """Spinor wavefunction at each azimuth phi of the ring (r, z).

    The spinor is a normalisation times (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi})
    with radial amplitudes (a, b) from :func:`radial_amplitudes`, which do
    not depend on phi: they are evaluated once for the whole ring.  The
    normalisation is sqrt(kappa/4 pi) e^{i k_z z} for non-diffractive
    beams and 1/sqrt(4 pi) for finite ones.  r, z and every phi are
    checked like :class:`CylPoint` and phi is reduced to [0, 2 pi); the
    tolerances apply to spectral quadrature only.
    """
    CylPoint(r, 0.0, z)  # checks r and z also for an empty ring
    phis = [CylPoint(r, phi, z).phi for phi in phis]
    if isinstance(spec.kind, NonDiffractive):
        amp = math.sqrt(spec.kind.kappa / (4.0 * math.pi)) * cmath.exp(1j * spec.kz * z)
    else:
        amp = _AMP_FINITE
    a, b = radial_amplitudes(spec, r, z, abs_tol, rel_tol)
    n_minus, n_plus = spec.order_minus, spec.order_plus
    return [Spinor(amp * (a * cmath.exp(1j * n_minus * phi)),
                   amp * (b * cmath.exp(1j * n_plus * phi))) for phi in phis]


def evaluate_nondiffractive(spec: BeamSpec, x: CylPoint) -> Spinor:
    """Spinor wavefunction of a fixed-kappa beam at a point.

    sqrt(kappa/4 pi) e^{i k_z z} (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi}) with
    Bessel amplitudes (a, b) from :func:`radial_amplitudes`.
    """
    if not isinstance(spec.kind, NonDiffractive):
        raise ValueError("evaluate_nondiffractive needs a NonDiffractive spec")
    return evaluate_ring(spec, x.r, x.z, [x.phi])[0]


def evaluate_finite(
    spec: BeamSpec, x: CylPoint,
    abs_tol: float | None = None, rel_tol: float = 1e-9,
) -> Spinor:
    """Spinor wavefunction of a finite (square-integrable) beam at a point.

    (1/sqrt(4 pi)) (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi}) with spectral
    amplitudes (a, b) from :func:`radial_amplitudes`; azimuthal beams
    carry their cone weights inside the spectral integral.
    """
    if not isinstance(spec.kind, Finite):
        raise ValueError("evaluate_finite needs a Finite spec")
    return evaluate_ring(spec, x.r, x.z, [x.phi], abs_tol, rel_tol)[0]


# ----------------------------------------------------------------------
# momentum-space reconstruction oracle
# ----------------------------------------------------------------------

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def reconstruct_from_momentum(spec: BeamSpec, x: CylPoint) -> Spinor:
    """Evaluate a non-diffractive beam from its momentum representation.

    The radial delta of the momentum basis collapses the transform to a
    single azimuthal integral of the eigenspinor against the plane-wave
    kernel e^{i kappa r cos(phi' - phi)}; that integral is done by
    adaptive quadrature.  Serves as the independent oracle for
    :func:`evaluate_nondiffractive` and the component table.
    """
    if not isinstance(spec.kind, NonDiffractive):
        raise ValueError("reconstruct_from_momentum needs a NonDiffractive spec")
    kappa = spec.kind.kappa
    m = spec.m
    if spec.configuration is Configuration.RADIAL:
        eigen = lambda p: eigenspinor_radial(spec.sigma, p)
    else:
        eigen = lambda p: eigenspinor_azimuthal(spec.sigma, p, kappa / spec.k)

    kernel = lambda p: np.exp(1j * (m * p + kappa * x.r * np.cos(p - x.phi)))
    panels = max(8, int(kappa * x.r / math.pi) + 4)
    up_int = integrate(lambda p: eigen(p).up * kernel(p), 0.0, _TWO_PI,
                       abs_tol=1e-13, rel_tol=1e-11, initial_panels=panels).value
    dn_int = integrate(lambda p: eigen(p).down * kernel(p), 0.0, _TWO_PI,
                       abs_tol=1e-13, rel_tol=1e-11, initial_panels=panels).value

    pref = (
        (1.0 / _TWO_PI)
        * math.sqrt(kappa / _TWO_PI)
        * _I_POW[(-m) % 4]
        * cmath.exp(1j * spec.kz * x.z)
    )
    return Spinor(pref * up_int, pref * dn_int)
