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
reconstruction sums the eigenspinors against the plane-wave kernel on a
trapezoid rule and is the independent oracle for that table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, _ArgumentError
from .quadrature import _MAX_PANELS, _NODES, integrate
from .specfun import HalfInt, _exp_minus_twice, _iv_pair, _jn_pair

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
    "evaluate",
    "radial_amplitudes",
    "spectral_profile",
    "reconstruct_from_momentum",
]

_TWO_PI = 2.0 * math.pi
_AMP_FINITE = 1.0 / math.sqrt(4.0 * math.pi)

# the widest band, in units of 1/w0: the spectrum is numerically dead beyond
# kappa ~ 10/w0 (|f|^2 tail < 1e-43); spectral quadrature ends its band
# sooner where abs_tol allows (at 8.1/w0 for the default)
_SPECTRUM_CUT = 10.0
_MAX_GUARD_PANELS = 3000
# cap on the Bessel arguments (points x nodes) of a block's guard-panel
# batch, its largest integrand call, unless the block is a single point
_BLOCK_ARGUMENTS = 2 ** 13


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
        # w0^2 enters the spectrum and the profiles: it may neither overflow nor underflow
        if not (self.w0 > 0.0 and sys.float_info.min <= self.w0 * self.w0 <= sys.float_info.max):
            raise ValueError("waist w0 must be positive, with w0^2 a finite, normal float")

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


def _check_paraxial(spectrum: GaussianSpectrum, k: float) -> None:
    """ValueError unless the paraxial closed form holds: k * w0 >= 10 and
    2 w0^3 a finite, normal float."""
    if not spectrum.paraxial_valid(k):
        raise ValueError("paraxial closed form requires k * w0 >= 10")
    # the profile divides by 2 w^3, which is 2 w0^3 at the waist
    w0 = float(spectrum.w0)
    if not sys.float_info.min <= 2.0 * w0 * w0 * w0 <= sys.float_info.max:
        raise ValueError("paraxial closed form requires a finite, normal 2 w0^3")


@dataclass(frozen=True)
class BeamSpec:
    """Full description of one beam.

    j must be half-odd-integer; the orbital quantum number of the upper
    component is m = j - sigma/2, always an integer.  Non-diffractive
    kinds need 0 < kappa < k; the paraxial closed form is only defined
    for the radial configuration and requires k * w0 >= 10 and 2 w0^3 a
    finite, normal float.
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
        # likewise k^2, which enters k_z and the guard panels
        if not (self.k > 0.0 and sys.float_info.min <= self.k * self.k <= sys.float_info.max):
            raise ValueError("k must be positive, with k^2 a finite, normal float")
        if isinstance(self.kind, NonDiffractive):
            if not (0.0 < self.kind.kappa < self.k):
                raise ValueError("non-diffractive beams need 0 < kappa < k")
        elif isinstance(self.kind, Finite):
            if self.kind.method is FiniteMethod.PARAXIAL_CLOSED_FORM:
                if self.configuration is not Configuration.RADIAL:
                    raise ValueError(
                        "the paraxial closed form exists only for the radial configuration"
                    )
                _check_paraxial(self.kind.spectrum, self.k)
        else:
            raise ValueError(f"unknown beam kind {self.kind!r}")

    @property
    def m(self) -> int:
        return (self.j.twice_value - self.sigma) // 2

    @property
    def order_minus(self) -> int:
        return (self.j.twice_value - 1) // 2

    @property
    def order_plus(self) -> int:
        return (self.j.twice_value + 1) // 2

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


def _guard_panels(kappa_cut: float, r: np.ndarray, z: np.ndarray, k: float) -> np.ndarray:
    # pre-split so each starting panel spans at most about one period of
    # the fastest phase: J_n(kappa r) oscillates at rate r in kappa, and
    # the propagation phase at rate |z| kappa / k_z.
    kz_min = math.sqrt(max(k * k - kappa_cut * kappa_cut, 1e-12 * k * k))
    with np.errstate(over="ignore"):
        periods = kappa_cut * (r + np.abs(z) * kappa_cut / kz_min) / _TWO_PI
    # clipped before the cast, which a count past the int range would wrap
    return np.minimum(periods, _MAX_GUARD_PANELS - 4).astype(int) + 4


def _finite_at(values, at, what: str, coordinate: str = "z"):
    """values, or _ArgumentError naming the first value of the coordinate ``at``
    where they are not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        first = float(np.broadcast_to(at, bad.shape)[bad][0])
        raise _ArgumentError(coordinate, f"{what} is not finite at {coordinate} = {first!r}")
    return values


def _carrier(kz: float, z):
    """e^{i kz z}; _ArgumentError where the phase kz z overflows."""
    with np.errstate(over="ignore"):
        phase = kz * np.asarray(z)
    return np.exp(1j * _finite_at(phase, z, "the carrier phase"))


def _quadrature_profile(orders: tuple[int, ...], weight_signs: tuple[int, ...], r: np.ndarray,
                        z: np.ndarray, spectrum: GaussianSpectrum, k: float, paraxial_phase: bool,
                        abs_tol: float | None, rel_tol: float) -> np.ndarray:
    # Profiles of the orders (in {n, n + 1} with n >= 0: one Bessel pair
    # serves all) with their cone weights at the broadcast (r, z), shape
    # (len(orders),) + r.shape.  Points sorted by guard panels form blocks,
    # each one vector integral on the guard panels of its last, fastest point.
    # The integrand carries the phase e^{i(k_z - k)z}, and the carrier e^{ikz}
    # multiplies each point's integral once: the phase k_z z of a far-field
    # point would otherwise drown the spectral integral in roundoff.
    w0 = spectrum.w0
    if abs_tol is None:
        abs_tol = 1e-13 * math.sqrt(2.0) / w0
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise ValueError("tolerances must be positive")
    # |J_n| <= 1 and the cone weight is at most sqrt(2), so the integrand's
    # modulus is at most 2 w0 kappa e^{-w0^2 kappa^2 / 2}, whose tail past
    # kappa_live is (2/w0) e^{-w0^2 kappa_live^2 / 2}: the band ends where that
    # tail is abs_tol/16, and the integral takes the other 15/16 of abs_tol
    # (the logs keep 32/(w0 abs_tol) from overflowing)
    kappa_live = math.sqrt(2.0 * max(0.0, math.log(32.0) - math.log(w0) - math.log(abs_tol))) / w0
    kappa_cut = min(k, _SPECTRUM_CUT / w0, kappa_live)
    n = min(orders)
    rs, zs = r.ravel(), z.ravel()
    carrier = _carrier(k, zs)
    with np.errstate(over="ignore"):
        _finite_at(kappa_cut * rs, rs, "bessel_j requires finite x >= 0, but kappa_cut r", "r")
    panels = _guard_panels(kappa_cut, rs, zs, k)
    order = np.argsort(panels, kind="stable")
    out = np.zeros((len(orders), rs.size), dtype=complex)
    # an empty band, where abs_tol >= 32/w0, leaves every profile 0
    start = 0 if kappa_cut > 0.0 else rs.size
    while start < rs.size:
        # the most points whose guard-panel batch fits, and at least one; a
        # point has at least one panel, so the block lies within `head`
        head = order[start:start + _BLOCK_ARGUMENTS // _NODES.size]
        fits = np.arange(1, head.size + 1) * panels[head] * _NODES.size <= _BLOCK_ARGUMENTS
        block = head[:max(1, int(np.count_nonzero(fits)))]
        start += block.size
        rb, zb = rs[block, None], zs[block, None]

        def integrand(kap):
            # rows: the (orders, points) grid of the block, row-major
            # k_z - k = -kappa^2 / (k + k_z), free of cancellation near kappa = 0
            ksq = np.square(kap)
            if paraxial_phase:
                detune = -ksq / (2.0 * k)
            else:
                detune = -ksq / (k + np.sqrt(np.maximum(k * k - ksq, 0.0)))
            out = np.exp(1j * detune * zb) * (spectrum.amplitude(kap) * kap) * \
                _jn_pair(n, kap * rb)[np.subtract(orders, n)]
            if any(weight_signs):
                weight = np.sqrt(np.clip(1.0 + np.multiply.outer(weight_signs, kap / k), 0.0, None))
                out *= weight[:, None]
            return out.reshape(-1, kap.size)

        res = integrate(integrand, 0.0, kappa_cut, abs_tol=15.0 / 16.0 * abs_tol, rel_tol=rel_tol,
                        initial_panels=int(panels[block[-1]]))
        out[:, block] = res.value.reshape(len(orders), block.size)
    # the carrier e^{ikz}, once per point
    return (out * carrier).reshape((len(orders),) + r.shape)


def _paraxial_profile(orders: tuple[int, ...], r: np.ndarray, z: np.ndarray,
                      spectrum: GaussianSpectrum, k: float) -> np.ndarray:
    # modified-Bessel-Gaussian closed form of each order n >= 0 at the broadcast (r, z),
    # shape (len(orders),) + r.shape; w^2 = w0^2 (1 + i z/z0) with the principal
    # square root, so Re(1/w^2) > 0 and the profile decays.  w^2, 2 w^3, x and
    # the carrier, and their checks, are formed once for all orders.
    w0 = spectrum.w0
    z0 = k * w0 * w0
    if z.size and np.all(z == z.flat[0]):
        z = z.flat[0]  # one plane: w^2, its root and the carrier once
    with np.errstate(over="ignore", invalid="ignore"):
        wsq = w0 * w0 * (1.0 + 1j * (z / z0))
        cube = _finite_at(2.0 * wsq * np.sqrt(wsq), z, "2 w^3 of the paraxial profile")
        x = _finite_at(r * r / (4.0 * wsq), r, "r^2/(4 w^2) of the paraxial profile", "r")
    carrier = _carrier(k, z)
    # only the Bessel orders divide by 2 w^3, which may underflow to 0
    pref = math.sqrt(math.pi) * w0 * carrier / cube if any(orders) else None
    out = np.empty((len(orders),) + r.shape, dtype=complex)
    for i, n in enumerate(orders):
        if n == 0:
            # the half-integer bracket collapses: e^{-x}(I_{-1/2} - I_{1/2})
            # equals sqrt(2/(pi x)) e^{-2x}, leaving a pure Gaussian
            out[i] = (math.sqrt(2.0) * w0 / wsq * carrier) * _exp_minus_twice(x)
        else:
            # the bracket e^{-x} (I_{(n-1)/2}(x) - I_{(n+1)/2}(x)) at x = r^2/(4 w^2),
            # from one pair; the prefactor's r vanishes on the axis, where it is finite
            lower, upper = _iv_pair(HalfInt(n - 1), x)
            out[i] = pref * r * (lower - upper)
    return out


def _azimuths(phi) -> np.ndarray:
    """phi as a float array; ValueError unless it is finite."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi and z must be finite")
    return phi


def _points(r, z) -> tuple[np.ndarray, np.ndarray]:
    """r and z as broadcast float arrays; ValueError unless r >= 0 and both are finite."""
    r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
    if not np.all((r >= 0.0) & np.isfinite(r)):
        raise ValueError("r must be finite and >= 0")
    if not np.all(np.isfinite(z)):
        raise ValueError("phi and z must be finite")
    return r, z


def spectral_profile(n: int, r, z, spectrum: GaussianSpectrum, k: float,
                     method: FiniteMethod = FiniteMethod.QUADRATURE, paraxial_phase: bool = False,
                     abs_tol: float | None = None, rel_tol: float = 1e-9):
    """Radial profile F_n(r, z) of a finite beam component.

    r and z broadcast; a scalar pair gives a complex scalar.  ValueError is
    raised unless r >= 0 and both are finite, and names z where the carrier
    phase k z or, for the paraxial form, w(z)^3 overflows, and r where the
    paraxial form's r^2/(4 w^2) or the quadrature's largest Bessel argument
    kappa_cut r does.

    Quadrature method: the spectral integral of f(kappa) J_n(kappa r)
    e^{i k_z z} kappa over [0, kappa_cut], with exact k_z = sqrt(k^2 -
    kappa^2) by default; ``paraxial_phase=True`` replaces the phase by
    k - kappa^2/(2k) (used by the consistency checks).  The band ends at
    kappa_cut = min(k, 10/w0, kappa_live): past kappa_live the integrand's
    Gaussian bound 2 w0 kappa e^{-w0^2 kappa^2 / 2} leaves a tail of abs_tol/16,
    and the integral meets the other 15/16 of abs_tol (with rel_tol).  With
    the default abs_tol, 1e-13 sqrt(2)/w0, kappa_live is 8.1/w0; an abs_tol
    of 32/w0 or more leaves the band empty and the profile 0.  Negative n is
    reflected through (-1)^n F_{|n|}; ValueError unless both tolerances are
    positive.

    Paraxial method: the modified-Bessel-Gaussian closed form, defined
    for n >= 0, k * w0 >= 10 and 2 w0^3 a finite, normal float only.
    """
    r, z = _points(r, z)
    if method is FiniteMethod.PARAXIAL_CLOSED_FORM:
        if n < 0:
            raise ValueError("the paraxial closed form is derived for n >= 0 only")
        _check_paraxial(spectrum, k)
        return _paraxial_profile((n,), r, z, spectrum, k)[0][()]
    profile = _quadrature_profile((abs(n),), (0,), r, z, spectrum, k, paraxial_phase, abs_tol,
                                  rel_tol)[0]
    return ((-1.0) ** n * profile if n < 0 else profile)[()]  # F_n = (-1)^n F_{|n|}


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


def radial_amplitudes(spec: BeamSpec, r, z, abs_tol: float | None = None, rel_tol: float = 1e-9):
    """Radial amplitudes (a, b) of the upper and lower spinor components.

    r and z broadcast; ValueError is raised unless r >= 0 and both are
    finite, and names the z or r where a finite beam's profile overflows
    (see :func:`spectral_profile`; for spectral quadrature, r where kappa_cut
    r does) and r where a non-diffractive kappa r does.  The result is two
    complex arrays of the broadcast shape (scalars for scalar input).  Each is the Bessel, paraxial or spectral-quadrature profile of its
    order (one kernel call, or one vector integral per block of points for
    both components) times the cone weight and constant factor of
    ``_COMPONENTS``.  The spinor is a normalisation times
    (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi}); non-diffractive amplitudes leave
    out the carrier e^{i k_z z}.  The tolerances apply to spectral quadrature
    only, to each profile.
    """
    r, z = _points(r, z)
    kind = spec.kind
    rows = _COMPONENTS[spec.configuration, spec.sigma]
    # the kernels take |n|, and J_n = (-1)^n J_{|n|}, F_n = (-1)^n F_{|n|} for n < 0
    signed = (spec.order_minus, spec.order_plus)
    orders = (abs(signed[0]), abs(signed[1]))
    if isinstance(kind, NonDiffractive):
        # one Bessel pair serves both orders
        with np.errstate(over="ignore"):
            x = _finite_at(kind.kappa * r.ravel(), r.ravel(),
                           "bessel_j requires finite x >= 0, but kappa r", "r")
        n = min(orders)
        pair = _jn_pair(n, x).reshape((2,) + r.shape)
        profiles = [math.sqrt(1.0 + s * kind.kappa / spec.k) * pair[o - n]
                    for o, (s, _) in zip(orders, rows)]
    elif kind.method is FiniteMethod.PARAXIAL_CLOSED_FORM:
        profiles = _paraxial_profile(orders, r, z, kind.spectrum, spec.k)
    else:
        profiles = _quadrature_profile(orders, tuple(s for s, _ in rows), r, z, kind.spectrum,
                                       spec.k, False, abs_tol, rel_tol)
    return tuple(np.asarray(factor * ((-1.0) ** o * p if o < 0 else p), dtype=complex)[()]
                 for o, (_, factor), p in zip(signed, rows, profiles))


def evaluate(spec: BeamSpec, r, phi, z, abs_tol: float | None = None, rel_tol: float = 1e-9) -> Spinor:
    """Spinor wavefunction at the broadcast points (r, phi, z).

    A normalisation times (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi}) with radial
    amplitudes (a, b) from :func:`radial_amplitudes` on the broadcast of r
    and z alone, so the azimuths of a ring share one evaluation.  The
    normalisation is sqrt(kappa/4 pi) e^{i k_z z} for non-diffractive beams
    and 1/sqrt(4 pi) for finite ones.  ValueError is raised unless r >= 0 and
    r, phi and z are finite, and names the z or r where the amplitudes or
    the phase k_z z overflow; phi is reduced to [0, 2 pi).  The components
    are arrays of the broadcast shape, complex scalars for scalar input.
    """
    phi = _azimuths(phi)
    return _spinor(spec, *radial_amplitudes(spec, r, z, abs_tol, rel_tol), phi, z)


def _spinor(spec: BeamSpec, a, b, phi, z) -> Spinor:
    """The spinor of :func:`evaluate` from its radial amplitudes (a, b) at the
    broadcast points; phi must be finite."""
    if isinstance(spec.kind, NonDiffractive):
        amp = math.sqrt(spec.kind.kappa / (4.0 * math.pi)) * _carrier(spec.kz, z)
    else:
        amp = _AMP_FINITE
    phi = np.mod(phi, _TWO_PI)
    up = amp * (a * np.exp(1j * spec.order_minus * phi))
    down = amp * (b * np.exp(1j * spec.order_plus * phi))
    return Spinor(up[()], down[()])


def evaluate_nondiffractive(spec: BeamSpec, x: CylPoint) -> Spinor:
    """Spinor wavefunction of a fixed-kappa beam at a point.

    sqrt(kappa/4 pi) e^{i k_z z} (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi}) with
    Bessel amplitudes (a, b) from :func:`radial_amplitudes`.
    """
    if not isinstance(spec.kind, NonDiffractive):
        raise ValueError("evaluate_nondiffractive needs a NonDiffractive spec")
    return evaluate(spec, x.r, x.phi, x.z)


def evaluate_finite(spec: BeamSpec, x: CylPoint,
                    abs_tol: float | None = None, rel_tol: float = 1e-9) -> Spinor:
    """Spinor wavefunction of a finite (square-integrable) beam at a point.

    (1/sqrt(4 pi)) (a e^{i(j-1/2)phi}, b e^{i(j+1/2)phi}) with spectral
    amplitudes (a, b) from :func:`radial_amplitudes`; azimuthal beams
    carry their cone weights inside the spectral integral.
    """
    if not isinstance(spec.kind, Finite):
        raise ValueError("evaluate_finite needs a Finite spec")
    return evaluate(spec, x.r, x.phi, x.z, abs_tol, rel_tol)


# ----------------------------------------------------------------------
# momentum-space reconstruction oracle
# ----------------------------------------------------------------------


def reconstruct_from_momentum(spec: BeamSpec, r, phi, z) -> Spinor:
    """Evaluate a non-diffractive beam from its momentum representation.

    The radial delta of the momentum basis collapses the transform to one
    periodic integral over phi' of the eigenspinor times the plane-wave kernel
    e^{i(m phi' + kappa r cos(phi' - phi))}, done as the N-point trapezoid sum:
    the independent oracle for :func:`evaluate` of non-diffractive beams and
    the component table.  The eigenspinor's Fourier modes are 0 and +-1, and
    the kernel's mode m + nu has weight i^nu J_nu(kappa r), so each alias of
    the rule is bounded by |J_nu(kappa r)| with nu >= N - |m| - 1.  N = |m| + 2
    + floor(x + 13 (x + 1)^(1/3)) + 25 with x = kappa r_max puts every alias
    past the Airy-zone cushion where the Bessel backward recurrence starts.
    ConvergenceError is raised, before any node is formed, where N exceeds the
    abscissa budget of one integral, ``_MAX_PANELS`` panels of 15 nodes.

    r, phi and z broadcast and are checked like :func:`evaluate`; the
    components are arrays of the broadcast shape (complex scalars for scalar
    input).
    """
    if not isinstance(spec.kind, NonDiffractive):
        raise ValueError("reconstruct_from_momentum needs a NonDiffractive spec")
    phi = _azimuths(phi)
    r, z = _points(r, z)
    r, phi, z = np.broadcast_arrays(r, phi, z)
    kappa = spec.kind.kappa
    m = spec.m
    x = kappa * float(r.max(initial=0.0))
    nodes = abs(m) + 2 + x + 13.0 * (x + 1.0) ** (1.0 / 3.0) + 25
    if not nodes <= _MAX_PANELS * _NODES.size:
        raise ConvergenceError(f"kappa r = {x:.3g} needs more than {_MAX_PANELS * _NODES.size} "
                               "trapezoid nodes")
    nodes = math.floor(nodes)
    p = np.arange(nodes) * (_TWO_PI / nodes)
    if spec.configuration is Configuration.RADIAL:
        spinor = eigenspinor_radial(spec.sigma, p)
    else:
        spinor = eigenspinor_azimuthal(spec.sigma, p, kappa / spec.k)
    kernel = np.exp(1j * (m * p + kappa * r.reshape(-1, 1) * np.cos(p - phi.reshape(-1, 1))))
    up, down = np.stack(np.broadcast_arrays(spinor.up, spinor.down)) @ kernel.T
    # sqrt(kappa/2 pi) i^{-m} e^{i k_z z} times the mean over the nodes
    pref = math.sqrt(kappa / _TWO_PI) * (-1j) ** (m % 4) / nodes * _carrier(spec.kz, z)
    return Spinor((pref * up.reshape(r.shape))[()], (pref * down.reshape(r.shape))[()])
