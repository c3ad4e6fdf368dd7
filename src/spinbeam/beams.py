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

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import _ArgumentError
from .quadrature import _NODES, integrate
from .specfun import HalfInt, _iv_pair, _jn_pair

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

# the spectrum is numerically dead beyond kappa ~ 10/w0 (|f|^2 tail < 1e-43)
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


@dataclass(frozen=True)
class BeamSpec:
    """Full description of one beam.

    j must be half-odd-integer; the orbital quantum number of the upper
    component is m = j - sigma/2, always an integer.  Non-diffractive
    kinds need 0 < kappa < k; the paraxial closed form is only defined
    for the radial configuration and requires k * w0 >= 10 and a finite
    2 w0^3.
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
                if not self.kind.spectrum.paraxial_valid(self.k):
                    raise ValueError("paraxial closed form requires k * w0 >= 10")
                # the profile divides by 2 w^3, which is 2 w0^3 at the waist
                w0 = float(self.kind.spectrum.w0)
                if not math.isfinite(2.0 * w0 * w0 * w0):
                    raise ValueError("paraxial closed form requires 2 w0^3 to be a finite float")
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
    # Profiles of the orders (|orders| in {n, n + 1}: one Bessel pair serves
    # all) with their cone weights at the broadcast (r, z), shape
    # (len(orders),) + r.shape.  Points sorted by guard panels form blocks,
    # each one vector integral on the guard panels of its last, fastest point.
    # The integrand carries the phase e^{i(k_z - k)z}, and the carrier e^{ikz}
    # multiplies each point's integral once: the phase k_z z of a far-field
    # point would otherwise drown the spectral integral in roundoff.
    kappa_cut = min(k, _SPECTRUM_CUT / spectrum.w0)
    if abs_tol is None:
        abs_tol = 1e-13 * math.sqrt(2.0) / spectrum.w0
    n = min(abs(o) for o in orders)
    rs, zs = r.ravel(), z.ravel()
    carrier = _carrier(k, zs)
    with np.errstate(over="ignore"):
        _finite_at(kappa_cut * rs, rs, "bessel_j requires finite x >= 0, but kappa_cut r", "r")
    panels = _guard_panels(kappa_cut, rs, zs, k)
    order = np.argsort(panels, kind="stable")
    out = np.empty((len(orders), rs.size), dtype=complex)
    start = 0
    while start < rs.size:
        # the most points whose guard-panel batch fits, and at least one; a
        # point has at least one panel, so the block lies within `head`
        head = order[start:start + _BLOCK_ARGUMENTS // _NODES.size]
        fits = np.arange(1, head.size + 1) * panels[head] * _NODES.size <= _BLOCK_ARGUMENTS
        block = head[:max(1, int(np.count_nonzero(fits)))]
        start += block.size
        rb, zb = rs[block, None], zs[block, None]

        def integrand(kap, rows=None):
            # the requested rows of the (orders, points) grid; the Bessel pair
            # and the phase only at the points they need
            which, used, at = _row_points(rows, len(orders), block.size)
            # k_z - k = -kappa^2 / (k + k_z), free of cancellation near kappa = 0
            ksq = np.square(kap)
            if paraxial_phase:
                detune = -ksq / (2.0 * k)
            else:
                detune = -ksq / (k + np.sqrt(np.maximum(k * k - ksq, 0.0)))
            # one real (rows, nodes) factor alive at a time bounds the peak memory
            factor = _jn_pair(n, kap * rb[used])[np.abs(orders)[which] - n, at]
            out = (np.exp(1j * detune * zb[used]) * (spectrum.amplitude(kap) * kap))[at]
            out *= factor
            if any(weight_signs):
                factor = np.sqrt(np.clip(1.0 + np.multiply.outer(weight_signs, kap / k), 0.0, None))
                out *= factor[which]
            return out

        res = integrate(integrand, 0.0, kappa_cut, abs_tol=abs_tol, rel_tol=rel_tol,
                        initial_panels=int(panels[block[-1]]))
        out[:, block] = res.value.reshape(len(orders), block.size)
    # the carrier e^{ikz}, once per point; F_n = (-1)^n F_{|n|} for n < 0
    signs = np.array([(-1.0) ** min(o, 0) for o in orders])
    return (signs[:, None] * out * carrier).reshape((len(orders),) + r.shape)


def _row_points(rows, parts: int, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Part index, distinct points and each row's place among them, of the rows
    (all if None) of a vector integrand whose rows are a row-major (parts, points) grid."""
    rows = np.arange(parts * points) if rows is None else rows
    which, point = np.divmod(rows, points)
    used = np.flatnonzero(np.bincount(point, minlength=points))
    return which, used, np.searchsorted(used, point)


def _paraxial_profile(n: int, r: np.ndarray, z: np.ndarray, spectrum: GaussianSpectrum,
                      k: float) -> np.ndarray:
    # modified-Bessel-Gaussian closed form; w^2 = w0^2 (1 + i z/z0) with
    # the principal square root, so Re(1/w^2) > 0 and the profile decays.
    w0 = spectrum.w0
    z0 = k * w0 * w0
    if z.size and np.all(z == z.flat[0]):
        z = z.flat[0]  # one plane: w^2, its root and the carrier once
    with np.errstate(over="ignore", invalid="ignore"):
        wsq = w0 * w0 * (1.0 + 1j * (z / z0))
        cube = _finite_at(2.0 * wsq * np.sqrt(wsq), z, "2 w^3 of the paraxial profile")
        x = _finite_at(r * r / (4.0 * wsq), r, "r^2/(4 w^2) of the paraxial profile", "r")
    carrier = _carrier(k, z)
    if n == 0:
        # the half-integer bracket collapses: e^{-x}(I_{-1/2} - I_{1/2})
        # equals sqrt(2/(pi x)) e^{-2x}, leaving a pure Gaussian
        return (math.sqrt(2.0) * w0 / wsq * carrier) * np.exp(-2.0 * x)
    # the bracket e^{-x} (I_{(n-1)/2}(x) - I_{(n+1)/2}(x)) at x = r^2/(4 w^2),
    # from one pair; the prefactor's r vanishes on the axis, where it is finite
    pref = math.sqrt(math.pi) * w0 * carrier / cube
    lower, upper = _iv_pair(HalfInt(n - 1), x)
    return pref * r * (lower - upper)


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
    e^{i k_z z} kappa over [0, k], with exact k_z = sqrt(k^2 - kappa^2)
    by default; ``paraxial_phase=True`` replaces the phase by
    k - kappa^2/(2k) (used by the consistency checks).  Negative n is
    reflected through (-1)^n F_{|n|}.

    Paraxial method: the modified-Bessel-Gaussian closed form, defined
    for n >= 0 and k * w0 >= 10 only.
    """
    r, z = _points(r, z)
    if method is FiniteMethod.PARAXIAL_CLOSED_FORM:
        if n < 0:
            raise ValueError("the paraxial closed form is derived for n >= 0 only")
        if not spectrum.paraxial_valid(k):
            raise ValueError("paraxial closed form requires k * w0 >= 10")
        return _paraxial_profile(n, r, z, spectrum, k)[()]
    return _quadrature_profile((n,), (0,), r, z, spectrum, k, paraxial_phase, abs_tol, rel_tol)[0][()]


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
    orders = (spec.order_minus, spec.order_plus)
    rows = _COMPONENTS[spec.configuration, spec.sigma]
    if isinstance(kind, NonDiffractive):
        # one Bessel pair serves both orders, J_{-n} = (-1)^n J_n
        with np.errstate(over="ignore"):
            x = _finite_at(kind.kappa * r.ravel(), r.ravel(),
                           "bessel_j requires finite x >= 0, but kappa r", "r")
        n = min(abs(o) for o in orders)
        pair = _jn_pair(n, x).reshape((2,) + r.shape)
        profiles = [(-1.0) ** min(o, 0) * math.sqrt(1.0 + s * kind.kappa / spec.k) * pair[abs(o) - n]
                    for o, (s, _) in zip(orders, rows)]
    elif kind.method is FiniteMethod.PARAXIAL_CLOSED_FORM:
        # the closed form is derived for n >= 0; reflect through (-1)^n F_{|n|}
        profiles = [(-1.0) ** min(n, 0) * _paraxial_profile(abs(n), r, z, kind.spectrum, spec.k)
                    for n in orders]
    else:
        profiles = _quadrature_profile(orders, tuple(s for s, _ in rows), r, z, kind.spectrum,
                                       spec.k, False, abs_tol, rel_tol)
    return tuple(np.asarray(factor * p, dtype=complex)[()] for (_, factor), p in zip(rows, profiles))


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

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def reconstruct_from_momentum(spec: BeamSpec, r, phi, z) -> Spinor:
    """Evaluate a non-diffractive beam from its momentum representation.

    The radial delta of the momentum basis collapses the transform to a
    single azimuthal integral of the eigenspinor against the plane-wave
    kernel e^{i kappa r cos(phi' - phi)}; that integral is done by
    adaptive quadrature.  Serves as the independent oracle for
    :func:`evaluate` of non-diffractive beams and the component table.

    r, phi and z broadcast and are checked like :func:`evaluate`; both
    components at every point are the rows of one vector integral, each
    meeting its own tolerance, and are arrays of the broadcast shape
    (complex scalars for scalar input).
    """
    if not isinstance(spec.kind, NonDiffractive):
        raise ValueError("reconstruct_from_momentum needs a NonDiffractive spec")
    phi = _azimuths(phi)
    r, z = _points(r, z)
    r, phi, z = np.broadcast_arrays(r, phi, z)
    kappa = spec.kind.kappa
    m = spec.m
    if spec.configuration is Configuration.RADIAL:
        eigen = lambda p: eigenspinor_radial(spec.sigma, p)
    else:
        eigen = lambda p: eigenspinor_azimuthal(spec.sigma, p, kappa / spec.k)
    kr, phis = kappa * r.ravel()[:, None], phi.ravel()[:, None]

    def integrand(p, rows=None):  # the rows (components, points) of one vector integral
        which, used, at = _row_points(rows, 2, r.size)
        spinor = eigen(p)
        kernel = np.exp(1j * (m * p + kr[used] * np.cos(p - phis[used])))
        return np.stack(np.broadcast_arrays(spinor.up, spinor.down))[which] * kernel[at]
    panels = max(8, int(kappa * r.max(initial=0.0) / math.pi) + 4)
    up_int, dn_int = integrate(integrand, 0.0, _TWO_PI, abs_tol=1e-13, rel_tol=1e-11,
                               initial_panels=panels).value.reshape((2,) + r.shape)

    pref = (
        (1.0 / _TWO_PI)
        * math.sqrt(kappa / _TWO_PI)
        * _I_POW[(-m) % 4]
        * np.exp(1j * spec.kz * z)
    )
    return Spinor((pref * up_int)[()], (pref * dn_int)[()])
