"""Built-in verification suite.

Each check pits a closed form against an independent route (quadrature
reconstruction, extrapolated limits, the sigma-matrix reduction) or pins
an anchored constant, and records measured values against fixed
tolerances.  :func:`run_suite` runs them all at their stated sizes,
including the k*w0 = 100 oracle comparisons.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .beams import (
    BeamSpec,
    Configuration,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    NonDiffractive,
    _paraxial_profile,
    _quadrature_profile,
    _spinor,
    evaluate,
    radial_amplitudes,
    reconstruct_from_momentum,
)
from .polarization import (
    _texture,
    probability_density,
    spin_expectation,
    spin_polarization,
)
from .quadrature import integrate
from .specfun import HalfInt, _series, bessel_i_scaled, bessel_j_zero
from .topology import charge_boundary, charge_formula

__all__ = ["CheckLine", "CheckOutcome", "run_suite", "CHECKS"]

_J0_FIRST_ZERO_5DIGIT = 2.4048
_J0_FIRST_ZERO = 2.404825557695773


@dataclass(frozen=True)
class CheckLine:
    label: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


@dataclass
class CheckOutcome:
    name: str
    lines: list[CheckLine] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)


def _spectrum() -> GaussianSpectrum:
    return GaussianSpectrum(1.0)


def _beam_nd(config: Configuration, twice_j: int, sigma: int) -> BeamSpec:
    return BeamSpec(config, HalfInt(twice_j), sigma, 2.0, NonDiffractive(1.2))


def _beam_finite_radial(twice_j: int, sigma: int, method=FiniteMethod.PARAXIAL_CLOSED_FORM) -> BeamSpec:
    return BeamSpec(Configuration.RADIAL, HalfInt(twice_j), sigma, 100.0,
                    Finite(_spectrum(), method))


def _beam_finite_azimuthal(twice_j: int, sigma: int) -> BeamSpec:
    return BeamSpec(Configuration.AZIMUTHAL, HalfInt(twice_j), sigma, 100.0,
                    Finite(_spectrum(), FiniteMethod.QUADRATURE))


def _four_families() -> dict[str, BeamSpec]:
    return {
        "nondiffractive radial": _beam_nd(Configuration.RADIAL, 1, 1),
        "nondiffractive azimuthal": _beam_nd(Configuration.AZIMUTHAL, 1, 1),
        "finite radial": _beam_finite_radial(1, 1),
        "finite azimuthal": _beam_finite_azimuthal(1, 1),
    }


def _random_points(rng, spec: BeamSpec, n_pts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r, phi and z arrays of n_pts random points in the bright region of the beam.

    The draws come point by point in the order r, z, phi; azimuthal finite
    beams keep within a quarter of the Rayleigh range of the waist.
    """
    if isinstance(spec.kind, NonDiffractive):
        low, high = [0.05, -5.0, 0.0], [6.0, 5.0, 2.0 * math.pi]
    else:
        w0 = spec.kind.spectrum.w0
        z_max = spec.kind.spectrum.rayleigh_range(spec.k)
        if spec.configuration is Configuration.AZIMUTHAL:
            z_max *= 0.25
        low, high = [0.05 * w0, -z_max, 0.0], [3.36 * w0, z_max, 2.0 * math.pi]
    r, z, phi = rng.uniform(low, high, size=(n_pts, 3)).T
    return r, phi, z


# ----------------------------------------------------------------------
# the twelve checks
# ----------------------------------------------------------------------


def check_topological_charge() -> list[CheckLine]:
    lines = [CheckLine("q_formula(1/2) == -1 (exact)", abs(charge_formula(HalfInt(1)) + 1.0), 0.0)]
    rep = charge_boundary(_beam_finite_radial(1, 1), z=0.0)
    lines.append(CheckLine("q_boundary(1/2, z=0) vs -1", abs(rep.q_boundary + 1.0), 2e-3))
    lines.append(CheckLine("q_formula(201/2) vs -1/2", abs(charge_formula(HalfInt(201)) + 0.5), 1e-2))
    return lines


def check_unit_polarization() -> list[CheckLine]:
    n_pts = 1000
    rng = np.random.default_rng(2001)
    lines = []
    for name, spec in _four_families().items():
        r, phi, z = _random_points(rng, spec, n_pts)
        s = spin_polarization(evaluate(spec, r, phi, z), phi)
        worst = float(np.max(np.abs(s.norm - 1.0)))
        lines.append(CheckLine(f"| |s|-1 | {name} ({n_pts} pts)", worst, 1e-10))
    return lines


def check_momentum_reconstruction() -> list[CheckLine]:
    per_combo = 13
    rng = np.random.default_rng(2003)
    lines = []
    for config in (Configuration.RADIAL, Configuration.AZIMUTHAL):
        worst = 0.0
        for twice_j in (1, -1, 3, -3):
            sigma = 1 if twice_j > 0 else -1
            spec = _beam_nd(config, twice_j, sigma)
            # drawn point by point in the order r, phi, z
            r, phi, z = rng.uniform([0.0, 0.0, -5.0], [8.0, 2.0 * math.pi, 5.0],
                                    size=(per_combo, 3)).T
            a = evaluate(spec, r, phi, z)
            b = reconstruct_from_momentum(spec, r, phi, z)
            worst = max(worst, float(np.max(np.abs(a.up - b.up))),
                        float(np.max(np.abs(a.down - b.down))))
        lines.append(CheckLine(f"closed form vs reconstruction, {config.value}", worst, 1e-8))
    return lines


def check_paraxial_oracle() -> list[CheckLine]:
    spectrum = _spectrum()
    k = 100.0
    z0 = spectrum.rayleigh_range(k)
    # rows are the radii, columns the planes; one vector integral per Bessel pair
    r, z = np.broadcast_arrays(np.array([0.5, 1.0, 3.0, 5.0])[:, None],
                               np.array([0.0, z0 / 4.0, z0]))
    qd = np.concatenate([_quadrature_profile(orders, (0,) * len(orders), r, z, spectrum, k,
                                             paraxial_phase=True, abs_tol=None, rel_tol=1e-9)
                         for orders in ((0, 1), (2,))])
    cf = np.stack([_paraxial_profile(n, r, z, spectrum, k) for n in (0, 1, 2)])
    worst = float(np.max(np.abs(cf - qd) / np.abs(cf)))
    return [CheckLine("closed form vs spectral quadrature (rel, k*w0=100)", worst, 1e-6)]


def check_polarization_cross() -> list[CheckLine]:
    n_pts = 500
    rng = np.random.default_rng(2005)
    lines = []
    for name, spec in _four_families().items():
        r, phi, z = _random_points(rng, spec, n_pts)
        # one amplitude evaluation feeds both routes; no point lies on the axis
        a, b = radial_amplitudes(spec, r, z)
        s1 = spin_polarization(_spinor(spec, a, b, phi, z), phi)
        s2 = _texture(a, b)
        worst = max(float(np.max(np.abs(a - b))) for a, b in zip((s1.s_r, s1.s_phi, s1.s_z), s2))
        lines.append(CheckLine(f"closed-form vs spinor polarization, {name} ({n_pts} pts)",
                               worst, 1e-10))
    return lines


def check_axis_law() -> list[CheckLine]:
    # s_z of the spinor just off the axis, where the lower order dominates:
    # closed_form_texture returns the law itself on the axis
    def s_z(spec):
        return float(spin_polarization(evaluate(spec, 1e-7, 0.0, 0.1), 0.0).s_z)

    worst_pos = max(abs(s_z(spec) - 1.0) for twice_j in (1, 3, 5)
                    for spec in (_beam_nd(Configuration.RADIAL, twice_j, 1),
                                 _beam_nd(Configuration.AZIMUTHAL, twice_j, 1),
                                 _beam_finite_radial(twice_j, 1)))
    worst_neg = max(abs(s_z(spec) + 1.0) for twice_j in (-1, -3)
                    for spec in (_beam_nd(Configuration.RADIAL, twice_j, -1),
                                 _beam_finite_radial(twice_j, -1)))
    return [CheckLine("s_z(0) = +1 for j in {1/2,3/2,5/2}", worst_pos, 1e-12),
            CheckLine("s_z(0) = -1 for j in {-1/2,-3/2}", worst_neg, 1e-12)]


def _position_space_spin(spec: BeamSpec) -> float:
    # <sigma_z> = (1/2) integral of (|a|^2 - |b|^2) r dr at the waist, in position
    # space: the rows of one vector integral over t in [0, 1] are the head r = R t
    # and the tail r = R / t, R = 12 w0 (t = 0 is r = infinity, never sampled)
    r_head = 12.0 * spec.kind.spectrum.w0

    def integrand(t, rows=np.arange(2)):
        tail = rows[:, None] == 1
        a, b = radial_amplitudes(spec, np.where(tail, r_head / t, r_head * t), 0.0)
        return (np.abs(a) ** 2 - np.abs(b) ** 2) * np.where(tail, r_head ** 2 / t ** 3,
                                                            r_head ** 2 * t)

    head, tail = integrate(integrand, 0.0, 1.0, abs_tol=2.5e-10, rel_tol=1e-10,
                           initial_panels=8).value
    return 0.5 * float((head + tail).real)


def check_spin_expectation() -> list[CheckLine]:
    worst = 0.0
    for twice_j in (1, -1, 3):
        for sigma in (1, -1):
            spec = _beam_finite_radial(twice_j, sigma)
            vec = spin_expectation(spec, z=0.0, abs_tol=1e-9)
            worst = max(worst, abs(_position_space_spin(spec)), float(np.max(np.abs(vec))))
    return [CheckLine("|<sigma>| finite radial, j in {+-1/2, 3/2}, sigma = +-1", worst, 1e-8)]


def check_nondiffraction() -> list[CheckLine]:
    lines = []
    for config in (Configuration.RADIAL, Configuration.AZIMUTHAL):
        spec = _beam_nd(config, 1, 1)
        # rows are the radii, columns z = 0 and the three heights
        r = np.array([0.3, 1.7, 4.1])[:, None]
        z = np.array([0.0, 1.0 / spec.k, 10.0 / spec.k, 100.0 / spec.k])
        psi = evaluate(spec, r, 0.9, z)
        rho = probability_density(psi)
        s = spin_polarization(psi, 0.9)
        # each quantity at the three heights against its value at z = 0
        moves = [np.abs(rho[:, 1:] - rho[:, :1]) / np.maximum(rho[:, :1], 1e-30)]
        moves += [np.abs(c[:, 1:] - c[:, :1]) for c in (s.s_r, s.s_phi, s.s_z)]
        worst = max(float(np.max(move)) for move in moves)
        lines.append(CheckLine(f"z-invariance of rho and s, {config.value}", worst, 1e-12))
    return lines


def _jz_residual(spec: BeamSpec, up: list, dn: list, h: float) -> float:
    # five-point stencil in phi around a point: up and dn at phi + h (-2 .. 2)
    dup = (up[0] - 8 * up[1] + 8 * up[3] - up[4]) / (12 * h)
    ddn = (dn[0] - 8 * dn[1] + 8 * dn[3] - dn[4]) / (12 * h)
    jf = float(spec.j)
    res_up = -1j * dup + 0.5 * up[2] - jf * up[2]
    res_dn = -1j * ddn - 0.5 * dn[2] - jf * dn[2]
    norm = math.sqrt(abs(up[2]) ** 2 + abs(dn[2]) ** 2)
    return math.sqrt(abs(res_up) ** 2 + abs(res_dn) ** 2) / norm


def check_jz_eigenstate() -> list[CheckLine]:
    lines = []
    h = 0.01
    # rows are the two points (r, phi, z), columns their stencil azimuths
    r, phi, z = np.array([(0.7, 0.3, 0.1), (2.1, 4.4, -0.6)]).T[:, :, None]
    for name, spec in _four_families().items():
        psi = evaluate(spec, r, phi + h * np.arange(-2, 3), z)
        worst = max(_jz_residual(spec, up, dn, h)
                    for up, dn in zip(psi.up.tolist(), psi.down.tolist()))
        lines.append(CheckLine(f"(-i d_phi + sigma_z/2) residual, {name}", worst, 1e-6))
    return lines


def check_bessel_anchor() -> list[CheckLine]:
    zero = bessel_j_zero(0, 1)
    lines = [
        CheckLine("first J_0 zero vs 2.4048 (5 digits)", abs(zero - _J0_FIRST_ZERO_5DIGIT), 5e-5),
        CheckLine("first J_0 zero vs 2.404825557695773", abs(zero - _J0_FIRST_ZERO), 1e-9),
    ]
    angles = np.array([0.0, 0.6, 1.2, -0.6, -1.2])
    grid = (np.array([0.5, 3.0, 15.0, 45.0, 200.0, 1500.0])[:, None] * np.exp(1j * angles)).ravel()

    def worst_rel(got, want):
        return float(np.max(np.abs(got - want) / np.abs(want)))

    centres = (1, 2, 3, 4, 6)  # central orders 1/2 .. 3
    scaled = {twice: bessel_i_scaled(HalfInt(twice), grid)
              for twice in {c + d for c in centres for d in (-2, 0, 2)}}
    worst = 0.0
    for twice_nu in centres:
        a, b, c = (scaled[twice_nu + d] for d in (-2, 0, 2))
        res = np.abs(a - c - (twice_nu / grid) * b) / np.maximum(np.abs(a), np.abs(c))
        worst = max(worst, float(np.max(res)))
    lines.append(CheckLine("I recurrence residual over complex domain", worst, 1e-9))
    # past |z| = 2 half-integer orders <= 5/2 come from that same
    # recurrence, so anchor them on the hyperbolic closed forms
    closed = {3: lambda z, c, s: c - s / z,
              5: lambda z, c, s: (1.0 + 3.0 / (z * z)) * s - 3.0 * c / z}
    worst = 0.0
    for twice_nu, form in closed.items():
        z = grid[np.abs(grid) >= twice_nu]
        # form(z, e^{-z} cosh z, e^{-z} sinh z) = sqrt(pi z / 2) e^{-z} I_nu(z)
        e = np.exp(-2.0 * z)
        want = form(z, 0.5 * (1.0 + e), 0.5 * (1.0 - e)) / np.sqrt(0.5 * math.pi * z)
        worst = max(worst, worst_rel(bessel_i_scaled(HalfInt(twice_nu), z), want))
    lines.append(CheckLine("I_{3/2}, I_{5/2} vs hyperbolic closed forms (rel)", worst, 1e-12))
    # just past |z| = 2, where the series hands over to a recurrence: the
    # upward one up to nu = 5/2, Miller's above
    worst = 0.0
    for twice_nu in range(3, 14, 2):
        nu = twice_nu / 2.0
        z = 1.05 * 2.0 * np.exp(1j * angles)
        worst = max(worst, worst_rel(_series(nu, z, 1)[0] * np.exp(-z),
                                     bessel_i_scaled(HalfInt(twice_nu), z)))
    lines.append(CheckLine("I series vs recurrence at 1.05x the switch, nu = 3/2..13/2 (rel)",
                           worst, 1e-12))
    return lines


def check_transversality() -> list[CheckLine]:
    # one amplitude evaluation per beam, reduced through the spinor and
    # through closed_form_texture's cylindrical-frame reduction; no radius is 0
    lines = []
    worst = 0.0
    # rows are the radii, columns the azimuths
    r = np.array([0.4, 1.3, 2.9, 5.2])[:, None]
    phi = np.array([0.0, 1.1, 3.9])
    for sigma in (1, -1):
        spec = _beam_nd(Configuration.AZIMUTHAL, 1, sigma)
        a, b = radial_amplitudes(spec, r, 0.7)
        psi = _spinor(spec, a, b, phi, 0.7)
        worst = max(worst, float(np.max(np.abs(_texture(a, b)[0]))),
                    float(np.max(np.abs(spin_polarization(psi, phi).s_r))))
    lines.append(CheckLine("azimuthal family: |s_r|", worst, 1e-12))
    worst = 0.0
    r = np.array([0.5, 1.5, 3.0])
    for method in (FiniteMethod.PARAXIAL_CLOSED_FORM, FiniteMethod.QUADRATURE):
        spec = _beam_finite_radial(1, 1, method)
        a, b = radial_amplitudes(spec, r, 0.0)
        psi = _spinor(spec, a, b, 0.8, 0.0)
        worst = max(worst, float(np.max(np.abs(spin_polarization(psi, 0.8).s_phi))),
                    float(np.max(np.abs(_texture(a, b)[1]))))
    lines.append(CheckLine("finite radial at waist: |s_phi|", worst, 1e-10))
    return lines


def check_large_r_asymptote() -> list[CheckLine]:
    worst = 0.0
    for twice_j in (1, 3, 5):
        spec = _beam_finite_radial(twice_j, 1)
        rep = charge_boundary(spec, z=0.0)
        jf = twice_j / 2.0
        target = -jf / (jf * jf + 0.25)
        worst = max(worst, abs(rep.s_z_infinity - target))
    return [CheckLine("extrapolated s_z(inf) vs -j/(j^2+1/4)", worst, 2e-3)]


CHECKS = [
    ("1 topological charge", check_topological_charge),
    ("2 unit polarization", check_unit_polarization),
    ("3 momentum reconstruction", check_momentum_reconstruction),
    ("4 paraxial profile oracle", check_paraxial_oracle),
    ("5 polarization cross-check", check_polarization_cross),
    ("6 axis law", check_axis_law),
    ("7 spin expectation", check_spin_expectation),
    ("8 non-diffraction", check_nondiffraction),
    ("9 J_z eigenstate", check_jz_eigenstate),
    ("10 Bessel anchor", check_bessel_anchor),
    ("11 transversality", check_transversality),
    ("12 large-r asymptote", check_large_r_asymptote),
]


def run_suite() -> list[CheckOutcome]:
    """Run every check."""
    outcomes = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        lines = fn()
        outcomes.append(CheckOutcome(name, lines, time.perf_counter() - start))
    return outcomes


def format_report(outcomes: list[CheckOutcome]) -> str:
    rows = []
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        rows.append(f"[{status}] {oc.name}  ({oc.elapsed:.2f}s)")
        for line in oc.lines:
            mark = "ok " if line.passed else "BAD"
            rows.append(f"    {mark} {line.label}: measured {line.measured:.3e}"
                        f" <= tolerance {line.tolerance:.3e}")
    n_pass = sum(oc.passed for oc in outcomes)
    rows.append(f"{n_pass}/{len(outcomes)} checks passed")
    return "\n".join(rows)
