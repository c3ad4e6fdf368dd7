"""Bloch vectors, closed-form polarization and the integrated spin."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbeam import (
    BeamSpec,
    Configuration,
    CylPoint,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    HalfInt,
    NonDiffractive,
    Spinor,
    UndefinedPolarizationError,
    bessel_j,
    closed_form_polarization,
    evaluate,
    integrate,
    probability_density,
    spin_expectation,
    spin_polarization,
)
from spinbeam.beams import _COMPONENTS, radial_amplitudes
from spinbeam.polarization import PolarizationVector, closed_form_texture


def crossing_radius() -> float:
    """First radius where the squared orders 0 and 1 coincide (j = 1/2 texture)."""
    f = lambda x: bessel_j(0, x) ** 2 - bessel_j(1, x) ** 2
    lo, hi = 1.0, 2.0
    flo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestProbabilityDensity:
    def test_reference_values(self):
        assert probability_density(Spinor(1.0, 0.0)) == 1.0
        inv = 1.0 / math.sqrt(2.0)
        assert abs(probability_density(Spinor(inv, -1j * inv)) - 1.0) < 1e-15
        assert probability_density(Spinor(0.0, 0.0)) == 0.0


class TestSpinPolarization:
    def test_spin_up(self):
        s = spin_polarization(Spinor(1.0, 0.0), 0.7)
        assert s.s_z == 1.0 and s.s_x == 0.0 and s.s_y == 0.0

    def test_sigma_x_eigenstate(self):
        inv = 1.0 / math.sqrt(2.0)
        s = spin_polarization(Spinor(inv, inv), 0.0)
        assert abs(s.s_x - 1.0) < 1e-15 and abs(s.s_y) < 1e-15 and abs(s.s_z) < 1e-15

    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_radial_eigenspinor_points_along_minus_e_phi(self, phi):
        from spinbeam import eigenspinor_radial

        s = spin_polarization(eigenspinor_radial(1, phi), phi)
        assert abs(s.s_x - math.sin(phi)) < 1e-14
        assert abs(s.s_y + math.cos(phi)) < 1e-14
        assert abs(s.s_r) < 1e-14
        assert abs(s.s_phi + 1.0) < 1e-14

    def test_vanishing_density_raises(self):
        with pytest.raises(UndefinedPolarizationError):
            spin_polarization(Spinor(0.0, 0.0), 0.0)

    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_unit_norm_for_any_spinor(self, a, b, phi):
        psi = Spinor(complex(a, 0.3), complex(0.2, b))
        s = spin_polarization(psi, phi)
        assert abs(s.norm - 1.0) < 1e-12

    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_component_roundtrip(self, s_r, s_phi, phi):
        # rotating the Cartesian pair back by phi recovers the cylindrical one
        v = PolarizationVector.from_cylindrical(s_r, s_phi, 0.1, phi)
        c, s = math.cos(phi), math.sin(phi)
        assert abs(v.s_x * c + v.s_y * s - s_r) < 1e-14
        assert abs(-v.s_x * s + v.s_y * c - s_phi) < 1e-14


def _norm(texture):
    s_r, s_phi, s_z = texture
    return np.sqrt(s_r ** 2 + s_phi ** 2 + s_z ** 2)


class TestClosedFormNonDiffractive:
    def test_axis_is_longitudinal(self, nd_radial, nd_azimuthal):
        for spec in (nd_radial, nd_azimuthal):
            assert closed_form_texture(spec, 0.0, 0.5) == (0.0, 0.0, 1.0)

    def test_negative_j_axis(self):
        spec = BeamSpec(Configuration.RADIAL, HalfInt(-1), -1, 2.0, NonDiffractive(1.0))
        assert closed_form_texture(spec, 0.0, 0.0)[2] == -1.0

    def test_purely_transverse_at_crossing(self, nd_radial):
        r = crossing_radius() / nd_radial.kind.kappa
        s_r, _, s_z = closed_form_texture(nd_radial, r, 0.0)
        assert abs(s_z) < 1e-10
        assert abs(abs(s_r) - 1.0) < 1e-10

    def test_purely_longitudinal_at_component_zeros(self, nd_radial):
        kappa = nd_radial.kind.kappa
        from spinbeam import bessel_j_zero

        r_upper = bessel_j_zero(0, 1) / kappa   # upper component dies: s_z -> -1
        s_r, _, s_z = closed_form_texture(nd_radial, r_upper, 0.0)
        assert abs(s_r) < 1e-12 and abs(s_z + 1.0) < 1e-12
        r_lower = bessel_j_zero(1, 1) / kappa   # lower component dies: s_z -> +1
        s_r, _, s_z = closed_form_texture(nd_radial, r_lower, 0.0)
        assert abs(s_r) < 1e-12 and abs(s_z - 1.0) < 1e-12

    def test_alternation_along_radius(self, nd_radial):
        # longitudinal at the center, transverse at the crossing, flipped
        # longitudinal at the first upper-component zero
        kappa = nd_radial.kind.kappa
        sz = closed_form_texture(nd_radial, np.linspace(0.0, 2.4048 / kappa, 120), 0.0)[2]
        assert sz[0] == 1.0
        assert sz.min() < -0.999
        assert np.abs(sz).min() < 0.05

    def test_azimuthal_transverse_is_azimuthal(self, nd_azimuthal):
        texture = closed_form_texture(nd_azimuthal, np.array([0.3, 1.1, 2.7]), 0.4)
        assert np.all(texture[0] == 0.0)
        assert np.max(np.abs(_norm(texture) - 1.0)) < 1e-12

    def test_azimuthal_unit_norm_regression(self):
        # sharp regression on the cone-weight convention: the squared
        # weight fractions must sum to one for |s| = 1 to hold
        for kappa in (0.3, 1.0, 1.9):
            spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(3), 1, 2.0, NonDiffractive(kappa))
            texture = closed_form_texture(spec, np.array([0.7, 2.2, 5.0]), 0.0)
            assert np.max(np.abs(_norm(texture) - 1.0)) < 1e-10

    def test_closed_form_polarization_is_the_texture_at_a_point(self, nd_azimuthal, finite_radial):
        # the one-point form equals the array entry, phi reduced to [0, 2 pi)
        for spec in (nd_azimuthal, finite_radial):
            for r, phi, z in [(0.0, 0.2, 0.5), (1.3, 7.0, -0.4), (2.2, -1.0, 3.0)]:
                got = closed_form_polarization(spec, CylPoint(r, phi, z))
                want = PolarizationVector.from_cylindrical(*closed_form_texture(spec, r, z),
                                                           phi % (2.0 * math.pi))
                assert got == want


# every (configuration, sigma) entry of the component table, for each kind
# of beam that the configuration admits
_KINDS = {
    "nondiffractive": (2.0, NonDiffractive(1.2)),
    "quadrature": (100.0, Finite(GaussianSpectrum(1.0), FiniteMethod.QUADRATURE)),
    "paraxial": (100.0, Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM)),
}
_TABLE_CASES = [
    pytest.param(config, sigma, twice_j, kind,
                 id=f"{config.value}-sigma{sigma:+d}-j{twice_j}/2-{kind}")
    for config in Configuration
    for sigma in (1, -1)
    for twice_j in (1, -1, 3)
    for kind in _KINDS
    if not (kind == "paraxial" and config is Configuration.AZIMUTHAL)
]


@pytest.mark.parametrize("config,sigma,twice_j,kind", _TABLE_CASES)
def test_closed_form_matches_spinor_every_table_entry(config, sigma, twice_j, kind, rng):
    k, beam_kind = _KINDS[kind]
    spec = BeamSpec(config, HalfInt(twice_j), sigma, k, beam_kind)
    nd = kind == "nondiffractive"
    # four points, each drawn in the order r, z, phi
    r, z, phi = np.array([(rng.uniform(0.05, 6.0) if nd else rng.uniform(0.05, 3.3),
                           rng.uniform(-5.0, 5.0) if nd else rng.uniform(-30.0, 30.0),
                           rng.uniform(0.0, 2.0 * math.pi)) for _ in range(4)]).T
    s1 = spin_polarization(evaluate(spec, r, phi, z), phi)
    s2 = closed_form_texture(spec, r, z)
    for a, b in zip((s1.s_r, s1.s_phi, s1.s_z), s2):
        assert np.max(np.abs(a - b)) < 1e-10


class TestClosedFormFinite:
    def test_matches_spinor_route(self, finite_radial, finite_azimuthal, rng):
        z0 = 100.0
        for spec in (finite_radial, finite_azimuthal):
            r, phi, z = rng.uniform([0.05, 0.0, -0.3 * z0], [3.3, 2.0 * math.pi, 0.3 * z0],
                                    size=(8, 3)).T
            s1 = spin_polarization(evaluate(spec, r, phi, z), phi)
            s2 = closed_form_texture(spec, r, z)
            for a, b in zip((s1.s_r, s1.s_phi, s1.s_z), s2):
                assert np.max(np.abs(a - b)) < 1e-10

    def test_waist_polarization_strictly_radial(self, spectrum):
        for method in FiniteMethod:
            spec = BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 100.0,
                            Finite(spectrum, method))
            s_r, s_phi, _ = closed_form_texture(spec, np.array([0.4, 1.0, 2.9]), 0.0)
            assert np.max(np.abs(s_phi)) < 1e-10
            assert np.all(s_r > 0.0)

    def test_off_waist_gains_azimuthal_component(self, finite_radial):
        assert abs(closed_form_texture(finite_radial, 1.0, 40.0)[1]) > 1e-3

    def test_axis_law_all_j(self, spectrum):
        for twice_j, want in [(1, 1.0), (3, 1.0), (5, 1.0), (-1, -1.0), (-3, -1.0)]:
            spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), 1, 100.0,
                            Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
            assert closed_form_texture(spec, 0.0, 0.0)[2] == want

    def test_spinor_route_undefined_on_axis_for_high_j(self, spectrum):
        spec = BeamSpec(Configuration.RADIAL, HalfInt(3), 1, 100.0,
                        Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
        psi = evaluate(spec, 0.0, 0.0, 0.0)
        with pytest.raises(UndefinedPolarizationError):
            spin_polarization(psi, 0.0)
        # the closed form carries the limit instead
        assert closed_form_texture(spec, 0.0, 0.0)[2] == 1.0

    def test_cylindrical_symmetry(self, finite_radial):
        # the spinor route's cylindrical components are the same at every
        # azimuth of a ring, and equal to the closed form there
        phi = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        s = spin_polarization(evaluate(finite_radial, 1.3, phi, 20.0), phi)
        texture = closed_form_texture(finite_radial, 1.3, 20.0)
        for got, want in zip((s.s_r, s.s_phi, s.s_z), texture):
            assert np.max(np.abs(got - want)) < 1e-10


    def test_high_j_texture_continuous_across_expansion_switch(self, spectrum):
        # j = 81/2: the upper profile's bracket takes I_20 and I_21, whose
        # large-argument expansion holds only past |x| = 21^2/4, so s_z at the
        # waist, where x = r^2 / (4 w0^2), follows the mpmath brackets across
        # |x| = 60 and does not jump there
        spec = BeamSpec(Configuration.RADIAL, HalfInt(81), 1, 100.0,
                        Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
        xs = np.array([58.0, 59.0, 59.9, 60.1, 61.0, 62.0])
        s_z = closed_form_texture(spec, 2.0 * np.sqrt(xs), 0.0)[2]

        def bracket(n, x):
            return mp.exp(-x) * (mp.besseli(mp.mpf(n - 1) / 2, x) - mp.besseli(mp.mpf(n + 1) / 2, x))

        with mp.workdps(30):
            for x, got in zip(xs.tolist(), s_z.tolist()):
                a, b = bracket(40, x), bracket(41, x)
                assert abs(got - float((a * a - b * b) / (a * a + b * b))) <= 1e-12
        assert np.max(np.abs(np.diff(s_z))) < 0.05


class TestSpinExpectation:
    def test_vanishes_for_radial_families(self, spectrum):
        for twice_j, sigma in [(1, 1), (-1, -1)]:
            spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), sigma, 100.0,
                            Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
            vec = spin_expectation(spec, z=0.0)
            assert vec[0] == 0.0 and vec[1] == 0.0
            assert abs(vec[2]) < 1e-8

    def test_transverse_components_identically_zero(self, finite_radial):
        vec = spin_expectation(finite_radial, z=28.0)
        assert vec[0] == 0.0 and vec[1] == 0.0

    def test_vanishes_through_quadrature_method(self, spectrum):
        spec = BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 100.0,
                        Finite(spectrum, FiniteMethod.QUADRATURE))
        vec = spin_expectation(spec, z=0.0, abs_tol=1e-8)
        assert abs(vec[2]) < 1e-8

    def test_azimuthal_longitudinal_matches_momentum_space(self, finite_azimuthal):
        # the momentum-space value against the position-space integral of
        # |a|^2 - |b|^2: the head to 12 w0, the tail in u = 12 w0 / r out to
        # 200 w0, and the remainder beyond, where the integrand falls off as
        # c / r^3; measured gap 4.7e-10
        spec = finite_azimuthal
        w0 = spec.kind.spectrum.w0
        r_head, r_far = 12.0 * w0, 200.0 * w0

        def difference(rr):
            return np.array([abs(a) ** 2 - abs(b) ** 2
                             for a, b in (radial_amplitudes(spec, float(r), 0.0) for r in rr)])

        head = integrate(lambda rr: difference(rr) * rr, 0.0, r_head,
                         abs_tol=2.5e-10, rel_tol=1e-10).value.real
        tail = integrate(lambda uu: difference(r_head / uu) * r_head ** 2 / uu ** 3,
                         r_head / r_far, 1.0, abs_tol=2.5e-10, rel_tol=1e-8).value.real
        remainder = 0.5 * difference([r_far])[0] * r_far ** 2
        oracle = 0.5 * (head + tail + remainder)
        measured = spin_expectation(spec, z=0.0)
        assert measured[0] == 0.0 and measured[1] == 0.0
        assert abs(measured[2] - oracle) < 1e-4
        assert measured[2] > 1e-3  # genuinely nonzero for this family

    def test_rejects_nondiffractive(self, nd_radial):
        with pytest.raises(ValueError):
            spin_expectation(nd_radial, 0.0)


# every entry of the component table, each with three values of j
_SPIN_CASES = [
    pytest.param(config, sigma, twice_j, id=f"{config.value}-sigma{sigma:+d}-j{twice_j}/2")
    for config, sigma in _COMPONENTS
    for twice_j in (1, -3, 5)
]
_WAISTS = [(40.0, 0.5), (100.0, 1.0), (80.0, 2.0)]  # (k, w0): k w0 = 20, 100, 160


def _finite_specs(config, sigma, twice_j):
    return [BeamSpec(config, HalfInt(twice_j), sigma, k, Finite(GaussianSpectrum(w0)))
            for k, w0 in _WAISTS]


@pytest.mark.parametrize("config,sigma,twice_j", _SPIN_CASES)
class TestSpinExpectationFromSpectrum:
    def test_value(self, config, sigma, twice_j):
        for spec in _finite_specs(config, sigma, twice_j):
            vec = spin_expectation(spec)
            assert vec[0] == 0.0 and vec[1] == 0.0
            if config is Configuration.RADIAL:
                assert vec[2] == 0.0
            else:
                want = sigma * math.sqrt(math.pi) / (2.0 * spec.k * spec.kind.spectrum.w0)
                assert abs(vec[2] - want) < 1e-12

    def test_independent_of_z(self, config, sigma, twice_j):
        for spec in _finite_specs(config, sigma, twice_j):
            at_waist = spin_expectation(spec).tolist()
            z0 = spec.kind.spectrum.rayleigh_range(spec.k)
            for z in (z0, -z0, 10.0 * z0):
                assert spin_expectation(spec, z=z).tolist() == at_waist

    def test_rejects_non_finite_z(self, config, sigma, twice_j):
        for spec in _finite_specs(config, sigma, twice_j):
            for z in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    spin_expectation(spec, z=z)

    def test_one_integrate_call(self, config, sigma, twice_j, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr("spinbeam.polarization.integrate", counting)
        for spec in _finite_specs(config, sigma, twice_j):
            calls.clear()
            spin_expectation(spec)
            assert len(calls) == 1
