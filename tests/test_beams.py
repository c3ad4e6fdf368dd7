"""Beam families: eigenspinors, closed forms, and their quadrature oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbeam import beams
from spinbeam.beams import _COMPONENTS, _scaled_bessel_bracket, radial_amplitudes

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
    bessel_i_scaled,
    bessel_j,
    charge_integral,
    eigenspinor_azimuthal,
    eigenspinor_radial,
    evaluate_finite,
    evaluate_nondiffractive,
    evaluate,
    integrate,
    reconstruct_from_momentum,
    spectral_profile,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_vec(psi: Spinor) -> np.ndarray:
    return np.array([psi.up, psi.down], dtype=complex)


def weighted_profile_reference(n, r, z, spectrum, k, weight_sign):
    """Spectral integral with the cone weight sqrt(1 + weight_sign kappa/k).

    Integrated here rather than through the beams module, over [0, 10/w0],
    beyond which the spectrum is numerically dead.
    """
    def integrand(kap):
        phase = np.exp(1j * np.sqrt(k * k - np.square(kap)) * z)
        weight = np.sqrt(1.0 + weight_sign * kap / k)
        return spectrum.amplitude(kap) * bessel_j(n, kap * r) * phase * kap * weight

    return integrate(integrand, 0.0, 10.0 / spectrum.w0, abs_tol=1e-15, rel_tol=1e-13).value


def pauli_dot(direction: np.ndarray) -> np.ndarray:
    return direction[0] * SIGMA_X + direction[1] * SIGMA_Y + direction[2] * SIGMA_Z


class TestEigenspinors:
    def test_radial_reference_values(self):
        s = eigenspinor_radial(1, 0.0)
        inv = 1.0 / math.sqrt(2.0)
        assert abs(s.up - inv) < 1e-15 and abs(s.down + 1j * inv) < 1e-15
        s = eigenspinor_radial(-1, 0.0)
        assert abs(s.up + 1j * inv) < 1e-15 and abs(s.down - inv) < 1e-15

    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_radial_orthogonal_unit(self, phi):
        a = eigenspinor_radial(1, phi)
        b = eigenspinor_radial(-1, phi)
        overlap = a.up.conjugate() * b.up + a.down.conjugate() * b.down
        assert abs(overlap) < 1e-15
        assert abs(a.norm_sq - 1.0) < 1e-14 and abs(b.norm_sq - 1.0) < 1e-14

    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi),
           st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_radial_is_sigma_v_eigenvector(self, phi, sigma):
        v = np.array([math.sin(phi), -math.cos(phi), 0.0])  # -e_phi
        psi = as_vec(eigenspinor_radial(sigma, phi))
        residual = pauli_dot(v) @ psi - sigma * psi
        assert np.max(np.abs(residual)) <= 1e-14

    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi),
           st.floats(min_value=0.0, max_value=1.0),
           st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_azimuthal_is_sigma_u_eigenvector(self, phi, w_rho, sigma):
        w_z = math.sqrt(max(0.0, 1.0 - w_rho * w_rho))
        u = np.array([-w_z * math.cos(phi), -w_z * math.sin(phi), w_rho])
        psi = as_vec(eigenspinor_azimuthal(sigma, phi, w_rho))
        residual = pauli_dot(u) @ psi - sigma * psi
        assert np.max(np.abs(residual)) <= 1e-14
        assert abs(abs(psi[0]) ** 2 + abs(psi[1]) ** 2 - 1.0) <= 1e-14

    def test_azimuthal_limits(self):
        s = eigenspinor_azimuthal(1, 0.0, 1.0)
        assert s.up == 1.0 and s.down == 0.0
        # at zero transverse fraction the weights equalize
        inv = 1.0 / math.sqrt(2.0)
        for phi in (0.0, 0.3, 4.0):
            s = eigenspinor_azimuthal(1, phi, 0.0)
            assert abs(s.up - inv) < 1e-15
            assert abs(s.down + cmath.exp(1j * phi) * inv) < 1e-15
            t = eigenspinor_azimuthal(-1, phi, 0.0)
            assert abs(t.up - cmath.exp(-1j * phi) * inv) < 1e-15
            assert abs(t.down - inv) < 1e-15

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            eigenspinor_radial(0, 0.0)
        with pytest.raises(ValueError):
            eigenspinor_azimuthal(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            eigenspinor_azimuthal(1, 0.0, 1.5)


class TestSpecValidation:
    def test_j_must_be_half_odd(self, spectrum):
        with pytest.raises(ValueError):
            BeamSpec(Configuration.RADIAL, HalfInt(2), 1, 2.0, NonDiffractive(1.0))

    def test_sigma_values(self):
        with pytest.raises(ValueError):
            BeamSpec(Configuration.RADIAL, HalfInt(1), 0, 2.0, NonDiffractive(1.0))

    def test_kappa_window(self):
        with pytest.raises(ValueError):
            BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 2.0, NonDiffractive(2.5))
        with pytest.raises(ValueError):
            BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 2.0, NonDiffractive(0.0))

    def test_paraxial_needs_radial_and_wide_waist(self, spectrum):
        with pytest.raises(ValueError):
            BeamSpec(Configuration.AZIMUTHAL, HalfInt(1), 1, 100.0,
                     Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
        with pytest.raises(ValueError):
            BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 5.0,
                     Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))

    def test_quantum_numbers(self, nd_radial):
        assert nd_radial.m == 0
        assert nd_radial.order_minus == 0 and nd_radial.order_plus == 1
        assert abs(nd_radial.kz - math.sqrt(3.0)) < 1e-15

    def test_cylpoint_normalization(self):
        p = CylPoint(1.0, 2.0 * math.pi + 0.25, -1.0)
        assert abs(p.phi - 0.25) < 1e-12
        p = CylPoint(1.0, -0.25, 0.0)
        assert abs(p.phi - (2.0 * math.pi - 0.25)) < 1e-12
        with pytest.raises(ValueError):
            CylPoint(-0.1, 0.0, 0.0)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            GaussianSpectrum(0.0)

    def test_spectrum_norm_truncation(self):
        # truncating the normalization integral to [0, k] loses < 1e-12
        # of the norm once k * w0 >= 10
        w0, k = 1.0, 10.0
        spec = GaussianSpectrum(w0)
        res = integrate(lambda kap: np.square(np.abs(spec.amplitude(kap))) * kap,
                        0.0, k, abs_tol=1e-14, rel_tol=1e-13, initial_panels=8)
        assert abs(res.value - 1.0) < 1e-12


class TestNonDiffractive:
    def test_axis_values_j_half(self, nd_radial):
        kappa = nd_radial.kind.kappa
        pt = CylPoint(0.0, 1.1, 0.7)
        psi = evaluate_nondiffractive(nd_radial, pt)
        want_up = math.sqrt(kappa / (4.0 * math.pi)) * cmath.exp(1j * nd_radial.kz * 0.7)
        assert abs(psi.up - want_up) < 1e-14
        assert psi.down == 0.0

    def test_upper_component_dies_at_first_zero(self, nd_radial):
        r = 2.4048 / nd_radial.kind.kappa
        psi = evaluate_nondiffractive(nd_radial, CylPoint(r, 0.0, 0.0))
        amp = math.sqrt(nd_radial.kind.kappa / (4.0 * math.pi))
        assert abs(psi.up) < 5e-5 * amp
        assert abs(psi.down) > 0.1 * amp

    def test_probability_density_z_invariant(self, nd_radial, nd_azimuthal):
        for spec in (nd_radial, nd_azimuthal):
            for r in (0.4, 1.9, 3.3):
                rho0 = evaluate_nondiffractive(spec, CylPoint(r, 0.5, 0.0)).norm_sq
                for z in (1.0, 17.3, 240.0):
                    rho = evaluate_nondiffractive(spec, CylPoint(r, 0.5, z)).norm_sq
                    assert abs(rho - rho0) <= 1e-13 * rho0

    def test_azimuthal_weights(self, nd_azimuthal):
        kappa, k = nd_azimuthal.kind.kappa, nd_azimuthal.k
        pt = CylPoint(0.0, 0.0, 0.0)
        psi = evaluate_nondiffractive(nd_azimuthal, pt)
        want = math.sqrt(kappa / (4.0 * math.pi)) * math.sqrt(1.0 + kappa / k)
        assert abs(psi.up - want) < 1e-14
        assert psi.down == 0.0

    def test_rejects_finite_spec(self, finite_radial):
        with pytest.raises(ValueError):
            evaluate_nondiffractive(finite_radial, CylPoint(1.0, 0.0, 0.0))


class TestReconstructionOracle:
    def test_matches_closed_form_both_configurations(self, rng):
        for config in (Configuration.RADIAL, Configuration.AZIMUTHAL):
            for twice_j, sigma in [(1, 1), (-1, -1), (3, 1), (-3, -1), (1, -1)]:
                spec = BeamSpec(config, HalfInt(twice_j), sigma, 2.0, NonDiffractive(1.2))
                for _ in range(4):
                    pt = CylPoint(rng.uniform(0.0, 7.0), rng.uniform(0.0, 2.0 * math.pi),
                                  rng.uniform(-4.0, 4.0))
                    a = evaluate_nondiffractive(spec, pt)
                    b = reconstruct_from_momentum(spec, pt)
                    assert abs(a.up - b.up) < 1e-8
                    assert abs(a.down - b.down) < 1e-8

    def test_on_axis(self, nd_radial):
        a = evaluate_nondiffractive(nd_radial, CylPoint(0.0, 0.0, 0.0))
        b = reconstruct_from_momentum(nd_radial, CylPoint(0.0, 0.0, 0.0))
        assert abs(a.up - b.up) < 1e-12 and abs(b.down) < 1e-12

    def test_rejects_finite_spec(self, finite_radial):
        with pytest.raises(ValueError):
            reconstruct_from_momentum(finite_radial, CylPoint(1.0, 0.0, 0.0))


class TestSpectralProfile:
    def test_order_zero_at_origin_against_gaussian_integral(self, spectrum):
        # the spectral integral at r = z = 0 has the elementary value
        # sqrt(2) (1 - exp(-(k w0)^2 / 2)) / w0
        k = 100.0
        want = math.sqrt(2.0) * (1.0 - math.exp(-0.5 * (k * spectrum.w0) ** 2)) / spectrum.w0
        got = spectral_profile(0, 0.0, 0.0, spectrum, k, FiniteMethod.QUADRATURE)
        assert abs(got - want) < 1e-11
        closed = spectral_profile(0, 0.0, 0.0, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
        assert abs(closed - got) <= 1e-10 * abs(got)

    def test_vanishes_at_origin_for_positive_order(self, spectrum):
        for method in FiniteMethod:
            val = spectral_profile(1, 0.0, 0.3, spectrum, 100.0, method)
            assert abs(val) < 1e-12

    def test_closed_form_rejects_negative_order(self, spectrum):
        with pytest.raises(ValueError):
            spectral_profile(-1, 1.0, 0.0, spectrum, 100.0, FiniteMethod.PARAXIAL_CLOSED_FORM)

    @pytest.mark.parametrize("radius", [1e-12, 1e-3, 0.1, 0.49])
    def test_paraxial_bracket_small_argument(self, radius):
        # the paraxial argument r^2 / 4w^2 lies in the right half plane
        for n in range(1, 12):
            for theta in (0.0, 0.7, -0.7, 1.4, -1.4):
                x = cmath.rect(radius, theta)
                with mp.workdps(40):
                    xm = mp.mpc(x)
                    ref = complex(mp.exp(-xm) * (mp.besseli(mp.mpf(n - 1) / 2, xm)
                                                 - mp.besseli(mp.mpf(n + 1) / 2, xm)))
                assert abs(_scaled_bessel_bracket(n, x) - ref) <= 1e-13 * abs(ref)

    def test_quadrature_reflects_negative_order(self, spectrum):
        plus = spectral_profile(1, 1.3, 0.4, spectrum, 100.0, FiniteMethod.QUADRATURE)
        minus = spectral_profile(-1, 1.3, 0.4, spectrum, 100.0, FiniteMethod.QUADRATURE)
        assert minus == -plus
        plus2 = spectral_profile(2, 1.3, 0.4, spectrum, 100.0, FiniteMethod.QUADRATURE)
        minus2 = spectral_profile(-2, 1.3, 0.4, spectrum, 100.0, FiniteMethod.QUADRATURE)
        assert minus2 == plus2

    def test_closed_form_vs_quadrature_at_waist(self, spectrum):
        k = 100.0
        cf = spectral_profile(1, 1.0, 0.0, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
        q_para = spectral_profile(1, 1.0, 0.0, spectrum, k, FiniteMethod.QUADRATURE,
                                  paraxial_phase=True)
        q_exact = spectral_profile(1, 1.0, 0.0, spectrum, k, FiniteMethod.QUADRATURE)
        assert abs(cf - q_para) <= 1e-8 * abs(cf)
        assert abs(cf - q_exact) <= 1e-4 * abs(cf)

    def test_closed_form_vs_quadrature_off_waist(self, spectrum):
        k = 100.0
        z0 = spectrum.rayleigh_range(k)
        for n in (0, 1, 2):
            for r, z in [(0.5, z0 / 4.0), (3.0, z0)]:
                cf = spectral_profile(n, r, z, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
                qd = spectral_profile(n, r, z, spectrum, k, FiniteMethod.QUADRATURE,
                                      paraxial_phase=True)
                assert abs(cf - qd) <= 1e-6 * abs(cf)

    def test_real_at_waist(self, spectrum):
        for method in FiniteMethod:
            for n in (0, 1, 2):
                val = spectral_profile(n, 1.7, 0.0, spectrum, 100.0, method)
                assert abs(val.imag) <= 1e-13 * max(abs(val), 1e-30)

    def test_exact_phase_differs_downstream(self, spectrum):
        # at one Rayleigh range the exact and paraxial phases must not agree
        # to the closed form's accuracy, otherwise the toggle is dead code
        k, z = 100.0, 100.0
        exact = spectral_profile(1, 1.0, z, spectrum, k, FiniteMethod.QUADRATURE)
        para = spectral_profile(1, 1.0, z, spectrum, k, FiniteMethod.QUADRATURE,
                                paraxial_phase=True)
        assert abs(exact - para) > 1e-7 * abs(para)

    def test_weighted_profile_reduces_to_plain(self, spectrum):
        # the two cone weights bracket the unweighted profile at the waist
        k = 100.0
        plain = spectral_profile(0, 0.5, 0.0, spectrum, k, FiniteMethod.QUADRATURE)
        up = weighted_profile_reference(0, 0.5, 0.0, spectrum, k, +1)
        dn = weighted_profile_reference(0, 0.5, 0.0, spectrum, k, -1)
        assert dn.real < plain.real < up.real
        assert abs(up - plain) < 0.1 * abs(plain)
        # the azimuthal beams with j = 1/2 carry them as their order-0 components
        for sigma, want in [(1, up), (-1, -1j * dn)]:
            spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(1), sigma, k, Finite(spectrum))
            a, _ = radial_amplitudes(spec, 0.5, 0.0)
            assert abs(a - want) < 1e-14


class TestEvaluateFinite:
    def test_waist_center_j_half(self, finite_radial):
        psi = evaluate_finite(finite_radial, CylPoint(0.0, 0.9, 0.0))
        assert psi.down == 0.0
        assert psi.up.imag == 0.0 and psi.up.real > 0.0
        want = math.sqrt(2.0) / math.sqrt(4.0 * math.pi)
        assert abs(psi.up.real - want) < 1e-12

    def test_negative_j_reflection_mapping(self, spectrum, rng):
        # components of the j = -1/2 beam are the reflected profiles of the
        # j = +1/2 orders, with the sign carried by the odd order
        k = 100.0
        for sigma in (1, -1):
            spec = BeamSpec(Configuration.RADIAL, HalfInt(-1), sigma, k,
                            Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
            for _ in range(5):
                r = rng.uniform(0.1, 4.0)
                z = rng.uniform(-50.0, 50.0)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                psi = evaluate_finite(spec, CylPoint(r, phi, z))
                f0 = spectral_profile(0, r, z, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
                f1 = spectral_profile(1, r, z, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
                c = 1.0 / math.sqrt(4.0 * math.pi)
                want_up = sigma * (-f1) * cmath.exp(-1j * phi) * c
                want_dn = f0 * c
                assert abs(psi.up - want_up) <= 1e-13 * abs(f1)
                assert abs(psi.down - want_dn) <= 1e-13 * abs(f0)

    def test_negative_j_closed_form_matches_quadrature(self, spectrum, rng):
        k = 100.0
        cf_spec = BeamSpec(Configuration.RADIAL, HalfInt(-1), 1, k,
                           Finite(spectrum, FiniteMethod.PARAXIAL_CLOSED_FORM))
        qd_spec = BeamSpec(Configuration.RADIAL, HalfInt(-1), 1, k,
                           Finite(spectrum, FiniteMethod.QUADRATURE))
        for _ in range(10):
            pt = CylPoint(rng.uniform(0.05, 4.0), rng.uniform(0.0, 2.0 * math.pi), 0.0)
            a = evaluate_finite(cf_spec, pt)
            b = evaluate_finite(qd_spec, pt)
            scale = math.sqrt(b.norm_sq)
            assert abs(a.up - b.up) <= 1e-8 * scale
            assert abs(a.down - b.down) <= 1e-8 * scale

    def test_azimuthal_center(self, finite_azimuthal):
        psi = evaluate_finite(finite_azimuthal, CylPoint(0.0, 0.0, 0.2))
        assert psi.down == 0.0
        want = weighted_profile_reference(0, 0.0, 0.2, finite_azimuthal.kind.spectrum,
                                          finite_azimuthal.k, +1)
        assert abs(psi.up - want / math.sqrt(4.0 * math.pi)) < 1e-14

    def test_rejects_nondiffractive_spec(self, nd_radial):
        with pytest.raises(ValueError):
            evaluate_finite(nd_radial, CylPoint(1.0, 0.0, 0.0))


def _table_specs():
    # every (configuration, sigma) entry of the component table, as a
    # non-diffractive and as a finite quadrature beam
    for config, sigma in _COMPONENTS:
        yield BeamSpec(config, HalfInt(3), sigma, 2.0, NonDiffractive(1.2))
        yield BeamSpec(config, HalfInt(-1), sigma, 20.0,
                       Finite(GaussianSpectrum(1.0), FiniteMethod.QUADRATURE))


class TestEvaluate:
    def test_rejects_invalid_point(self, nd_radial, finite_azimuthal):
        for spec in (nd_radial, finite_azimuthal):
            with pytest.raises(ValueError):
                evaluate(spec, -0.1, 0.0, 0.0)
            with pytest.raises(ValueError):
                evaluate(spec, 1.0, 0.0, math.nan)
            with pytest.raises(ValueError):
                evaluate(spec, 1.0, [0.0, math.nan], 0.0)
            with pytest.raises(ValueError):
                evaluate(spec, -0.1, [], 0.0)

    def test_empty_ring(self, nd_radial, finite_azimuthal):
        for spec in (nd_radial, finite_azimuthal):
            psi = evaluate(spec, 1.0, [], 0.3)
            assert psi.up.shape == (0,) and psi.down.shape == (0,)

    def test_azimuth_is_periodic(self):
        # phi + 2 pi and phi - 2 pi are exact in binary for these phi, so
        # the reduction must return phi itself and the spinors must agree
        phis = np.array([0.0, 0.5, 1.5, 4.25])
        for spec in _table_specs():
            want = evaluate(spec, 0.9, phis, 0.4)
            for shifted in (phis + 2.0 * math.pi, phis - 2.0 * math.pi):
                got = evaluate(spec, 0.9, shifted, 0.4)
                assert np.array_equal(got.up, want.up) and np.array_equal(got.down, want.down)

    def test_single_azimuth_matches_point_evaluators(self, rng):
        # each point of one broadcast call agrees with the one-point evaluators
        for spec in _table_specs():
            point = (evaluate_nondiffractive if isinstance(spec.kind, NonDiffractive)
                     else evaluate_finite)
            pts = [CylPoint(rng.uniform(0.0, 3.0), rng.uniform(-7.0, 7.0), rng.uniform(-5.0, 5.0))
                   for _ in range(3)]
            psi = evaluate(spec, *(np.array([getattr(p, c) for p in pts]) for c in ("r", "phi", "z")))
            for i, pt in enumerate(pts):
                want = point(spec, pt)
                scale = math.sqrt(want.norm_sq)
                assert abs(psi.up[i] - want.up) <= 1e-14 * scale
                assert abs(psi.down[i] - want.down) <= 1e-14 * scale


def _amplitude_specs():
    # every (configuration, sigma) entry of the component table in each
    # kind it exists in: the paraxial closed form is radial only
    for config, sigma in _COMPONENTS:
        yield BeamSpec(config, HalfInt(3), sigma, 2.0, NonDiffractive(1.2))
        yield BeamSpec(config, HalfInt(-1), sigma, 20.0, Finite(GaussianSpectrum(1.0)))
        if config is Configuration.RADIAL:
            yield BeamSpec(config, HalfInt(5), sigma, 100.0,
                           Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))


class TestArrayAmplitudes:
    @given(st.sampled_from(list(_amplitude_specs())),
           st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=6),
           st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_array_equals_per_element(self, spec, radii, z):
        a, b = radial_amplitudes(spec, np.array(radii), z)
        assert a.shape == b.shape == (len(radii),)
        quadrature = isinstance(spec.kind, Finite) and spec.kind.method is FiniteMethod.QUADRATURE
        for i, r in enumerate(radii):
            a1, b1 = radial_amplitudes(spec, r, z)
            for got, want in ((a[i], a1), (b[i], b1)):
                if quadrature:
                    # the points of a plane share one panel tree, so they meet
                    # the requested tolerance (the default one, at w0 = 1)
                    assert abs(got - want) <= 1e-13 * math.sqrt(2.0) + 1e-9 * abs(want)
                else:
                    assert abs(got - want) <= 1e-14 * max(abs(a1), abs(b1))

    def test_broadcast_shape(self, finite_radial):
        a, b = radial_amplitudes(finite_radial, np.array([[0.5], [1.0]]), np.array([0.0, 3.0, 9.0]))
        assert a.shape == b.shape == (2, 3)
        assert isinstance(radial_amplitudes(finite_radial, 0.5, 0.0)[0], complex)

    def test_one_integral_per_plane(self, monkeypatch):
        # both components at every radius of a plane: one vector integral
        spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(-3), -1, 20.0, Finite(GaussianSpectrum(1.0)))
        calls = []
        real = beams.integrate

        def counted(f, *args, **kwargs):
            calls.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(beams, "integrate", counted)
        a, b = radial_amplitudes(spec, np.linspace(0.0, 3.36, 8), 2.5)
        assert len(calls) == 1
        monkeypatch.undo()
        for i, r in enumerate(np.linspace(0.0, 3.36, 8)):
            a1, b1 = radial_amplitudes(spec, r, 2.5)
            assert abs(a[i] - a1) <= 1e-13 * math.sqrt(2.0) + 1e-9 * abs(a1)
            assert abs(b[i] - b1) <= 1e-13 * math.sqrt(2.0) + 1e-9 * abs(b1)

    def test_scattered_points_stay_within_block_cap(self, monkeypatch):
        # 1000 points scattered in r and z, as in verify's unit-polarization
        # check.  Every integrand call of a block of several points stays
        # within the cap, which bounds the memory one call takes; only a lone
        # point may exceed it, by its own guard-panel batch, as it always did
        spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(1), 1, 100.0, Finite(GaussianSpectrum(1.0)))
        rng = np.random.default_rng(2001)
        r = rng.uniform(0.05, 3.36, 1000)
        z = rng.uniform(-2500.0, 2500.0, 1000)
        shapes = []
        real = beams._jn_pair

        def counted(n, x):
            shapes.append(x.shape)  # (points, nodes)
            return real(n, x)

        monkeypatch.setattr(beams, "_jn_pair", counted)
        a, b = radial_amplitudes(spec, r, z)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        assert all(points * nodes <= beams._BLOCK_ARGUMENTS or points == 1
                   for points, nodes in shapes)
        assert max(points for points, _ in shapes) > 1
        guard = beams._guard_panels(10.0, r, z, 100.0) * 22
        assert max(points * nodes for points, nodes in shapes) <= max(beams._BLOCK_ARGUMENTS,
                                                                      guard.max())

    @pytest.mark.parametrize("twice_j", [1, -1, 3, -3, 5])
    def test_one_miller_recurrence_per_paraxial_call(self, twice_j, monkeypatch):
        # of the two profile orders |j -+ 1/2| one is odd, and its bracket of
        # integer orders takes one Bessel pair: one Miller recurrence for the
        # radii whose argument |r^2 / 4 w^2| lies in (2, 60]
        from spinbeam import specfun

        spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), 1, 100.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))
        calls = []
        real = specfun._iv_int_miller_scaled

        def counted(n, z):
            calls.append(n)
            return real(n, z)

        monkeypatch.setattr(specfun, "_iv_int_miller_scaled", counted)
        a, b = radial_amplitudes(spec, np.linspace(0.0, 8.0, 64), 50.0)
        assert len(calls) == 1
        monkeypatch.undo()
        for i, r in enumerate(np.linspace(0.0, 8.0, 64)):
            a1, b1 = radial_amplitudes(spec, r, 50.0)
            assert abs(a[i] - a1) <= 1e-14 * max(abs(a1), abs(b1))
            assert abs(b[i] - b1) <= 1e-14 * max(abs(a1), abs(b1))


def _paraxial_radial():
    return BeamSpec(Configuration.RADIAL, HalfInt(3), 1, 100.0,
                    Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))


def _quadrature_radial():
    return BeamSpec(Configuration.RADIAL, HalfInt(3), 1, 100.0, Finite(GaussianSpectrum(1.0)))


# each case fails at the parent, where it returned NaN or raised another error,
# except r_max = nan, which pins the parent's ValueError
@pytest.mark.parametrize("call,message", [
    (lambda: spectral_profile(1, math.nan, 0.0, GaussianSpectrum(1.0), 100.0,
                              FiniteMethod.PARAXIAL_CLOSED_FORM), "r must be finite"),
    (lambda: spectral_profile(1, 1.0, math.inf, GaussianSpectrum(1.0), 100.0,
                              FiniteMethod.PARAXIAL_CLOSED_FORM), "z must be finite"),
    (lambda: spectral_profile(1, math.nan, 0.0, GaussianSpectrum(1.0), 100.0), "r must be finite"),
    (lambda: spectral_profile(1, math.inf, 0.0, GaussianSpectrum(1.0), 100.0), "r must be finite"),
    (lambda: spectral_profile(1, 1.0, math.nan, GaussianSpectrum(1.0), 100.0), "z must be finite"),
    (lambda: radial_amplitudes(_paraxial_radial(), [1.0, math.nan], 0.0), "r must be finite"),
    (lambda: radial_amplitudes(_quadrature_radial(), 1.0, math.inf), "z must be finite"),
    (lambda: radial_amplitudes(BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 2.0,
                                        NonDiffractive(1.0)), -1.0, 0.0), "r must be finite"),
    # kappa r overflows to inf, which the J_n kernels would turn into NaN
    pytest.param(lambda: radial_amplitudes(BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 4.0,
                                                    NonDiffractive(2.0)), 1e308, 0.0), "finite x",
                 marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    (lambda: bessel_i_scaled(0, math.nan), "finite z"),
    (lambda: bessel_i_scaled(HalfInt(3), complex(1.0, math.inf)), "finite z"),
    (lambda: bessel_i_scaled(HalfInt(-1), np.array([1.0, math.inf])), "finite z"),
    (lambda: charge_integral(_paraxial_radial(), n_r=100.5), "n_r must be an integer"),
    (lambda: charge_integral(_paraxial_radial(), n_r=True), "n_r must be an integer"),
    (lambda: charge_integral(_paraxial_radial(), r_max=math.inf), "r_max must be finite"),
    (lambda: charge_integral(_paraxial_radial(), r_max=math.nan), None),
], ids=["paraxial-r-nan", "paraxial-z-inf", "quadrature-r-nan", "quadrature-r-inf",
        "quadrature-z-nan", "paraxial-array-r-nan", "quadrature-z-inf", "bessel-r-negative",
        "bessel-kappa-r-overflow",
        "i0-nan", "i3/2-complex-inf", "i-1/2-array-inf", "n_r-float", "n_r-bool", "r_max-inf",
        "r_max-nan"])
def test_rejected_at_array_entry(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestJzEigenstate:
    @pytest.mark.parametrize("family", ["nd_radial", "nd_azimuthal", "finite_radial",
                                        "finite_azimuthal"])
    def test_total_angular_momentum(self, family, request):
        spec = request.getfixturevalue(family)
        is_nd = isinstance(spec.kind, NonDiffractive)
        ev = evaluate_nondiffractive if is_nd else evaluate_finite
        pt = CylPoint(1.4, 0.8, 0.3)
        h = 0.01
        stencil = [ev(spec, CylPoint(pt.r, pt.phi + k * h, pt.z)) for k in (-2, -1, 0, 1, 2)]
        dup = (stencil[0].up - 8 * stencil[1].up + 8 * stencil[3].up - stencil[4].up) / (12 * h)
        ddn = (stencil[0].down - 8 * stencil[1].down + 8 * stencil[3].down
               - stencil[4].down) / (12 * h)
        jf = float(spec.j)
        res_up = -1j * dup + 0.5 * stencil[2].up - jf * stencil[2].up
        res_dn = -1j * ddn - 0.5 * stencil[2].down - jf * stencil[2].down
        norm = math.sqrt(stencil[2].norm_sq)
        assert math.sqrt(abs(res_up) ** 2 + abs(res_dn) ** 2) <= 1e-6 * norm

    def test_rotation_covariance(self, nd_radial):
        # advancing phi by delta multiplies the spinor by
        # e^{i j delta} diag(e^{-i delta/2}, e^{+i delta/2})
        delta = 0.613
        pt = CylPoint(1.2, 0.4, 0.9)
        psi = evaluate_nondiffractive(nd_radial, pt)
        rot = evaluate_nondiffractive(nd_radial, CylPoint(pt.r, pt.phi + delta, pt.z))
        jf = float(nd_radial.j)
        want_up = cmath.exp(1j * (jf - 0.5) * delta) * psi.up
        want_dn = cmath.exp(1j * (jf + 0.5) * delta) * psi.down
        assert abs(rot.up - want_up) < 1e-13
        assert abs(rot.down - want_dn) < 1e-13
