"""Beam families: eigenspinors, closed forms, and their quadrature oracles."""

import cmath
import math
import re
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbeam import beams
from spinbeam.beams import _COMPONENTS, radial_amplitudes
from spinbeam.specfun import _iv_pair

from spinbeam import (
    BeamSpec,
    Configuration,
    ConvergenceError,
    CylPoint,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    HalfInt,
    NonDiffractive,
    SpinBeamError,
    Spinor,
    bessel_i_scaled,
    bessel_j,
    charge_integral,
    closed_form_texture,
    eigenspinor_azimuthal,
    eigenspinor_radial,
    evaluate_finite,
    evaluate_nondiffractive,
    evaluate,
    integrate,
    probability_density,
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
        assert abs(probability_density(a) - 1.0) < 1e-14
        assert abs(probability_density(b) - 1.0) < 1e-14

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

    @pytest.mark.parametrize("twice_j", [s * t for t in range(1, 42, 2) for s in (1, -1)])
    def test_orders_follow_j(self, twice_j):
        # m = j - sigma/2 and the component orders j -+ 1/2, for j in +-{1/2, ..., 41/2}
        j = Fraction(twice_j, 2)
        for sigma in (1, -1):
            spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), sigma, 2.0, NonDiffractive(1.0))
            assert spec.m == j - Fraction(sigma, 2)
            assert spec.order_minus == j - Fraction(1, 2)
            assert spec.order_plus == j + Fraction(1, 2)
            assert all(type(v) is int for v in (spec.m, spec.order_minus, spec.order_plus))

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
        psi = evaluate(nd_radial, 0.0, 1.1, 0.7)
        want_up = math.sqrt(kappa / (4.0 * math.pi)) * cmath.exp(1j * nd_radial.kz * 0.7)
        assert abs(psi.up - want_up) < 1e-14
        assert psi.down == 0.0

    def test_upper_component_dies_at_first_zero(self, nd_radial):
        r = 2.4048 / nd_radial.kind.kappa
        psi = evaluate(nd_radial, r, 0.0, 0.0)
        amp = math.sqrt(nd_radial.kind.kappa / (4.0 * math.pi))
        assert abs(psi.up) < 5e-5 * amp
        assert abs(psi.down) > 0.1 * amp

    def test_probability_density_z_invariant(self, nd_radial, nd_azimuthal):
        for spec in (nd_radial, nd_azimuthal):
            for r in (0.4, 1.9, 3.3):
                rho0 = probability_density(evaluate(spec, r, 0.5, 0.0))
                for z in (1.0, 17.3, 240.0):
                    rho = probability_density(evaluate(spec, r, 0.5, z))
                    assert abs(rho - rho0) <= 1e-13 * rho0

    def test_azimuthal_weights(self, nd_azimuthal):
        kappa, k = nd_azimuthal.kind.kappa, nd_azimuthal.k
        psi = evaluate(nd_azimuthal, 0.0, 0.0, 0.0)
        want = math.sqrt(kappa / (4.0 * math.pi)) * math.sqrt(1.0 + kappa / k)
        assert abs(psi.up - want) < 1e-14
        assert psi.down == 0.0

    def test_rejects_finite_spec(self, finite_radial):
        with pytest.raises(ValueError):
            evaluate_nondiffractive(finite_radial, CylPoint(1.0, 0.0, 0.0))


class TestReconstructionOracle:
    def test_matches_closed_form_both_configurations(self, rng):
        # one call over every point of a beam
        for config in (Configuration.RADIAL, Configuration.AZIMUTHAL):
            for twice_j, sigma in [(1, 1), (-1, -1), (3, 1), (-3, -1), (1, -1)]:
                spec = BeamSpec(config, HalfInt(twice_j), sigma, 2.0, NonDiffractive(1.2))
                r, phi, z = rng.uniform([0.0, 0.0, -4.0], [7.0, 2.0 * math.pi, 4.0],
                                        size=(4, 3)).T
                a = evaluate(spec, r, phi, z)
                b = reconstruct_from_momentum(spec, r, phi, z)
                assert b.up.shape == b.down.shape == (4,)
                assert np.max(np.abs(a.up - b.up)) < 1e-8
                assert np.max(np.abs(a.down - b.down)) < 1e-8

    def test_batched_matches_per_point(self, rng):
        # the node count follows the batch's largest r, so a point alone is summed
        # on fewer nodes than in the batch; both sums are exact to roundoff
        spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(3), 1, 2.0, NonDiffractive(1.2))
        r = rng.uniform(0.0, 8.0, (3, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, 4)
        batch = reconstruct_from_momentum(spec, r, phi, -1.5)
        assert batch.up.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            one = reconstruct_from_momentum(spec, r[idx[0], 0], phi[idx[1]], -1.5)
            for got, want in ((batch.up[idx], one.up), (batch.down[idx], one.down)):
                assert abs(got - want) <= 2.0 * (1e-13 + 1e-11 * abs(want))

    def test_scalar_input_gives_complex_scalars(self, nd_azimuthal):
        psi = reconstruct_from_momentum(nd_azimuthal, 1.3, 0.4, 0.2)
        assert isinstance(psi.up, complex) and isinstance(psi.down, complex)
        assert np.ndim(psi.up) == np.ndim(psi.down) == 0

    @pytest.mark.parametrize("r,phi,z", [(-1.0, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                         (1.0, math.inf, 0.0), (1.0, 0.0, math.nan),
                                         ([1.0, math.inf], 0.0, 0.0), (1.0, 0.0, 1.5e308)],
                             ids=["r-negative", "r-nan", "phi-inf", "z-nan", "array-r-inf",
                                  "carrier-phase-overflow"])
    def test_invalid_points_raise_like_evaluate(self, nd_radial, r, phi, z):
        with pytest.raises(ValueError) as want:
            evaluate(nd_radial, r, phi, z)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            reconstruct_from_momentum(nd_radial, r, phi, z)

    def test_on_axis(self, nd_radial):
        a = evaluate(nd_radial, 0.0, 0.0, 0.0)
        b = reconstruct_from_momentum(nd_radial, 0.0, 0.0, 0.0)
        assert abs(a.up - b.up) < 1e-12 and abs(b.down) < 1e-12

    def test_rejects_finite_spec(self, finite_radial):
        with pytest.raises(ValueError):
            reconstruct_from_momentum(finite_radial, 1.0, 0.0, 0.0)

    def test_far_point_matches_evaluate(self):
        # kappa r = 7.2e5 takes about 721,000 nodes, within the budget
        spec = BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 2.0, NonDiffractive(1.2))
        a = evaluate(spec, 6e5, 0.3, 0.0)
        b = reconstruct_from_momentum(spec, 6e5, 0.3, 0.0)
        assert abs(a.up - b.up) < 1e-12 and abs(a.down - b.down) < 1e-12

    def test_point_past_the_node_budget_raises_before_any_node(self, monkeypatch):
        # kappa r = 1e7 asks for more than 3e6 nodes: the oracle stops before
        # the eigenspinor is taken on any node
        def unreached(*args):
            raise AssertionError("nodes were formed")

        monkeypatch.setattr(beams, "eigenspinor_radial", unreached)
        spec = BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 2.0, NonDiffractive(1.2))
        with pytest.raises(ConvergenceError):
            reconstruct_from_momentum(spec, [1.0, 1e7 / 1.2], 0.0, 0.0)

    @staticmethod
    def _doubled(spec, r, phi, z):
        # the same points beside one at kappa r = 2N, N the node count of the
        # points alone, which takes the sum to at least 2N nodes
        x = spec.kind.kappa * np.max(r)
        nodes = abs(spec.m) + 2 + math.floor(x + 13.0 * (x + 1.0) ** (1.0 / 3.0)) + 25
        far = reconstruct_from_momentum(spec, np.append(r, 2.0 * nodes / spec.kind.kappa),
                                        np.append(phi, 0.0), np.append(z, 0.0))
        return far.up[:-1], far.down[:-1]

    def test_doubling_the_nodes_moves_no_component(self, rng):
        # the 8 beams of verify's check 3 on its point range, and j = 41/2 at
        # kappa r = 1e3: the node count already sums to roundoff
        from spinbeam import verify

        specs = [verify._beam_nd(config, twice_j, 1 if twice_j > 0 else -1)
                 for config in Configuration for twice_j in (1, -1, 3, -3)]
        points = [rng.uniform([0.0, 0.0, -5.0], [8.0, 2.0 * math.pi, 5.0], size=(13, 3)).T
                  for _ in specs]
        for config in Configuration:
            spec = BeamSpec(config, HalfInt(41), 1, 2.0, NonDiffractive(1.2))
            specs.append(spec)
            points.append((np.full(5, 1e3 / 1.2), rng.uniform(0.0, 2.0 * math.pi, 5),
                           rng.uniform(-5.0, 5.0, 5)))
        for spec, (r, phi, z) in zip(specs, points):
            psi = reconstruct_from_momentum(spec, r, phi, z)
            up, down = self._doubled(spec, r, phi, z)
            assert np.max(np.abs(psi.up - up)) <= 1e-14
            assert np.max(np.abs(psi.down - down)) <= 1e-14

    def test_verify_check_makes_no_integral(self, monkeypatch):
        # check 3 of the full suite: 2 configurations x 4 values of j, 13 points
        # each, all summed without integrate
        from spinbeam import verify

        def unreached(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(beams, "integrate", unreached)
        lines = verify.check_momentum_reconstruction()
        assert all(line.passed for line in lines)
        assert all(line.measured <= 1e-14 for line in lines)


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
        # the paraxial profile's bracket e^{-x} (I_{(n-1)/2} - I_{(n+1)/2}) is
        # the difference of one pair; its argument r^2 / 4w^2 lies in the
        # right half plane
        for n in range(1, 12):
            for theta in (0.0, 0.7, -0.7, 1.4, -1.4):
                x = cmath.rect(radius, theta)
                with mp.workdps(40):
                    xm = mp.mpc(x)
                    ref = complex(mp.exp(-xm) * (mp.besseli(mp.mpf(n - 1) / 2, xm)
                                                 - mp.besseli(mp.mpf(n + 1) / 2, xm)))
                lower, upper = _iv_pair(HalfInt(n - 1), x)
                assert abs((lower - upper) - ref) <= 1e-13 * abs(ref)

    def test_high_order_paraxial_profile_against_mpmath(self, spectrum):
        # a j = 81/2 beam ten Rayleigh ranges out: F_40's bracket is the pair
        # I_{39/2}, I_{41/2} near the imaginary axis, where a series taken up
        # to |x| = 2 nu lost 3.3e-4; the oracle is the same closed form in mpmath
        k, n = 100.0, 40
        z = 10.0 * spectrum.rayleigh_range(k)
        r = np.array([5.0, 20.0, 30.0, 40.0, 60.0])
        got = spectral_profile(n, r, z, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
        with mp.workdps(40):
            wsq = mp.mpf(spectrum.w0) ** 2 * (1 + 1j * mp.mpf(z) / spectrum.rayleigh_range(k))
            pref = mp.sqrt(mp.pi) * spectrum.w0 * mp.expj(k * mp.mpf(z)) / (2 * wsq * mp.sqrt(wsq))
            for ri, value in zip(r.tolist(), got.tolist()):
                x = mp.mpf(ri) ** 2 / (4 * wsq)
                want = complex(pref * ri * mp.exp(-x) * (mp.besseli(mp.mpf(n - 1) / 2, x)
                                                         - mp.besseli(mp.mpf(n + 1) / 2, x)))
                assert abs(value - want) <= 1e-12 * abs(want)

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

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_far_field_returns_and_matches_closed_form(self, spectrum, n):
        # the carrier e^{ikz} stays outside the integral, so 100 Rayleigh
        # ranges downstream the phase k z ~ 1e6 does not swamp it
        k = 100.0
        z = 100.0 * spectrum.rayleigh_range(k)
        for r in (0.5, 3.0):
            start = time.perf_counter()
            qd = spectral_profile(n, r, z, spectrum, k, FiniteMethod.QUADRATURE,
                                  paraxial_phase=True)
            exact = spectral_profile(n, r, z, spectrum, k, FiniteMethod.QUADRATURE)
            assert time.perf_counter() - start < 1.0
            cf = spectral_profile(n, r, z, spectrum, k, FiniteMethod.PARAXIAL_CLOSED_FORM)
            assert abs(cf - qd) <= 1e-9 * abs(cf)
            assert abs(exact - qd) <= 1e-4 * abs(cf)

    def test_nonparaxial_beam_far_downstream_in_bounded_time(self):
        # k w0 = 2 at |z| = 1e4: thousands of splits, taken in rounds
        spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(1), 1, 2.0, Finite(GaussianSpectrum(1.0)))
        start = time.perf_counter()
        psi = evaluate(spec, 1.0, 0.0, np.array([1e4, -1e4]))
        assert time.perf_counter() - start < 2.0
        # a real spectrum: F(r, -z) = conj F(r, z); the lower component carries -i
        assert abs(psi.up[1] - psi.up[0].conjugate()) <= 1e-15
        assert abs(psi.down[1] + psi.down[0].conjugate()) <= 1e-15
        # refined one split at a time, with the carrier inside the integral
        assert abs(psi.up[0] - (4.640138806324047e-05 - 6.521593225696361e-05j)) <= 1e-13
        assert abs(psi.down[0] - (-6.953246481199728e-07 + 1.1202461793577305e-07j)) <= 1e-13

    def test_nonparaxial_beam_returns_a_decade_further(self):
        # at |z| = 1e5 the raw |K15 - G7| estimate stalled at 2.2e-5 and the
        # panel budget ran out (ConvergenceError after about 1.6 s); QUADPACK's
        # rescaled estimate lets converged panels stop splitting
        spec = BeamSpec(Configuration.AZIMUTHAL, HalfInt(1), 1, 2.0, Finite(GaussianSpectrum(1.0)))
        start = time.perf_counter()
        psi = evaluate(spec, 1.0, 0.0, np.array([1e5, -1e5]))
        assert time.perf_counter() - start < 10.0
        assert abs(psi.up[1] - psi.up[0].conjugate()) <= 1e-15
        assert abs(psi.down[1] + psi.down[0].conjugate()) <= 1e-15

    @given(st.sampled_from(list(_COMPONENTS)), st.integers(-3, 4), st.floats(0.5, 2.0),
           st.floats(2.0, 100.0), st.floats(0.0, 4.0), st.floats(-2.0, 2.0), st.floats(-12.0, 1.6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_live_band_within_abs_tol_of_the_full_band(self, table, twice_j, w0, kw0, r, z, log_tol):
        # the band ends where the Gaussian tail bound falls to abs_tol/16, or
        # is empty past abs_tol = 32/w0; against the whole band min(k, 10/w0),
        # integrated here far below abs_tol, each amplitude misses by at most abs_tol
        configuration, sigma = table
        k, abs_tol = kw0 / w0, 10.0 ** log_tol / w0
        r, z = r * w0, z * k * w0 * w0
        spec = BeamSpec(configuration, HalfInt(2 * twice_j + 1), sigma, k, Finite(GaussianSpectrum(w0)))
        live = radial_amplitudes(spec, r, z, abs_tol, 1e-13)
        cut = min(k, 10.0 / w0)
        for order, (sign, factor), got in zip((spec.order_minus, spec.order_plus),
                                              _COMPONENTS[table], live):
            def integrand(kap, order=order, sign=sign):
                detune = -np.square(kap) / (k + np.sqrt(np.maximum(k * k - np.square(kap), 0.0)))
                weight = np.sqrt(np.clip(1.0 + sign * kap / k, 0.0, None))
                return (spec.kind.spectrum.amplitude(kap) * kap * weight * bessel_j(order, kap * r)
                        * np.exp(1j * detune * z))
            full = factor * cmath.exp(1j * k * z) * integrate(
                integrand, 0.0, cut, abs_tol=1e-3 * abs_tol, rel_tol=1e-13, initial_panels=64).value
            assert abs(got - full) <= abs_tol + 1e-12 * abs(full)

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
        psi = evaluate(finite_radial, 0.0, 0.9, 0.0)
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
                psi = evaluate(spec, r, phi, z)
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
            r, phi = rng.uniform(0.05, 4.0), rng.uniform(0.0, 2.0 * math.pi)
            a = evaluate(cf_spec, r, phi, 0.0)
            b = evaluate(qd_spec, r, phi, 0.0)
            scale = math.sqrt(probability_density(b))
            assert abs(a.up - b.up) <= 1e-8 * scale
            assert abs(a.down - b.down) <= 1e-8 * scale

    def test_azimuthal_center(self, finite_azimuthal):
        psi = evaluate(finite_azimuthal, 0.0, 0.0, 0.2)
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
                scale = math.sqrt(probability_density(want))
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

    @pytest.mark.parametrize("config,sigma", [(Configuration.RADIAL, 1),
                                              (Configuration.AZIMUTHAL, -1)])
    def test_scattered_points_equal_per_point(self, config, sigma):
        # points that share no (r, z) form blocks of one vector integral, in
        # which each profile retires when it meets its tolerance (the default
        # one, at w0 = 1)
        spec = BeamSpec(config, HalfInt(3), sigma, 100.0, Finite(GaussianSpectrum(1.0)))
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 3.36, 40)
        z = rng.uniform(-2500.0, 2500.0, 40)
        a, b = radial_amplitudes(spec, r, z)
        for i in range(r.size):
            for got, want in zip((a[i], b[i]), radial_amplitudes(spec, r[i], z[i])):
                assert abs(got - want) <= 1e-13 * math.sqrt(2.0) + 1e-9 * abs(want)

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
        guard = beams._guard_panels(10.0, r, z, 100.0) * beams._NODES.size
        assert max(points * nodes for points, nodes in shapes) <= max(beams._BLOCK_ARGUMENTS,
                                                                      guard.max())

    @pytest.mark.parametrize("twice_j", [1, -1, 3, -3, 5])
    def test_one_miller_recurrence_per_paraxial_call(self, twice_j, monkeypatch):
        # of the two profile orders |j -+ 1/2| one is odd, and its bracket of
        # integer orders takes one Bessel pair: one Miller recurrence for the
        # radii whose argument |r^2 / 4 w^2| lies in (2, 60], and it is I's
        # (sign +1), not J's
        from spinbeam import specfun

        spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), 1, 100.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))
        calls = []
        real = specfun._miller

        def counted(n, z, sign):
            calls.append((n, sign))
            return real(n, z, sign)

        monkeypatch.setattr(specfun, "_miller", counted)
        a, b = radial_amplitudes(spec, np.linspace(0.0, 8.0, 64), 50.0)
        assert len(calls) == 1
        assert calls[0][1] == 1
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


@pytest.mark.parametrize("call,z", [
    # k_z z overflows in the non-diffractive carrier
    (lambda: evaluate(BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 100.0, NonDiffractive(1.0)),
                      1.0, 0.0, np.array([0.0, 1e307])), "1e+307"),
    # w^2 sqrt(w^2) overflows in the paraxial closed form
    (lambda: radial_amplitudes(_paraxial_radial(), 1.0, 1e306), "1e+306"),
    # k z overflows in the paraxial and the quadrature carriers
    (lambda: closed_form_texture(_paraxial_radial(), [0.0, 1.0], 1e308), "1e+308"),
    (lambda: spectral_profile(1, 1.0, [1.0, -1e308], GaussianSpectrum(1.0), 100.0), "-1e+308"),
], ids=["nondiffractive-carrier", "paraxial-w-cubed", "texture-carrier", "quadrature-carrier"])
def test_amplitude_overflow_names_z(call, z):
    # the parent returned NaN amplitudes here
    with pytest.raises(ValueError, match=re.escape(f"at z = {z}")):
        call()


def test_guard_panels_clip_before_the_cast():
    # a rate past the int range used to wrap to -9.2e18 panels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert beams._guard_panels(10.0, [1e300], [0.0], 100.0).tolist() == [3000]
        assert beams._guard_panels(10.0, [0.0], [1e308], 100.0).tolist() == [3000]


class TestJzEigenstate:
    @pytest.mark.parametrize("family", ["nd_radial", "nd_azimuthal", "finite_radial",
                                        "finite_azimuthal"])
    def test_total_angular_momentum(self, family, request):
        spec = request.getfixturevalue(family)
        h = 0.01
        # a five-point stencil in phi around (1.4, 0.8, 0.3)
        psi = evaluate(spec, 1.4, 0.8 + h * np.arange(-2, 3), 0.3)
        up, dn = psi.up, psi.down
        dup = (up[0] - 8 * up[1] + 8 * up[3] - up[4]) / (12 * h)
        ddn = (dn[0] - 8 * dn[1] + 8 * dn[3] - dn[4]) / (12 * h)
        jf = float(spec.j)
        res_up = -1j * dup + 0.5 * up[2] - jf * up[2]
        res_dn = -1j * ddn - 0.5 * dn[2] - jf * dn[2]
        norm = math.sqrt(abs(up[2]) ** 2 + abs(dn[2]) ** 2)
        assert math.sqrt(abs(res_up) ** 2 + abs(res_dn) ** 2) <= 1e-6 * norm

    def test_rotation_covariance(self, nd_radial):
        # advancing phi by delta multiplies the spinor by
        # e^{i j delta} diag(e^{-i delta/2}, e^{+i delta/2})
        delta = 0.613
        psi = evaluate(nd_radial, 1.2, 0.4, 0.9)
        rot = evaluate(nd_radial, 1.2, 0.4 + delta, 0.9)
        jf = float(nd_radial.j)
        want_up = cmath.exp(1j * (jf - 0.5) * delta) * psi.up
        want_dn = cmath.exp(1j * (jf + 0.5) * delta) * psi.down
        assert abs(rot.up - want_up) < 1e-13
        assert abs(rot.down - want_dn) < 1e-13


def _sweep_cases(count=30, seed=20260):
    # finite quadrature beams of both configurations with k w0 in [1, 1000],
    # |z| in [0.01, 1000] z0, |j| <= 21/2 and r in [0.01, 16] w0, log-uniform
    # where the range spans decades
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        config = (Configuration.RADIAL, Configuration.AZIMUTHAL)[i % 2]
        w0 = 10.0 ** rng.uniform(-1.0, 1.0)
        k = 10.0 ** rng.uniform(0.0, 3.0) / w0
        twice_j = int(rng.choice([1, -1])) * int(rng.choice(np.arange(1, 22, 2)))
        sigma = int(rng.choice([1, -1]))
        z = float(rng.choice([1.0, -1.0])) * 10.0 ** rng.uniform(-2.0, 3.0) * k * w0 * w0
        r = 10.0 ** rng.uniform(-2.0, math.log10(16.0)) * w0
        phi = rng.uniform(0.0, 2.0 * math.pi)
        spec = BeamSpec(config, HalfInt(twice_j), sigma, k, Finite(GaussianSpectrum(w0)))
        cases.append(pytest.param(spec, r, phi, z, id=f"case{i}"))
    return cases


@pytest.mark.parametrize("spec,r,phi,z", _sweep_cases())
def test_quadrature_sweep_returns_or_raises_typed_error(spec, r, phi, z):
    # every valid finite quadrature evaluation either returns finite values
    # within 2 s or raises a SpinBeamError
    start = time.perf_counter()
    try:
        psi = evaluate(spec, r, phi, z)
    except SpinBeamError:
        pass
    else:
        assert math.isfinite(abs(psi.up)) and math.isfinite(abs(psi.down))
    assert time.perf_counter() - start < 2.0
