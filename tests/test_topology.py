"""Charge routes: closed formula, boundary extrapolation, solid-angle sum."""

import math

import numpy as np
import pytest

from spinbeam import (
    BeamSpec,
    Configuration,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    HalfInt,
    charge_boundary,
    charge_formula,
    charge_integral,
    full_charge_report,
)
from spinbeam.topology import solid_angle_charge


def radial_beam(twice_j: int, sigma: int = 1) -> BeamSpec:
    return BeamSpec(Configuration.RADIAL, HalfInt(twice_j), sigma, 100.0,
                    Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))


class TestChargeFormula:
    def test_reference_values(self):
        assert charge_formula(HalfInt(1)) == -1.0
        assert charge_formula(HalfInt(3)) == -0.8
        assert abs(charge_formula(HalfInt(201)) + 0.5) < 1e-2

    def test_large_j_limit_monotone(self):
        values = [charge_formula(HalfInt(t)) for t in range(3, 61, 2)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(-1.0 < v < -0.5 for v in values)

    def test_fractional_between_minus_one_and_minus_half(self):
        for twice_j in (3, 5, 7, 9, 11):
            q = charge_formula(HalfInt(twice_j))
            assert -1.0 < q < -0.5

    def test_rejects_integer_j(self):
        with pytest.raises(ValueError):
            charge_formula(HalfInt(2))


class TestChargeBoundary:
    def test_unit_charge_for_j_half(self):
        rep = charge_boundary(radial_beam(1), z=0.0)
        assert rep.s_z_axis == 1.0
        assert abs(rep.s_z_infinity + 1.0) < 1e-6
        assert abs(rep.q_boundary + 1.0) < 2e-3

    def test_boundary_identity_holds_exactly(self):
        rep = charge_boundary(radial_beam(3), z=10.0)
        assert rep.q_boundary == 0.5 * (rep.s_z_infinity - rep.s_z_axis)

    def test_extrapolated_limit_j_three_halves(self):
        # ratio of the leading large-radius amplitudes of the two orders
        # drives s_z to -j/(j^2 + 1/4) = -0.6
        rep = charge_boundary(radial_beam(3), z=0.0)
        assert abs(rep.s_z_infinity + 0.6) < 2e-3
        assert abs(rep.q_boundary + 0.8) < 2e-3

    def test_z_independence(self):
        z0 = 100.0
        for twice_j in (1, 3):
            values = [charge_boundary(radial_beam(twice_j), z=z).q_boundary
                      for z in (0.0, z0 / 2.0, z0)]
            assert max(values) - min(values) < 2e-3

    def test_negative_j_mirror(self):
        rep = charge_boundary(radial_beam(-1, sigma=-1), z=0.0)
        assert rep.s_z_axis == -1.0
        assert abs(rep.q_boundary - 1.0) < 2e-3

    def test_rejects_unsupported_specs(self, nd_radial, finite_azimuthal):
        with pytest.raises(ValueError):
            charge_boundary(nd_radial)
        with pytest.raises(ValueError):
            charge_boundary(finite_azimuthal)


class TestSolidAngleCharge:
    def test_capped_hedgehog_is_unit(self):
        # smooth monotone sweep from 0 to pi covers the sphere exactly once
        t = np.linspace(0.0, 1.0, 20001)
        theta = math.pi * (t ** 2) * (3.0 - 2.0 * t)
        assert abs(solid_angle_charge(theta) - 1.0) < 1e-6

    def test_uniform_texture_is_zero(self):
        assert solid_angle_charge(np.full(512, 0.7)) == 0.0

    def test_partial_cap(self):
        t = np.linspace(0.0, 1.0, 20001)
        theta = 0.5 * math.pi * t
        want = 0.5 * (1.0 - math.cos(0.5 * math.pi))
        assert abs(solid_angle_charge(theta) - want) < 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solid_angle_charge(np.array([0.3]))


class TestChargeIntegral:
    def test_unit_skyrmion_for_j_half(self):
        q = charge_integral(radial_beam(1), z=0.0)
        assert abs(abs(q) - 1.0) < 1e-3
        rep = charge_boundary(radial_beam(1), z=0.0)
        assert math.copysign(1.0, q) == math.copysign(1.0, rep.q_boundary)

    def test_three_way_agreement(self):
        # for j < 0 the reported formula value is the mirror -q(-j)
        z0 = 100.0
        for twice_j in (1, 3, 5, -1, -3):
            spec = radial_beam(twice_j)
            for z in (0.0, z0 / 2.0):
                rep = charge_boundary(spec, z=z)
                qi = charge_integral(spec, z=z)
                assert abs(rep.q_formula - rep.q_boundary) < 2e-3
                assert abs(rep.q_boundary - qi) < 2e-3

    def test_parameter_validation(self):
        spec = radial_beam(1)
        with pytest.raises(ValueError):
            charge_integral(spec, n_r=32)
        with pytest.raises(ValueError):
            charge_integral(spec, r_max=5.0)

    def test_rejects_azimuthal(self, finite_azimuthal):
        with pytest.raises(ValueError):
            charge_integral(finite_azimuthal)


class TestFullReport:
    def test_all_fields_populated(self):
        rep = full_charge_report(radial_beam(3), z=0.0, n_r=1024)
        assert rep.q_integral is not None
        assert rep.grid_resolution == 1024
        assert abs(rep.q_formula + 0.8) < 1e-15
        assert abs(rep.q_boundary - rep.q_integral) < 2e-3
