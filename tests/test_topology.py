"""Charge routes: closed formula, boundary extrapolation, solid-angle sum."""

import io
import json
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
    IllConvergedLimitError,
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


def _count_amplitude_calls(monkeypatch):
    """Count the radial-amplitude evaluations behind the closed-form texture."""
    from spinbeam import polarization

    real = polarization.radial_amplitudes
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polarization, "radial_amplitudes", counted)
    return calls


class TestOneEvaluationPerRequest:
    def test_charge_integral(self, monkeypatch):
        calls = _count_amplitude_calls(monkeypatch)
        charge_integral(radial_beam(3), z=20.0, n_r=512)
        assert len(calls) == 1

    def test_charge_boundary(self, monkeypatch):
        calls = _count_amplitude_calls(monkeypatch)
        charge_boundary(radial_beam(-1), z=20.0)
        assert len(calls) == 1


class TestFullReport:
    def test_all_fields_populated(self):
        rep = full_charge_report(radial_beam(3), z=0.0, n_r=1024)
        assert rep.q_integral is not None
        assert rep.grid_resolution == 1024
        assert abs(rep.q_formula + 0.8) < 1e-15
        assert abs(rep.q_boundary - rep.q_integral) < 2e-3

    def test_charge_request_makes_one_texture_and_one_recurrence(self, tmp_path, monkeypatch):
        # the integral grid and the three boundary radii form one texture
        # batch, so the integer-order bracket runs one Miller recurrence, and
        # it is I's (sign +1), not J's
        from spinbeam import cli, specfun, topology

        textures, recurrences = [], []
        real_texture, real_miller = topology.closed_form_texture, specfun._miller

        def texture(spec, r, z):
            textures.append(len(r))
            return real_texture(spec, r, z)

        def miller(n, z, sign):
            recurrences.append((n, sign))
            return real_miller(n, z, sign)

        monkeypatch.setattr(topology, "closed_form_texture", texture)
        monkeypatch.setattr(specfun, "_miller", miller)
        beam = {"configuration": "radial", "j": "3/2", "sigma": 1, "k": 100.0,
                "kind": {"type": "finite", "w0": 1.0, "method": "paraxial"}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"beam": beam})))
        out = tmp_path / "charge.json"
        assert cli.main(["charge", "--config", "-", "--out", str(out), "--z", "20.0"]) == 0
        assert textures == [4096 + 4]
        assert len(recurrences) == 1
        assert recurrences[0][1] == 1
        assert json.loads(out.read_text())["grid_resolution"] == 4096

    @pytest.mark.parametrize("method,twice_js,planes", [
        (FiniteMethod.PARAXIAL_CLOSED_FORM, (1, -1, 3, 7, -7), (0.0, 20.0, 150.0)),
        (FiniteMethod.QUADRATURE, (3, -7), (20.0,)),
    ])
    def test_equals_the_two_routes_run_separately(self, method, twice_js, planes):
        for twice_j in twice_js:
            spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), 1, 100.0,
                            Finite(GaussianSpectrum(1.0), method))
            for z in planes:
                rep = full_charge_report(spec, z=z, n_r=128)
                base = charge_boundary(spec, z=z)
                for field in ("q_formula", "q_boundary", "s_z_axis", "s_z_infinity"):
                    assert abs(getattr(rep, field) - getattr(base, field)) <= 1e-13
                assert abs(rep.q_integral - charge_integral(spec, z=z, n_r=128)) <= 1e-13
                assert rep.grid_resolution == 128

    def test_errors_come_in_the_order_of_the_two_routes(self, finite_azimuthal):
        # every route checks in one order: the kind of beam, then n_r and
        # r_max, then z (inside the texture), then the two gates; the
        # integral route raises wherever the boundary route does
        spec = radial_beam(3)
        for route in (charge_integral, full_charge_report):
            with pytest.raises(ValueError, match=route.__name__):
                route(finite_azimuthal, z=math.inf, n_r=32)
            with pytest.raises(ValueError, match="n_r"):
                route(spec, z=math.inf, n_r=32)
            with pytest.raises(ValueError, match="r_max"):
                route(spec, z=math.inf, r_max=math.nan)
            with pytest.raises(ValueError, match="z must be finite"):
                route(spec, z=math.inf)
            with pytest.raises(IllConvergedLimitError, match="extrapolants"):
                route(spec, z=400.0)
        with pytest.raises(ValueError, match="charge_boundary"):
            charge_boundary(finite_azimuthal, z=math.inf)
        with pytest.raises(ValueError, match="z must be finite"):
            charge_boundary(spec, z=math.inf)
        with pytest.raises(IllConvergedLimitError, match="extrapolants"):
            charge_boundary(spec, z=400.0)


class TestIntegralGate:
    # without the integral gate each of these returned a wrong value and no error

    @pytest.mark.parametrize("kwargs", [{"n_r": 64}, {"r_max": 1e4}, {"r_max": 1e5}],
                             ids=["n_r-64", "r_max-1e4", "r_max-1e5"])
    def test_grid_too_coarse_for_its_radius(self, kwargs):
        # -1.0203, -1.368 and -pi/2 against q_boundary = -1 at k w0 = 100
        assert abs(charge_boundary(radial_beam(1)).q_boundary + 1.0) < 2e-3
        with pytest.raises(IllConvergedLimitError, match="boundary value"):
            charge_integral(radial_beam(1), **kwargs)
        with pytest.raises(IllConvergedLimitError, match="boundary value"):
            full_charge_report(radial_beam(1), **kwargs)

    @pytest.mark.parametrize("twice_j", [1, 3, 5, -1])
    def test_off_waist_plane_raises_as_the_boundary_route_does(self, twice_j):
        # k w0 = 20 at 30 z0, where the integral was off the formula by 0.15-0.50
        spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), 1, 20.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))
        z = 30.0 * spec.kind.spectrum.rayleigh_range(spec.k)
        with pytest.raises(IllConvergedLimitError):
            charge_boundary(spec, z=z)
        with pytest.raises(IllConvergedLimitError):
            charge_integral(spec, z=z)
