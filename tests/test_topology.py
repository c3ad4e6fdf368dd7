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


# q_boundary, q_integral and s_z_infinity of full_charge_report (n_r = 4096),
# then q_boundary and s_z_infinity of charge_boundary, as float.hex, on the
# paraxial beams of radial_beam by (2j, z/z0).  A rewrite of the charge path
# that means to keep its numbers keeps these bit for bit.  The two routes
# batch different radii, so their boundary values differ at roundoff.
# They were recorded with the numpy dispatch targets _PINNED_TARGETS live:
# exp, log, sin and cos have a kernel per target, 1 to 327 ulps apart.
_PINNED_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
_PINNED_REPORTS = {
    (1, 0.0): ('-0x1.0000000000000p+0', '-0x1.0000531679db0p+0', '-0x1.0000000000000p+0',
        '-0x1.0000000000000p+0', '-0x1.0000000000000p+0'),
    (1, 0.5): ('-0x1.0000000000000p+0', '-0x1.0000426b657b8p+0', '-0x1.0000000000000p+0',
        '-0x1.0000000000000p+0', '-0x1.0000000000000p+0'),
    (1, 1.5): ('-0x1.0000000000000p+0', '-0x1.000025c674db1p+0', '-0x1.0000000000000p+0',
        '-0x1.0000000000000p+0', '-0x1.0000000000000p+0'),
    (-1, 0.0): ('0x1.0000000000000p+0', '0x1.0000531679db0p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (-1, 0.5): ('0x1.0000000000000p+0', '0x1.0000426b657b8p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (-1, 1.5): ('0x1.0000000000000p+0', '0x1.000025c674db1p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (3, 0.0): ('-0x1.999cdf9654b1ep-1', '-0x1.9972562cd2c10p-1', '-0x1.3339bf2ca963cp-1',
        '-0x1.999cdf9654b3ep-1', '-0x1.3339bf2ca967dp-1'),
    (3, 0.5): ('-0x1.999c2d3cc8072p-1', '-0x1.99725860be625p-1', '-0x1.33385a79900e3p-1',
        '-0x1.999c2d3cc808cp-1', '-0x1.33385a7990117p-1'),
    (3, 1.5): ('-0x1.9996a277061a6p-1', '-0x1.99727566dae1dp-1', '-0x1.332d44ee0c34bp-1',
        '-0x1.9996a277061f8p-1', '-0x1.332d44ee0c3f0p-1'),
    (-3, 0.0): ('0x1.999cdf9654b1ep-1', '0x1.9972562cd2c10p-1', '0x1.3339bf2ca963cp-1',
        '0x1.999cdf9654b3ep-1', '0x1.3339bf2ca967dp-1'),
    (-3, 0.5): ('0x1.999c2d3cc8072p-1', '0x1.99725860be625p-1', '0x1.33385a79900e3p-1',
        '0x1.999c2d3cc808cp-1', '0x1.33385a7990117p-1'),
    (-3, 1.5): ('0x1.9996a277061a6p-1', '0x1.99727566dae1cp-1', '0x1.332d44ee0c34bp-1',
        '0x1.9996a277061f8p-1', '0x1.332d44ee0c3f0p-1'),
    (5, 0.0): ('-0x1.627d795c7b338p-1', '-0x1.621ec1fd7cb2cp-1', '-0x1.89f5e571ecce1p-2',
        '-0x1.627d795c7b356p-1', '-0x1.89f5e571ecd57p-2'),
    (5, 0.5): ('-0x1.627bf5d037432p-1', '-0x1.621ecb8f096e6p-1', '-0x1.89efd740dd0c6p-2',
        '-0x1.627bf5d037440p-1', '-0x1.89efd740dd0ffp-2'),
    (5, 1.5): ('-0x1.626fe5375e47bp-1', '-0x1.621f1d7ce164fp-1', '-0x1.89bf94dd791ecp-2',
        '-0x1.626fe5375e498p-1', '-0x1.89bf94dd79262p-2'),
    (-5, 0.0): ('0x1.627d795c7b338p-1', '0x1.621ec1fd7cb2cp-1', '0x1.89f5e571ecce1p-2',
        '0x1.627d795c7b356p-1', '0x1.89f5e571ecd57p-2'),
    (-5, 0.5): ('0x1.627bf5d037432p-1', '0x1.621ecb8f096e5p-1', '0x1.89efd740dd0c6p-2',
        '0x1.627bf5d037440p-1', '0x1.89efd740dd0ffp-2'),
    (-5, 1.5): ('0x1.626fe5375e47bp-1', '0x1.621f1d7ce164fp-1', '0x1.89bf94dd791ecp-2',
        '0x1.626fe5375e498p-1', '0x1.89bf94dd79262p-2'),
    (7, 0.0): ('-0x1.47b91500f1bc0p-1', '-0x1.4729ace2653ebp-1', '-0x1.1ee45403c6f01p-2',
        '-0x1.47b91500f1ba0p-1', '-0x1.1ee45403c6e81p-2'),
    (7, 0.5): ('-0x1.47b6dd6af6be9p-1', '-0x1.4729bc4018bc0p-1', '-0x1.1edb75abdafa3p-2',
        '-0x1.47b6dd6af6bdap-1', '-0x1.1edb75abdaf66p-2'),
    (7, 1.5): ('-0x1.47a5253136431p-1', '-0x1.472a3a485ec88p-1', '-0x1.1e9494c4d90c5p-2',
        '-0x1.47a5253136411p-1', '-0x1.1e9494c4d9043p-2'),
    (-7, 0.0): ('0x1.47b91500f1bc0p-1', '0x1.4729ace2653ecp-1', '0x1.1ee45403c6f01p-2',
        '0x1.47b91500f1ba0p-1', '0x1.1ee45403c6e81p-2'),
    (-7, 0.5): ('0x1.47b6dd6af6be9p-1', '0x1.4729bc4018bc0p-1', '0x1.1edb75abdafa3p-2',
        '0x1.47b6dd6af6bdap-1', '0x1.1edb75abdaf66p-2'),
    (-7, 1.5): ('0x1.47a5253136431p-1', '0x1.472a3a485ec88p-1', '0x1.1e9494c4d90c5p-2',
        '0x1.47a5253136411p-1', '0x1.1e9494c4d9043p-2'),
    # at 1.9 z0 some grid radii reach Hankel's expansion of I with 2 Re x < 60,
    # where it takes the reflected term e^{+-(nu+1/2) pi i} e^{-2x}
    (1, 1.9): ('-0x1.000000000000cp+0', '-0x1.0000becbb700ap+0', '-0x1.0000000000018p+0',
        '-0x1.000000000000cp+0', '-0x1.0000000000018p+0'),
    (-1, 1.9): ('0x1.000000000000cp+0', '0x1.0000becbb700ap+0', '0x1.0000000000018p+0',
        '0x1.000000000000cp+0', '0x1.0000000000018p+0'),
    (3, 1.9): ('-0x1.9992e641fcd14p-1', '-0x1.99726449fe06bp-1', '-0x1.3325cc83f9a29p-1',
        '-0x1.9992e641fcce8p-1', '-0x1.3325cc83f99d0p-1'),
    (-3, 1.9): ('0x1.9992e641fcd14p-1', '0x1.99726449fe06bp-1', '0x1.3325cc83f9a29p-1',
        '0x1.9992e641fcce8p-1', '0x1.3325cc83f99d0p-1'),
    (5, 1.9): ('-0x1.6267bd16047e1p-1', '-0x1.621f54969c2b2p-1', '-0x1.899ef45811f85p-2',
        '-0x1.6267bd16047b0p-1', '-0x1.899ef45811ebfp-2'),
    (7, 1.9): ('-0x1.47991cf0fcac5p-1', '-0x1.472a90ca3f065p-1', '-0x1.1e6473c3f2b14p-2',
        '-0x1.47991cf0fcafap-1', '-0x1.1e6473c3f2be8p-2'),
}


def _pinned(spec, z, **grid):
    rep, base = full_charge_report(spec, z=z, **grid), charge_boundary(spec, z=z)
    assert base.q_integral is None and base.grid_resolution is None
    return tuple(x.hex() for x in (rep.q_boundary, rep.q_integral, rep.s_z_infinity,
                                   base.q_boundary, base.s_z_infinity))


def _pin_mismatch() -> str:
    """Why the pins cannot hold bit for bit here, or '' where numpy's live
    dispatch targets are those they were recorded with."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    live = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    missing = [t for t in _PINNED_TARGETS if t not in live]
    extra = [t for t in live if t not in _PINNED_TARGETS]
    if not (missing or extra):
        return ""
    return (f"hex pins recorded with numpy dispatch targets {', '.join(_PINNED_TARGETS)}; "
            f"not live here: {', '.join(missing) or 'none'}; "
            f"live here besides: {', '.join(extra) or 'none'}")


_PIN_MISMATCH = _pin_mismatch()


@pytest.mark.skipif(bool(_PIN_MISMATCH), reason=_PIN_MISMATCH)
class TestPinnedReports:
    @pytest.mark.parametrize("twice_j,z_over_z0", sorted(_PINNED_REPORTS))
    def test_paraxial(self, twice_j, z_over_z0):
        spec = radial_beam(twice_j)
        z = z_over_z0 * spec.kind.spectrum.rayleigh_range(spec.k)
        assert _pinned(spec, z) == _PINNED_REPORTS[twice_j, z_over_z0]

    def test_quadrature(self):
        # the spectral profiles of the Clenshaw-Curtis ladder; those of
        # adaptive QK15 gave values within 1.6e-13 of these
        spec = BeamSpec(Configuration.RADIAL, HalfInt(3), 1, 20.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.QUADRATURE))
        assert _pinned(spec, 0.0, n_r=128) == (
            '-0x1.999cdf9654d78p-1', '-0x1.9a1031c5c87a1p-1', '-0x1.3339bf2ca9af1p-1',
            '-0x1.999cdf9654d78p-1', '-0x1.3339bf2ca9af1p-1')


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

    @pytest.mark.parametrize("route", [charge_integral, full_charge_report])
    def test_null_grid_resolution_is_an_error(self, route):
        # an n_r of None once skipped the integral: a None q_integral, or a
        # report without its integral route
        with pytest.raises(ValueError, match="n_r") as info:
            route(radial_beam(1), n_r=None)
        assert info.value.argument == "n_r"


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

    @pytest.mark.parametrize("twice_j", [1, -1, 3, -3, 5, 7])
    def test_one_i_pair_per_bessel_lattice(self, twice_j, monkeypatch):
        # orders |j| -+ 1/2 share w^2, x and the carrier; order 0 is a pure
        # Gaussian, and each other order is one e^{-x} I pair on its own lattice
        from spinbeam import beams

        real, carrier, lattices, carriers = beams._iv_pair, beams._carrier, [], []

        def counted(order, x):
            lattices.append(order.twice_value % 2)
            return real(order, x)

        def counted_carrier(*args):
            carriers.append(args)
            return carrier(*args)

        monkeypatch.setattr(beams, "_iv_pair", counted)
        monkeypatch.setattr(beams, "_carrier", counted_carrier)
        full_charge_report(radial_beam(twice_j), z=20.0)
        assert sorted(lattices) == ([0] if abs(twice_j) == 1 else [0, 1])
        assert len(carriers) == 1

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
        stdin = io.TextIOWrapper(io.BytesIO(json.dumps({"beam": beam}).encode()))
        monkeypatch.setattr("sys.stdin", stdin)
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
            with pytest.raises(ValueError, match="the charge is defined for finite radial"):
                route(finite_azimuthal, z=math.inf, n_r=32)
            with pytest.raises(ValueError, match="n_r"):
                route(spec, z=math.inf, n_r=32)
            with pytest.raises(ValueError, match="r_max"):
                route(spec, z=math.inf, r_max=math.nan)
            with pytest.raises(ValueError, match="z must be finite"):
                route(spec, z=math.inf)
            with pytest.raises(IllConvergedLimitError, match="extrapolants"):
                route(spec, z=400.0)
        with pytest.raises(ValueError, match="the charge is defined for finite radial"):
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


class TestBandCutBound:
    # below k w0 = 10 the spectral band can end at kappa = k and truncate the
    # Gaussian spectrum: at k w0 = 1e-3, j = 1/2 gave q_boundary = -6.6e-5 next to
    # q_formula = -1, and at k w0 = 3 it missed by 2.7e-3, with no error

    @pytest.mark.parametrize("k", [1e-3, 3.0])
    @pytest.mark.parametrize("twice_j", [1, 3, -1])
    @pytest.mark.parametrize("route", [charge_boundary, charge_integral, full_charge_report])
    def test_every_route_refuses(self, route, twice_j, k):
        spec = BeamSpec(Configuration.RADIAL, HalfInt(twice_j), 1, k,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.QUADRATURE))
        with pytest.raises(ValueError, match=r"the charge requires k \* w0 >= 10") as info:
            route(spec)
        assert info.value.argument == "beam"

    def test_bound_itself_is_accepted(self):
        spec = BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 10.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.QUADRATURE))
        assert abs(charge_boundary(spec).q_boundary + 1.0) < 2e-3
