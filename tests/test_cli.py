"""Command-line surface: formats, determinism, exit codes."""

import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import spinbeam
from spinbeam import (
    BeamSpec,
    Configuration,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    HalfInt,
    PolarizationVector,
    closed_form_texture,
    evaluate,
    probability_density,
    spin_polarization,
)
from spinbeam.beams import Spinor
from spinbeam.cli import FIELD_COLUMNS, main, parse_beam, parse_grid
from spinbeam.errors import UndefinedPolarizationError
from spinbeam.polarization import _RHO_FLOOR

ND_CONFIG = {
    "beam": {
        "configuration": "radial",
        "j": "1/2",
        "sigma": 1,
        "k": 2.0,
        "kind": {"type": "nondiffractive", "kappa": 1.0},
    },
    "grid": {"r_min": 0.0, "r_max": 2.4048, "n_r": 5, "n_phi": 2, "z_values": [0.0]},
}

FINITE_CONFIG = {
    "beam": {
        "configuration": "radial",
        "j": "1/2",
        "sigma": 1,
        "k": 100.0,
        "kind": {"type": "finite", "w0": 1.0, "method": "paraxial"},
    },
    "grid": {"r_min": 0.2, "r_max": 3.36, "n_r": 8, "n_phi": 8, "z_values": [0.0]},
}


def run_cli(args, config=None, capsys=None, monkeypatch=None):
    if config is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(config)))
        args = args + ["--config", "-"]
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestField:
    def test_single_axis_point(self, capsys, monkeypatch):
        config = dict(ND_CONFIG)
        config["grid"] = {"r_min": 0.0, "r_max": 1.0, "n_r": 1, "n_phi": 1,
                         "z_values": [0.0]}
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == FIELD_COLUMNS
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["rho"]) > 0.0
        assert float(row["s_z"]) == 1.0
        assert float(row["s_r"]) == 0.0 and float(row["s_phi"]) == 0.0

    def test_empty_z_values_header_only(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["grid"]["z_values"] = []
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == FIELD_COLUMNS and rows == []

    def test_finite_grid_row_count_and_unit_norm(self, capsys, monkeypatch):
        code, out, err = run_cli(["field"], FINITE_CONFIG, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 64
        for cells in rows:
            row = dict(zip(header, cells))
            norm_sq = float(row["s_r"]) ** 2 + float(row["s_phi"]) ** 2 + float(row["s_z"]) ** 2
            assert abs(norm_sq - 1.0) < 1e-10

    def test_row_order_lexicographic(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["grid"]["z_values"] = [0.5, 0.0]
        code, out, _ = run_cli(["field"], config, capsys, monkeypatch)
        header, rows = parse_csv(out)
        keys = [(float(r[2]), float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_json_format_flag_overrides_config(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["format"] = "csv"
        code, out, _ = run_cli(["field", "--format", "json"], config, capsys, monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == FIELD_COLUMNS
        assert len(payload["rows"]) == 10

    def test_outputs_selection_blanks_columns(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["outputs"] = ["density"]
        code, out, _ = run_cli(["field"], config, capsys, monkeypatch)
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["re_up"] == "" and row["s_z"] == ""
        assert row["rho"] != ""

    def test_byte_determinism(self, capsys, monkeypatch):
        _, out1, _ = run_cli(["field"], FINITE_CONFIG, capsys, monkeypatch)
        _, out2, _ = run_cli(["field"], FINITE_CONFIG, capsys, monkeypatch)
        assert out1 == out2

    def test_csv_roundtrip_17_digits(self, capsys, monkeypatch):
        _, out, _ = run_cli(["field"], FINITE_CONFIG, capsys, monkeypatch)
        _, rows = parse_csv(out)
        for cells in rows:
            for cell in cells:
                if cell:
                    assert f"{float(cell):.17g}" == cell

    def test_huge_order_nondiffractive_beam_in_bounded_time(self, capsys, monkeypatch):
        # orders 10^7 and 10^7 + 1 at kappa r <= 2.4: the Bessel pair's bound
        # underflows, so no recurrence runs (its 10^7 steps would take about
        # 40 s, at the 4.1 s measured for 10^6)
        config = json.loads(json.dumps(ND_CONFIG))
        config["beam"]["j"] = "20000001/2"
        start = time.perf_counter()
        code, out, _ = run_cli(["field"], config, capsys, monkeypatch)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 10
        assert all(float(cell) == 0.0 for row in rows for cell in row[3:8])

    def test_order_past_lgamma_range_gives_zero_amplitudes(self, capsys, monkeypatch):
        # orders about 5e305: ln Gamma(mu + 1) overflows, and the bound of the
        # Bessel pair takes Stirling's form, under which the pair is 0
        config = json.loads(json.dumps(ND_CONFIG))
        config["beam"]["j"] = "1" + "0" * 305 + "1/2"
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 0 and "Traceback" not in err
        header, rows = parse_csv(out)
        assert len(rows) == 10
        assert all(float(cell) == 0.0 for row in rows for cell in row[3:8])

    def test_empty_band_gives_zero_amplitudes(self, capsys, monkeypatch):
        # an abs_tol past 32/w0 exceeds the integrand's whole Gaussian bound
        config = {"beam": QUADRATURE_BEAM,
                  "grid": {"r_min": 0.0, "r_max": 2.0, "n_r": 3, "n_phi": 2, "z_values": [0.0, 1.5]},
                  "tolerances": {"profile_abs_tol": 1e3}}
        code, out, _ = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 12
        assert all(float(cell) == 0.0 for row in rows for cell in row[3:8])

    @pytest.mark.parametrize("r_max", [2.4e144, 3.3e144])
    def test_paraxial_argument_near_float_max(self, r_max, capsys, monkeypatch):
        # x = r^2/(4 w^2) = (1 - i) r^2/(8 w0^2) at z = z0 reaches |x| ~ 1e308:
        # the closures' 2 pi x and 2x overflow there, but both amplitudes
        # underflow, so the row is 0 (mpmath) with no RuntimeWarning
        w0, k, z = 1e-10, 1e11, 1e-9
        config = {"beam": dict(FINITE_CONFIG["beam"], k=k,
                               kind={"type": "finite", "w0": w0, "method": "paraxial"}),
                  "grid": {"r_min": 0.0, "r_max": r_max, "n_r": 2, "n_phi": 1, "z_values": [z]}}
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert (code, err) == (0, "")
        far = parse_csv(out)[1][1]
        assert [float(cell) for cell in far[3:8]] == [0.0] * 5
        assert far[8:] == [""] * 5
        wsq = mp.mpf(w0) ** 2 * (1 + 1j * mp.mpf(z) / (k * w0 * w0))
        x = mp.mpf(r_max) ** 2 / (4 * wsq)
        up = mp.sqrt(2) * w0 / wsq * mp.exp(-2 * x)
        down = mp.sqrt(mp.pi) * w0 / (2 * wsq * mp.sqrt(wsq)) * r_max * mp.exp(-x) * (
            mp.besseli(0, x) - mp.besseli(1, x))
        # below half the least subnormal, 2^-1075, a double rounds to 0
        assert abs(up) < mp.mpf(2) ** -1075 and abs(down) < mp.mpf(2) ** -1075

    def test_bessel_argument_near_float_max(self, capsys, monkeypatch):
        # kappa r = 1e308: pi x overflows in the J closure's prefactor, and
        # J_0(1e308) = -2.47e-155 must not come out as 0
        config = {"beam": ND_CONFIG["beam"],
                  "grid": {"r_min": 0.0, "r_max": 1e308, "n_r": 2, "n_phi": 1}}
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert (code, err) == (0, "")
        far = parse_csv(out)[1][1]
        amp = math.sqrt(1.0 / (4.0 * math.pi))
        for cell, order in ((far[3], 0), (far[5], 1)):
            ref = amp * float(mp.besselj(order, mp.mpf(1e308)))
            assert abs(float(cell) - ref) <= 1e-14 * abs(ref)
        # rho = 5.1e-310 is below the underflow floor
        assert far[8:] == [""] * 5

    def test_writes_to_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "field.csv"
        config = dict(ND_CONFIG)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(config)))
        code = main(["field", "--config", "-", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(target.read_text())
        assert header == FIELD_COLUMNS and len(rows) == 10


class TestProfile:
    def test_radial_sweep_ends_flipped(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["grid"] = {"r_min": 0.0, "r_max": 2.4048, "n_r": 200, "n_phi": 1,
                          "z_values": [0.0]}
        code, out, _ = run_cli(["profile"], config, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "s_r", "s_phi", "s_z", "rho"]
        assert float(rows[0][3]) == 1.0
        assert float(rows[-1][3]) < -0.999999
        # the sweep passes through a purely transverse ring
        assert min(abs(float(r[3])) for r in rows) < 0.05

    def test_single_point(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["grid"] = {"r_min": 0.0, "r_max": 1.0, "n_r": 1, "n_phi": 1,
                          "z_values": [0.0]}
        code, out, _ = run_cli(["profile"], config, capsys, monkeypatch)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_rejects_multi_azimuth_grid(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["grid"]["n_phi"] = 4
        code, _, err = run_cli(["profile"], config, capsys, monkeypatch)
        assert code == 2
        assert "n_phi" in err


class TestCharge:
    def test_unit_charge_json(self, capsys, monkeypatch):
        config = {"beam": FINITE_CONFIG["beam"]}
        code, out, _ = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["q_formula"] == -1.0
        assert abs(payload["q_boundary"] + 1.0) < 2e-3
        assert abs(payload["q_integral"] + 1.0) < 2e-3
        assert payload["s_z_axis"] == 1.0
        assert payload["grid_resolution"] >= 64

    def test_three_halves(self, capsys, monkeypatch):
        config = {"beam": dict(FINITE_CONFIG["beam"], j="3/2")}
        code, out, _ = run_cli(["charge"], config, capsys, monkeypatch)
        payload = json.loads(out)
        assert payload["q_formula"] == -0.8

    def test_tolerance_overrides(self, capsys, monkeypatch):
        config = {"beam": FINITE_CONFIG["beam"],
                  "tolerances": {"charge_n_r": 128, "charge_r_max": 15.0}}
        code, out, _ = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["grid_resolution"] == 128

    def test_rejects_azimuthal(self, capsys, monkeypatch):
        beam = dict(FINITE_CONFIG["beam"], configuration="azimuthal",
                    kind={"type": "finite", "w0": 1.0, "method": "quadrature"})
        code, _, err = run_cli(["charge"], {"beam": beam}, capsys, monkeypatch)
        assert code == 2
        assert "finite radial" in err

    def test_rejects_nondiffractive(self, capsys, monkeypatch):
        code, _, err = run_cli(["charge"], {"beam": ND_CONFIG["beam"]},
                               capsys, monkeypatch)
        assert code == 2

    def test_format_flag_is_a_usage_error(self, capsys, monkeypatch):
        # the report is JSON only, so a --format flag would be ignored
        code, out, err = run_cli(["charge", "--format", "csv"], {"beam": FINITE_CONFIG["beam"]},
                                 capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize("fmt", ["csv", "xml", None])
    def test_config_format_other_than_json_named(self, fmt, capsys, monkeypatch):
        config = {"beam": FINITE_CONFIG["beam"], "format": fmt}
        code, out, err = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert "'format'" in err
        assert "Traceback" not in err

    def test_grid_too_coarse_for_its_radius_fails(self, capsys, monkeypatch):
        # without the integral gate this printed q_integral = -pi/2 next to
        # q_boundary = -1 and exited 0
        config = {"beam": FINITE_CONFIG["beam"], "tolerances": {"charge_r_max": 1e5}}
        code, out, err = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert "boundary value" in err

    def test_json_keys_follow_the_report(self, capsys, monkeypatch):
        import dataclasses

        from spinbeam.topology import ChargeReport

        code, out, _ = run_cli(["charge"], {"beam": FINITE_CONFIG["beam"]}, capsys, monkeypatch)
        assert code == 0
        assert list(json.loads(out)) == ["z"] + [f.name for f in dataclasses.fields(ChargeReport)]

    def test_config_format_json_accepted(self, capsys, monkeypatch):
        config = {"beam": FINITE_CONFIG["beam"], "format": "json"}
        code, out, _ = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["q_formula"] == -1.0


class TestFigure:
    def test_fig1_axis_vectors(self, capsys, monkeypatch):
        code, out, _ = run_cli(["figure", "fig1", "a"], None, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "phi", "s_x", "s_y", "s_z"]
        assert [float(v) for v in rows[0]] == [0.0, 0.0, 0.0, 0.0, 1.0]
        code, out, _ = run_cli(["figure", "fig1", "c"], None, capsys, monkeypatch)
        _, rows = parse_csv(out)
        assert float(rows[0][4]) == -1.0

    def test_fig1_outer_ring_flipped(self, capsys, monkeypatch):
        _, out, _ = run_cli(["figure", "fig1", "a"], None, capsys, monkeypatch)
        _, rows = parse_csv(out)
        outer = [r for r in rows if abs(float(r[0]) - 2.4048) < 1e-9]
        assert outer and all(float(r[4]) < -0.999 for r in outer)

    def test_fig2_outer_ring_negative(self, capsys, monkeypatch):
        _, out, _ = run_cli(["figure", "fig2", "a"], None, capsys, monkeypatch)
        _, rows = parse_csv(out)
        outer = [r for r in rows if abs(float(r[0]) - 3.36) < 1e-9]
        assert outer and all(float(r[4]) < 0.0 for r in outer)

    def test_fig2_has_no_cd_variants(self, capsys, monkeypatch):
        code, _, err = run_cli(["figure", "fig2", "c"], None, capsys, monkeypatch)
        assert code == 2

    def test_json_output(self, capsys, monkeypatch):
        code, out, _ = run_cli(["figure", "fig1", "b", "--format", "json"],
                               None, capsys, monkeypatch)
        payload = json.loads(out)
        assert payload["columns"][0] == "r"


class TestVerify:
    def test_fast_suite_passes(self, capsys, monkeypatch):
        code, out, _ = run_cli(["verify", "fast"], None, capsys, monkeypatch)
        assert code == 0
        assert "12/12 checks passed" in out
        assert out.count("[PASS]") == 12

    def test_bad_suite_name(self, capsys, monkeypatch):
        code, _, _ = run_cli(["verify", "slow"], None, capsys, monkeypatch)
        assert code == 2


class TestUsageErrors:
    def test_corrupted_config(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        code = main(["field", "--config", "-"])
        err = capsys.readouterr().err
        assert code == 2
        assert "JSON" in err

    def test_missing_field_named(self, capsys, monkeypatch):
        config = {"beam": {"configuration": "radial", "j": "1/2", "sigma": 1, "k": 2.0}}
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "beam.kind" in err

    def test_bad_sigma_named(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["beam"]["sigma"] = 2
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "beam.sigma" in err

    def test_bad_j_string(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["beam"]["j"] = "1/3"
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "beam.j" in err

    def test_bad_grid(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["grid"]["n_r"] = 0
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "grid.n_r" in err

    # each object of the config names a key it does not read, as with
    # tolerances: the typo would otherwise run with the key's default
    @pytest.mark.parametrize("command,base,path,key", [
        ("field", ND_CONFIG, ["grid"], "nphi"),
        ("profile", ND_CONFIG, [], "fromat"),
        ("field", ND_CONFIG, ["beam"], "sgima"),
        ("profile", ND_CONFIG, ["beam", "kind"], "method"),
        ("field", FINITE_CONFIG, ["beam", "kind"], "sigma"),
        ("charge", FINITE_CONFIG, ["beam"], "w0"),
        ("charge", FINITE_CONFIG, [], "z"),
    ], ids=["grid", "top-level", "beam", "nondiffractive-kind", "finite-kind", "charge-beam",
            "charge-top-level"])
    def test_unknown_key_named(self, command, base, path, key, capsys, monkeypatch):
        config = json.loads(json.dumps(base))
        target = config
        for step in path:
            target = target[step]
        target[key] = 8 if key == "nphi" else "json"
        code, out, err = run_cli([command], config, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert "unknown config field '" + ".".join(path + [key]) + "'" in err

    def test_key_of_another_command_is_known(self, capsys, monkeypatch):
        # one config serves field and charge: charge does not read grid or
        # outputs, but field does
        config = {"beam": FINITE_CONFIG["beam"], "grid": FINITE_CONFIG["grid"],
                  "outputs": ["density"]}
        code, out, _ = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["q_boundary"] == pytest.approx(-1.0, abs=2e-3)

    def test_unknown_tolerance_key(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["tolerances"] = {"bogus": 1}
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("command,tolerances", [
        ("field", {"charge_n_r": 5, "charge_r_max": -1}),
        ("profile", {"charge_n_r": 128}),
        ("charge", {"profile_rel_tol": 1e-3}),
    ])
    def test_tolerance_key_of_another_command(self, command, tolerances, capsys, monkeypatch):
        # field and profile read only the profile_* keys and charge only the
        # charge_* keys; a key the command would ignore is an error, not a no-op
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["grid"]["n_phi"] = 1
        config["tolerances"] = tolerances
        code, _, err = run_cli([command], config, capsys, monkeypatch)
        assert code == 2
        assert all(key in err for key in tolerances)
        assert "Traceback" not in err

    def test_unknown_output_group(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["outputs"] = ["fields"]
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("outputs", [[["density"]], [{"density": True}], [1], "density"])
    def test_malformed_outputs_named(self, outputs, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["outputs"] = outputs
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "'outputs'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,section,field,value", [
        ("field", "grid", "z_values", [float("inf")]),
        ("field", "grid", "r_max", float("inf")),
        ("field", "tolerances", "profile_abs_tol", "tight"),
        ("charge", "tolerances", "charge_n_r", 10),
        # n_r goes to the charge routes as given, and a null once skipped the integral
        ("charge", "tolerances", "charge_n_r", None),
        ("charge", "tolerances", "charge_n_r", True),
        ("charge", "tolerances", "charge_n_r", 100.5),
        ("charge", "tolerances", "charge_n_r", "128"),
        # a grid of n_r + 1 radii this large raised numpy's memory error with a traceback
        ("charge", "tolerances", "charge_n_r", 10 ** 12),
        ("charge", "tolerances", "charge_r_max", 1.0),
        ("charge", "tolerances", "charge_r_max", "far"),
        # JSON booleans are ints to Python, and True == 1
        ("field", "grid", "n_r", True),
        ("field", "grid", "n_phi", True),
        ("field", "beam", "sigma", True),
    ])
    def test_bad_value_named(self, command, section, field, value, capsys, monkeypatch):
        # json.dumps writes inf as Infinity, which json.loads reads back
        config = json.loads(json.dumps(FINITE_CONFIG))
        config.setdefault(section, {})[field] = value
        code, _, err = run_cli([command], config, capsys, monkeypatch)
        assert code == 2
        assert f"{section}.{field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("beam,message", [
        ({"configuration": "azimuthal", "kind": {"type": "finite", "w0": 1.0}},
         "the charge is defined for finite radial"),
        (ND_CONFIG["beam"], "the charge is defined for finite radial"),
        # the band cut at kappa = k truncates the spectrum: this printed
        # q_boundary = -6.6e-5 next to q_formula = -1 and exited 0
        ({"k": 1e-3, "kind": {"type": "finite", "w0": 1.0}}, "the charge requires k * w0 >= 10"),
    ], ids=["azimuthal", "nondiffractive", "k-w0-1e-3"])
    def test_charge_beam_named(self, beam, message, capsys, monkeypatch):
        config = {"beam": dict(FINITE_CONFIG["beam"], **beam)}
        code, out, err = run_cli(["charge"], config, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert "config field 'beam'" in err and message in err
        # the CLI calls full_charge_report, but its users never did
        assert "full_charge_report" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("beam,field", [
        # w0^2 overflows in the Gaussian spectrum
        ({"k": 100.0, "kind": {"type": "finite", "w0": 1e200}}, "beam.kind.w0"),
        # w0^2 underflows to 0, and the paraxial profile divides by it
        ({"k": 1e200, "kind": {"type": "finite", "w0": 1e-190, "method": "paraxial"}},
         "beam.kind.w0"),
        # k^2 overflows in k_z
        ({"k": 1e200, "kind": {"type": "nondiffractive", "kappa": 1e199}}, "k must be"),
        # k^2 underflows to 0, and the guard panels cast NaN to int
        ({"k": 1e-300, "kind": {"type": "finite", "w0": 1.0}}, "k must be"),
    ], ids=["w0-1e200", "paraxial-w0-1e-190", "nondiffractive-k-1e200", "k-1e-300"])
    def test_extreme_beam_parameters_named(self, beam, field, capsys, monkeypatch):
        # finite values whose squares leave the float range are usage errors,
        # not tracebacks or silent rows
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["beam"].update(beam)
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k,w0", [(1e-151, 1e153), (1e154, 1e-153)],
                             ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command", [["field"], ["charge"]])
    def test_paraxial_waist_cube_named(self, command, k, w0, capsys, monkeypatch):
        # w0^2 and k w0 are fine, but 2 w0^3 of the paraxial profile overflows, which
        # was once blamed on the plane z = 0 (--z or grid.z_values), or underflows
        # to 0, which printed NaN lower amplitudes with exit 0
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["beam"].update(k=k, kind={"type": "finite", "w0": w0, "method": "paraxial"})
        if command[0] == "charge":
            del config["grid"]
        code, out, err = run_cli(command, config, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert "2 w0^3" in err
        assert "--z" not in err and "z_values" not in err and "z = " not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("z_args", [["--z", "nan"], ["--z", "inf"], ["--z=-inf"]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_z_named(self, z_args, capsys, monkeypatch):
        code, _, err = run_cli(["charge"] + z_args, FINITE_CONFIG, capsys, monkeypatch)
        assert code == 2
        assert "--z" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,kind,z,field", [
        # k_z z overflows in the non-diffractive carrier
        (["field"], {"type": "nondiffractive", "kappa": 1.0}, 1e307, "grid.z_values"),
        # w^2 sqrt(w^2) overflows in the paraxial closed form
        (["field"], {"type": "finite", "w0": 1.0, "method": "paraxial"}, 1e306, "grid.z_values"),
        (["profile"], {"type": "finite", "w0": 1.0, "method": "paraxial"}, 1e306, "grid.z_values"),
        # k z overflows in the paraxial carrier
        (["charge", "--z", "1e308"], {"type": "finite", "w0": 1.0, "method": "paraxial"}, None,
         "--z"),
    ], ids=["field-nondiffractive", "field-paraxial", "profile-paraxial", "charge-paraxial"])
    def test_overflowing_plane_named(self, command, kind, z, field, capsys, monkeypatch):
        # the parent printed NaN rows and exited 0, or blamed vanishing components
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["beam"]["kind"] = kind
        config["grid"].update(n_phi=1, z_values=[0.0, z])
        if command[0] == "charge":
            del config["grid"]
        code, out, err = run_cli(command, config, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert field in err and "not finite at z = " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,kind,r_max,field", [
        # r^2/(4 w^2) overflows in the paraxial closed form
        (["field"], {"type": "finite", "w0": 1.0, "method": "paraxial"}, 1e200, "grid.r_max"),
        (["profile"], {"type": "finite", "w0": 1.0, "method": "paraxial"}, 1e200, "grid.r_max"),
        # kappa r overflows in the Bessel argument
        (["field"], {"type": "nondiffractive", "kappa": 90.0}, 1e307, "grid.r_max"),
        (["charge"], {"type": "finite", "w0": 1.0, "method": "paraxial"}, 1e200,
         "tolerances.charge_r_max"),
        # kappa_cut r overflows in the spectral integrand's Bessel argument
        (["field"], {"type": "finite", "w0": 1.0, "method": "quadrature"}, 1e308, "grid.r_max"),
        (["profile"], {"type": "finite", "w0": 1.0, "method": "quadrature"}, 1e308, "grid.r_max"),
        (["charge"], {"type": "finite", "w0": 1.0, "method": "quadrature"}, 1e308,
         "tolerances.charge_r_max"),
    ], ids=["field-paraxial", "profile-paraxial", "field-nondiffractive", "charge-paraxial",
            "field-quadrature", "profile-quadrature", "charge-quadrature"])
    def test_overflowing_radius_named(self, command, kind, r_max, field, capsys, monkeypatch):
        # unnamed, this was a ValueError traceback from the Bessel kernels
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["beam"]["kind"] = kind
        config["grid"].update(n_r=3, n_phi=1, r_max=r_max)
        if command[0] == "charge":
            del config["grid"]
            config["tolerances"] = {"charge_r_max": r_max}
        code, out, err = run_cli(command, config, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert field in err and "not finite at r = " in err
        assert "Traceback" not in err

    def test_missing_config_file(self, capsys):
        code = main(["field", "--config", "/nonexistent/path.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "config" in err


def _fail_second_plane(monkeypatch):
    """Make the second call of the CLI's evaluate raise, as a non-converged plane would."""
    from spinbeam.beams import evaluate as real
    from spinbeam.errors import ConvergenceError

    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ConvergenceError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr("spinbeam.cli.evaluate", flaky)


class TestRowLevelFailures:
    # the spinors of a z plane come from one evaluation, so a failure takes
    # out the whole plane: here the second one
    def test_failed_rows_emit_nulls_and_exit_one(self, capsys, monkeypatch):
        _fail_second_plane(monkeypatch)
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["grid"] = {"r_min": 0.2, "r_max": 2.0, "n_r": 2, "n_phi": 2,
                          "z_values": [0.0, 1.0]}
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 1
        assert "4 of 8 rows failed" in err
        header, rows = parse_csv(out)
        assert len(rows) == 8
        for good in rows[:4]:
            assert all(cell != "" for cell in good)
        for good, bad in zip(rows[:4], rows[4:]):
            assert bad[:3] == good[:2] + ["1"]
            assert all(cell == "" for cell in bad[3:])

    def test_failed_profile_plane(self, capsys, monkeypatch):
        _fail_second_plane(monkeypatch)
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["grid"] = {"r_min": 0.2, "r_max": 2.0, "n_r": 2, "n_phi": 1,
                          "z_values": [0.0, 1.0]}
        code, out, err = run_cli(["profile"], config, capsys, monkeypatch)
        assert code == 1
        assert "2 of 4 rows failed" in err
        header, rows = parse_csv(out)
        assert len(rows) == 4
        for good in rows[:2]:
            assert all(cell != "" for cell in good)
        for good, bad in zip(rows[:2], rows[2:]):
            assert bad[0] == good[0]
            assert all(cell == "" for cell in bad[1:])

    def test_far_plane_guard_panels_stay_finite(self, capsys, monkeypatch):
        # kappa_cut (r + |z| kappa_cut / k_z) overflows at z = 1e301: the count
        # of guard panels clips to its cap, without an overflow warning, and
        # the plane's rows fail like any other unresolved plane
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["beam"]["kind"] = {"type": "finite", "w0": 1e-4, "method": "quadrature"}
        config["grid"] = {"r_min": 0.0, "r_max": 1e-4, "n_r": 2, "n_phi": 1, "z_values": [1e301]}
        code, out, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 1
        assert "2 of 2 rows failed" in err
        header, rows = parse_csv(out)
        assert len(rows) == 2
        assert all(cell == "" for row in rows for cell in row[3:])


TWO_PLANES = {"r_min": 0.0, "r_max": 2.0, "n_r": 3, "n_phi": 2, "z_values": [0.0, 1.0]}


def _csv_and_json_rows(argv, config, capsys, monkeypatch, fail_second_plane=False):
    """Run a command in both formats; check that every CSV cell parses to the
    JSON value (a blank cell is null) and return the exit code and JSON rows."""
    runs = []
    for fmt in ("csv", "json"):
        if fail_second_plane:
            _fail_second_plane(monkeypatch)
        runs.append(run_cli(argv + ["--format", fmt], config, capsys, monkeypatch))
    (code, csv_out, csv_err), (json_code, json_out, json_err) = runs
    assert (code, csv_err) == (json_code, json_err)
    header, csv_rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert header == payload["columns"]
    assert len(csv_rows) == len(payload["rows"])
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert len(csv_row) == len(json_row) == len(header)
        for cell, value in zip(csv_row, json_row):
            assert (cell == "") == (value is None)
            if value is not None:
                assert float(cell) == value
    return code, payload["rows"]


class TestOneWriter:
    """field, profile and figure write the same rows as CSV and as JSON."""

    def test_unselected_group_is_null(self, capsys, monkeypatch):
        config = {"beam": ND_CONFIG["beam"], "grid": TWO_PLANES, "outputs": ["density"]}
        code, rows = _csv_and_json_rows(["field"], config, capsys, monkeypatch)
        assert code == 0
        assert len(rows) == 12
        for row in rows:
            assert row[3:7] == [None] * 4 and row[8:] == [None] * 5
            assert row[7] is not None

    def test_axis_row(self, capsys, monkeypatch):
        config = {"beam": ND_CONFIG["beam"], "grid": TWO_PLANES}
        code, rows = _csv_and_json_rows(["field"], config, capsys, monkeypatch)
        assert code == 0
        axis = [row for row in rows if row[0] == 0.0]
        assert len(axis) == 4
        for row in axis:
            assert row[8:10] == [0.0, 0.0]
            assert None not in row

    @pytest.mark.parametrize("command,n_phi", [("field", 2), ("profile", 1)])
    def test_vanishing_density_row(self, command, n_phi, capsys, monkeypatch):
        # for j = 3/2 both components vanish on the axis
        config = {"beam": dict(ND_CONFIG["beam"], j="3/2"), "grid": dict(TWO_PLANES, n_phi=n_phi)}
        code, rows = _csv_and_json_rows([command], config, capsys, monkeypatch)
        assert code == 0
        axis = [row for row in rows if row[0] == 0.0]
        assert len(axis) == 2 * n_phi
        for row in axis:
            if command == "field":
                assert row[7] == 0.0 and row[8:] == [None] * 5
            else:
                # profile reports the longitudinal limit there
                assert row == [0.0, 0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("command,n_phi", [("field", 2), ("profile", 1)])
    def test_failed_plane(self, command, n_phi, capsys, monkeypatch):
        config = {"beam": ND_CONFIG["beam"], "grid": dict(TWO_PLANES, n_phi=n_phi)}
        code, rows = _csv_and_json_rows([command], config, capsys, monkeypatch,
                                        fail_second_plane=True)
        assert code == 1
        per_plane = 3 * n_phi
        assert len(rows) == 2 * per_plane
        kept = 3 if command == "field" else 1
        assert all(None not in row for row in rows[:per_plane])
        assert all(row[kept:] == [None] * (len(row) - kept) for row in rows[per_plane:])

    @pytest.mark.parametrize("which,variant", [("fig1", "a"), ("fig2", "b")])
    def test_figure(self, which, variant, capsys, monkeypatch):
        code, rows = _csv_and_json_rows(["figure", which, variant], None, capsys, monkeypatch)
        assert code == 0
        assert len(rows) == 1 + 8 * 16
        assert rows[0][:2] == [0.0, 0.0]


def _counting_integrate(monkeypatch):
    """Wrap the spectral quadrature's integrate; return the list of its tolerances."""
    from spinbeam import beams

    real = beams.integrate
    seen = []

    def counted(*args, **kwargs):
        seen.append((kwargs["abs_tol"], kwargs["rel_tol"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(beams, "integrate", counted)
    return seen


QUADRATURE_BEAM = {
    "configuration": "azimuthal",
    "j": "-3/2",
    "sigma": -1,
    "k": 20.0,
    "kind": {"type": "finite", "w0": 1.0, "method": "quadrature"},
}


class TestRingEvaluation:
    """The plane path agrees with the per-point path, with one evaluation of
    the radial amplitudes per (r, z) and one evaluate call per z plane."""

    @staticmethod
    def per_point_row(spec, r, phi, z, tol):
        psi = evaluate(spec, r, phi, z, **tol)
        row = [r, phi, z, psi.up.real, psi.up.imag, psi.down.real, psi.down.imag,
               probability_density(psi)]
        try:
            s = spin_polarization(psi, phi)
        except UndefinedPolarizationError:
            return row + [None] * 5
        s_r, s_phi = (0.0, 0.0) if r == 0.0 else (s.s_r, s.s_phi)
        return row + [s_r, s_phi, s.s_z, s.s_x, s.s_y]

    # a finite quadrature plane is one vector integral, a Bessel plane none
    @pytest.mark.parametrize("beam,integrals_per_plane",
                             [(QUADRATURE_BEAM, 1), (ND_CONFIG["beam"], 0)],
                             ids=["finite-quadrature", "nondiffractive"])
    def test_field_equals_per_point_evaluation(self, beam, integrals_per_plane,
                                               capsys, monkeypatch):
        config = {
            "beam": beam,
            "grid": {"r_min": 0.0, "r_max": 2.0, "n_r": 3, "n_phi": 5,
                     "z_values": [-3.0, 2.5]},
            "format": "json",
            "tolerances": {"profile_abs_tol": 1e-10, "profile_rel_tol": 1e-8},
        }
        seen = _counting_integrate(monkeypatch)
        code, out, _ = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 0
        # one evaluation per z plane, none per ring or azimuth
        assert len(seen) == integrals_per_plane * 2
        spec = parse_beam(beam)
        tol = {"abs_tol": 1e-10, "rel_tol": 1e-8}
        rows = json.loads(out)["rows"]
        assert len(rows) == 3 * 5 * 2
        for row in rows:
            want = self.per_point_row(spec, row[0], row[1], row[2], tol)
            assert row[:3] == want[:3]
            rho = want[7]
            if integrals_per_plane:
                # the radii of a plane share one panel tree, so two runs differ
                # by up to twice the requested tolerance, and rho and s
                # inherit that through their formulas, as in the bench gate
                root = math.sqrt(rho)
                e = 2.0 * (1e-10 / math.sqrt(4.0 * math.pi) + 1e-8 * root) + 1e-15
                s_bound = 4.0 * e / root if root > 0.0 else 2.0
                bounds = [e] * 4 + [3.0 * root * e + e * e] + [s_bound] * 5
            else:
                # a batch rounds differently from one point: the Miller start
                # of bessel_j follows the batch's largest argument
                bounds = [1e-14 * s for s in [math.sqrt(rho)] * 4 + [rho] + [1.0] * 5]
            for got, ref, bound in zip(row[3:], want[3:], bounds):
                assert (got is None) == (ref is None)
                if ref is not None:
                    assert abs(got - ref) <= bound

    def test_figure_equals_closed_form_per_point(self, capsys, monkeypatch):
        code, out, _ = run_cli(["figure", "fig2", "a", "--format", "json"],
                               None, capsys, monkeypatch)
        assert code == 0
        spec = BeamSpec(Configuration.RADIAL, HalfInt(1), 1, 100.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 + 8 * 16
        for r, phi, s_x, s_y, s_z in rows:
            s = PolarizationVector.from_cylindrical(*closed_form_texture(spec, r, 0.0), phi)
            assert [s_x, s_y, s_z] == [s.s_x, s.s_y, s.s_z]

    def test_profile_uses_config_tolerances(self, capsys, monkeypatch):
        config = {
            "beam": dict(QUADRATURE_BEAM, configuration="radial", j="1/2", sigma=1),
            "grid": {"r_min": 0.0, "r_max": 2.0, "n_r": 4, "n_phi": 1, "z_values": [0.0]},
            "tolerances": {"profile_abs_tol": 1e-8, "profile_rel_tol": 1e-6},
        }
        seen = _counting_integrate(monkeypatch)
        code, out, _ = run_cli(["profile"], config, capsys, monkeypatch)
        assert code == 0
        # one vector integral for the spinor at 4 radii; s comes from the same spinor.
        # The integral takes 15/16 of abs_tol, and the band's tail the other 1/16
        assert len(seen) == 1
        assert set(seen) == {(15.0 / 16.0 * 1e-8, 1e-6)}


def _counting(monkeypatch, target):
    """Wrap the function at ``target`` (a dotted module attribute); return its call list."""
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    real = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOneCallPerPlane:
    @pytest.mark.parametrize("command,n_phi", [("field", 4), ("profile", 1)])
    def test_evaluate_once_per_z(self, command, n_phi, capsys, monkeypatch):
        calls = _counting(monkeypatch, "spinbeam.cli.evaluate")
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["grid"] = {"r_min": 0.0, "r_max": 3.0, "n_r": 6, "n_phi": n_phi,
                          "z_values": [-20.0, 0.0, 35.0]}
        code, out, _ = run_cli([command], config, capsys, monkeypatch)
        assert code == 0
        assert len(calls) == 3
        assert len(parse_csv(out)[1]) == 3 * 6 * n_phi

    @pytest.mark.parametrize("command,n_phi", [("field", 4), ("profile", 1)])
    def test_polarization_once_per_z(self, command, n_phi, capsys, monkeypatch):
        calls = _counting(monkeypatch, "spinbeam.cli.spin_polarization")
        config = json.loads(json.dumps(FINITE_CONFIG))
        config["grid"] = {"r_min": 0.0, "r_max": 3.0, "n_r": 6, "n_phi": n_phi,
                          "z_values": [-20.0, 0.0, 35.0]}
        code, _, _ = run_cli([command], config, capsys, monkeypatch)
        assert code == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("command,n_phi", [("field", 3), ("profile", 1)])
    def test_vanishing_density_blanks_its_rows_only(self, command, n_phi, capsys, monkeypatch):
        # for j = 3/2 both components vanish on the axis, so the axis rows
        # have no polarization (profile reports the longitudinal limit there)
        config = json.loads(json.dumps(ND_CONFIG))
        config["beam"]["j"] = "3/2"
        config["grid"] = {"r_min": 0.0, "r_max": 2.0, "n_r": 3, "n_phi": n_phi}
        code, out, _ = run_cli([command], config, capsys, monkeypatch)
        assert code == 0
        header, rows = parse_csv(out)
        s_cells = [header.index(c) for c in ("s_r", "s_phi", "s_z")]
        for row in rows:
            on_axis = float(row[0]) == 0.0
            assert (float(row[header.index("rho")]) == 0.0) == on_axis
            if command == "field" and on_axis:
                assert all(row[c] == "" for c in s_cells)
            else:
                assert all(row[c] != "" for c in s_cells)
        assert sum(float(row[0]) == 0.0 for row in rows) == n_phi

    def test_figure_one_amplitude_call(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, "spinbeam.polarization.radial_amplitudes")
        code, _, _ = run_cli(["figure", "fig2", "b"], None, capsys, monkeypatch)
        assert code == 0
        assert len(calls) == 1


def _reference_csv(payload):
    """The CSV text of a JSON table, formatted one cell at a time."""
    lines = [",".join(payload["columns"])]
    lines += [",".join("" if v is None else f"{v:.17g}" for v in row) for row in payload["rows"]]
    return "\n".join(lines) + "\n"


class TestCsvText:
    """The CSV text equals a per-cell reference built from the JSON rows of the
    same request, also where the rings or planes of a table differ in their
    blank cells."""

    @pytest.mark.parametrize("command,j,outputs,fail_second_plane", [
        ("field", "1/2", None, True),
        ("profile", "1/2", None, True),
        ("field", "1/2", ["density"], False),
        ("field", "1/2", ["wavefunction", "polarization"], False),
        # for j = 3/2 the axis rows have no polarization in field
        ("field", "3/2", None, False),
        ("profile", "3/2", None, False),
        ("field", "3/2", ["density", "polarization"], True),
    ])
    def test_grid_commands(self, command, j, outputs, fail_second_plane, capsys, monkeypatch):
        config = {"beam": dict(ND_CONFIG["beam"], j=j),
                  "grid": dict(TWO_PLANES, n_phi=2 if command == "field" else 1)}
        if outputs is not None:
            config["outputs"] = outputs
        outs = []
        for fmt in ("csv", "json"):
            if fail_second_plane:
                _fail_second_plane(monkeypatch)
            outs.append(run_cli([command, "--format", fmt], config, capsys, monkeypatch))
        (csv_code, csv_out, csv_err), (json_code, json_out, json_err) = outs
        assert (csv_code, csv_err) == (json_code, json_err)
        assert csv_code == (1 if fail_second_plane else 0)
        assert csv_out == _reference_csv(json.loads(json_out))

    def test_empty_table_is_header_only(self, capsys, monkeypatch):
        config = {"beam": ND_CONFIG["beam"], "grid": dict(TWO_PLANES, z_values=[])}
        _, out, _ = run_cli(["field"], config, capsys, monkeypatch)
        assert out == ",".join(FIELD_COLUMNS) + "\n"

    def test_figure(self, capsys, monkeypatch):
        _, csv_out, _ = run_cli(["figure", "fig2", "a"], None, capsys, monkeypatch)
        _, json_out, _ = run_cli(["figure", "fig2", "a", "--format", "json"],
                                 None, capsys, monkeypatch)
        assert csv_out == _reference_csv(json.loads(json_out))


RING_CELLS = ("r", "z", "rho", "s_r", "s_phi", "s_z")
RING_BEAMS = [
    dict(ND_CONFIG["beam"], configuration="azimuthal", j="-3/2", sigma=-1),
    dict(FINITE_CONFIG["beam"], j="5/2", sigma=-1),
    QUADRATURE_BEAM,
]
RING_GRID = {"r_min": 0.0, "r_max": 2.0, "n_r": 5, "n_phi": 7, "z_values": [-0.5, 1.5]}


def _field_cells(config, fmt, capsys, monkeypatch):
    """The header and the rows of a field request as text, one string per cell."""
    code, out, _ = run_cli(["field", "--format", fmt], config, capsys, monkeypatch)
    assert code == 0
    if fmt == "csv":
        return parse_csv(out)
    payload = json.loads(out)
    return payload["columns"], [[json.dumps(v) for v in row] for row in payload["rows"]]


class TestRingTable:
    """r, rho and the cylindrical s are ring cells: each ring prints its phi = 0
    values at every azimuth, and the phi = 0 rows and every per-point cell are
    those of a reduction of the same plane one point at a time."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("beam", RING_BEAMS, ids=["nondiffractive", "paraxial", "quadrature"])
    def test_ring_cells_equal_across_azimuths(self, beam, fmt, capsys, monkeypatch):
        header, rows = _field_cells({"beam": beam, "grid": RING_GRID}, fmt, capsys, monkeypatch)
        ring = [header.index(c) for c in RING_CELLS]
        n_phi = RING_GRID["n_phi"]
        assert len(rows) == 2 * 5 * n_phi
        for start in range(0, len(rows), n_phi):
            cells = {tuple(row[c] for c in ring) for row in rows[start:start + n_phi]}
            assert len(cells) == 1

    @pytest.mark.parametrize("beam", RING_BEAMS, ids=["nondiffractive", "paraxial", "quadrature"])
    def test_phi0_rows_and_point_cells_match_per_point_reduction(self, beam, capsys,
                                                                 monkeypatch):
        header, rows = _field_cells({"beam": beam, "grid": RING_GRID}, "csv", capsys, monkeypatch)
        spec = parse_beam(beam)
        rs, phis, zs = parse_grid(RING_GRID)
        point = [header.index(c) for c in ("re_up", "im_up", "re_dn", "im_dn", "s_x", "s_y")]
        r, phi = np.repeat(rs, len(phis)), np.tile(phis, len(rs))
        want = []
        for z in zs:
            # one evaluation of the plane, then the density and s of each
            # point from the rows of that plane
            psi = evaluate(spec, np.array(rs)[:, None], np.array(phis)[None, :], z)
            up, down = psi.up.ravel(), psi.down.ravel()
            rho = probability_density(Spinor(up, down))
            defined = rho > _RHO_FLOOR
            s = spin_polarization(Spinor(up[defined], down[defined]), phi[defined])
            s_rows = iter(zip(s.s_r, s.s_phi, s.s_z, s.s_x, s.s_y))
            for k in range(r.size):
                cells = [r[k], phi[k], z, up[k].real, up[k].imag, down[k].real, down[k].imag,
                         rho[k]]
                if defined[k]:
                    s_r, s_phi, s_z, s_x, s_y = next(s_rows)
                    if r[k] == 0.0:
                        s_r, s_phi = 0.0, 0.0
                    cells += [s_r, s_phi, s_z, s_x, s_y]
                want.append([f"{v:.17g}" for v in cells] + [""] * (len(header) - len(cells)))
        assert len(rows) == len(want)
        for k, (row, ref) in enumerate(zip(rows, want)):
            if k % len(phis) == 0:
                assert row == ref
            else:
                assert [row[c] for c in point] == [ref[c] for c in point]


class TestRepeatedCalls:
    """One process serves many requests: a usage error leaves nothing behind."""

    @pytest.mark.parametrize("argv,bad_config", [
        (["field", "--bogus"], False),
        (["field"], True),
        (["field", "--help"], False),
    ], ids=["unknown-flag", "bad-config-field", "help"])
    def test_error_then_valid_call(self, argv, bad_config, capsys, monkeypatch):
        valid = {"beam": ND_CONFIG["beam"], "grid": TWO_PLANES}
        config = dict(valid, outputs=["fields"]) if bad_config else valid
        first = run_cli(["field"], valid, capsys, monkeypatch)
        error = run_cli(argv, config, capsys, monkeypatch)
        assert error[0] == (0 if "--help" in argv else 2)
        assert run_cli(["field"], valid, capsys, monkeypatch) == first
        assert run_cli(argv, config, capsys, monkeypatch) == error
        assert first[0] == 0


class TestOneShotProcess:
    """``python -m spinbeam`` (``__main__``, ``entry`` and the parser built at
    import) prints what ``main`` prints in-process."""

    def test_module_run_matches_main(self, capsys, monkeypatch):
        src = str(Path(spinbeam.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        config = json.dumps({"beam": FINITE_CONFIG["beam"], "grid": TWO_PLANES})
        for argv, stdin in ((["figure", "fig1", "a"], ""), (["field"], config)):
            proc = subprocess.run([sys.executable, "-m", "spinbeam", *argv], input=stdin.encode(),
                                  capture_output=True, env=env, timeout=120)
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(argv)
            captured = capsys.readouterr()
            assert (proc.returncode, proc.stderr.decode()) == (code, captured.err) == (0, "")
            assert proc.stdout == captured.out.encode()
