"""Command-line surface: formats, determinism, exit codes."""

import importlib
import io
import json
import math

import pytest

from spinbeam import (
    BeamSpec,
    Configuration,
    CylPoint,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    HalfInt,
    NonDiffractive,
    closed_form_polarization,
    evaluate_finite,
    evaluate_nondiffractive,
    probability_density,
    spin_polarization,
)
from spinbeam.cli import FIELD_COLUMNS, main, parse_beam
from spinbeam.errors import UndefinedPolarizationError

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

    def test_unknown_tolerance_key(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["tolerances"] = {"bogus": 1}
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2
        assert "bogus" in err

    def test_unknown_output_group(self, capsys, monkeypatch):
        config = json.loads(json.dumps(ND_CONFIG))
        config["outputs"] = ["fields"]
        code, _, err = run_cli(["field"], config, capsys, monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("command,section,field,value", [
        ("field", "grid", "z_values", [float("inf")]),
        ("field", "grid", "r_max", float("inf")),
        ("field", "tolerances", "profile_abs_tol", "tight"),
        ("charge", "tolerances", "charge_n_r", 10),
        ("charge", "tolerances", "charge_r_max", 1.0),
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

    @pytest.mark.parametrize("z_args", [["--z", "nan"], ["--z", "inf"], ["--z=-inf"]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_z_named(self, z_args, capsys, monkeypatch):
        code, _, err = run_cli(["charge"] + z_args, FINITE_CONFIG, capsys, monkeypatch)
        assert code == 2
        assert "--z" in err
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
        pt = CylPoint(r, phi, z)
        if isinstance(spec.kind, NonDiffractive):
            psi = evaluate_nondiffractive(spec, pt)
        else:
            psi = evaluate_finite(spec, pt, **tol)
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
            s = closed_form_polarization(spec, CylPoint(r, phi, 0.0))
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
        # one vector integral for the spinor at 4 radii; s comes from the same spinor
        assert len(seen) == 1
        assert set(seen) == {(1e-8, 1e-6)}


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
