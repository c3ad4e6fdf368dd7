"""Command-line interface.

Subcommands: ``field`` (grid sampling of the spinor, density and
polarization), ``profile`` (radial polarization cuts), ``charge``
(skyrmion charge report), ``figure`` (plot-ready vector-field data for
the two bundled texture datasets) and ``verify`` (built-in check suite).
Output is CSV or JSON on stdout or ``--out``; beam and grid parameters
come from a JSON config (file or stdin) so exact half-integer j survives
the trip.  Exit codes: 0 success, 1 evaluation/check failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .beams import (
    BeamSpec,
    Configuration,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    NonDiffractive,
    Spinor,
    evaluate,
)
from .errors import SpinBeamError
from .polarization import (
    _RHO_FLOOR,
    PolarizationVector,
    closed_form_texture,
    probability_density,
    spin_polarization,
)
from .specfun import HalfInt
from .topology import full_charge_report
from .verify import format_report, run_suite

FIELD_COLUMNS = [
    "r", "phi", "z", "re_up", "im_up", "re_dn", "im_dn",
    "rho", "s_r", "s_phi", "s_z", "s_x", "s_y",
]
PROFILE_COLUMNS = ["r", "s_r", "s_phi", "s_z", "rho"]
FIGURE_COLUMNS = ["r", "phi", "s_x", "s_y", "s_z"]

_OUTPUT_GROUPS = {"wavefunction", "density", "polarization"}

_FIGURE_VARIANTS = {
    ("fig1", "a"): (HalfInt(1), 1),
    ("fig1", "b"): (HalfInt(1), -1),
    ("fig1", "c"): (HalfInt(-1), 1),
    ("fig1", "d"): (HalfInt(-1), -1),
    ("fig2", "a"): (HalfInt(1), 1),
    ("fig2", "b"): (HalfInt(1), -1),
}


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _require(obj: dict, field: str, context: str):
    if field not in obj:
        raise ConfigError(f"missing config field '{context}{field}'")
    return obj[field]


def _as_number(value, field: str) -> float:
    # json reads Infinity and NaN; neither passes the magnitude test
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config field '{field}' must be a finite number")
    return float(value)


def parse_beam(obj) -> BeamSpec:
    if not isinstance(obj, dict):
        raise ConfigError("config field 'beam' must be an object")
    conf_text = _require(obj, "configuration", "beam.")
    try:
        configuration = Configuration(conf_text)
    except ValueError:
        raise ConfigError(
            f"config field 'beam.configuration' must be 'radial' or 'azimuthal', got {conf_text!r}"
        ) from None
    j_text = _require(obj, "j", "beam.")
    try:
        j = HalfInt.parse(str(j_text))
    except ValueError as exc:
        raise ConfigError(f"config field 'beam.j': {exc}") from None
    sigma = _require(obj, "sigma", "beam.")
    if isinstance(sigma, bool) or sigma not in (1, -1):
        raise ConfigError(f"config field 'beam.sigma' must be 1 or -1, got {sigma!r}")
    k = _as_number(_require(obj, "k", "beam."), "beam.k")
    kind_obj = _require(obj, "kind", "beam.")
    if not isinstance(kind_obj, dict):
        raise ConfigError("config field 'beam.kind' must be an object")
    kind_type = _require(kind_obj, "type", "beam.kind.")
    if kind_type == "nondiffractive":
        kappa = _as_number(_require(kind_obj, "kappa", "beam.kind."), "beam.kind.kappa")
        kind: NonDiffractive | Finite = NonDiffractive(kappa)
    elif kind_type == "finite":
        w0 = _as_number(_require(kind_obj, "w0", "beam.kind."), "beam.kind.w0")
        method_text = kind_obj.get("method", "quadrature")
        try:
            method = FiniteMethod(method_text)
        except ValueError:
            raise ConfigError(
                "config field 'beam.kind.method' must be 'paraxial' or 'quadrature', "
                f"got {method_text!r}"
            ) from None
        try:
            kind = Finite(GaussianSpectrum(w0), method)
        except ValueError as exc:
            raise ConfigError(f"config field 'beam.kind.w0': {exc}") from None
    else:
        raise ConfigError(
            f"config field 'beam.kind.type' must be 'nondiffractive' or 'finite', got {kind_type!r}"
        )
    try:
        return BeamSpec(configuration, j, int(sigma), k, kind)
    except ValueError as exc:
        raise ConfigError(f"invalid beam: {exc}") from None


def parse_grid(obj) -> tuple[list[float], list[float], list[float]]:
    if not isinstance(obj, dict):
        raise ConfigError("config field 'grid' must be an object")
    r_min = _as_number(obj.get("r_min", 0.0), "grid.r_min")
    r_max = _as_number(_require(obj, "r_max", "grid."), "grid.r_max")
    n_r = obj.get("n_r", 1)
    n_phi = obj.get("n_phi", 1)
    z_values = obj.get("z_values", [0.0])
    if isinstance(n_r, bool) or not isinstance(n_r, int) or n_r < 1:
        raise ConfigError("config field 'grid.n_r' must be an integer >= 1")
    if isinstance(n_phi, bool) or not isinstance(n_phi, int) or n_phi < 1:
        raise ConfigError("config field 'grid.n_phi' must be an integer >= 1")
    if r_min < 0.0 or r_max <= r_min:
        raise ConfigError("config fields 'grid.r_min'/'grid.r_max' need 0 <= r_min < r_max")
    if not isinstance(z_values, list):
        raise ConfigError("config field 'grid.z_values' must be a list")
    # rows are emitted lexicographically in (z, r, phi)
    zs = sorted(_as_number(z, "grid.z_values[]") for z in z_values)
    if n_r == 1:
        rs = [r_min]
    else:
        step = (r_max - r_min) / (n_r - 1)
        rs = [r_min + i * step for i in range(n_r)]
    phis = [2.0 * math.pi * i / n_phi for i in range(n_phi)]
    return rs, phis, zs


def load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None or path == "-":
        text = sys.stdin.read()
        source = "stdin"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        source = path
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config from {source} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _resolve_format(config: dict, args) -> str:
    fmt = config.get("format", "csv")
    if getattr(args, "format", None):
        fmt = args.format
    if fmt not in ("csv", "json"):
        raise ConfigError(f"config field 'format' must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _resolve_outputs(config: dict) -> set[str]:
    outputs = config.get("outputs", sorted(_OUTPUT_GROUPS))
    if not isinstance(outputs, list) or not set(outputs) <= _OUTPUT_GROUPS:
        raise ConfigError(
            "config field 'outputs' must be a list drawn from "
            "['wavefunction', 'density', 'polarization']"
        )
    return set(outputs)


def _tolerances(config: dict) -> dict:
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("config field 'tolerances' must be an object")
    known = {"profile_abs_tol", "profile_rel_tol", "charge_n_r", "charge_r_max"}
    unknown = set(tol) - known
    if unknown:
        raise ConfigError(f"unknown tolerance override(s): {sorted(unknown)}")
    return tol


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(columns: list[str], rows: list[list[float | None]]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_to_json(columns: list[str], rows: list[list[float | None]]) -> str:
    return json.dumps({"columns": columns, "rows": rows}) + "\n"


def _profile_tolerances(tol: dict) -> dict:
    """Keyword arguments carrying the spectral-quadrature tolerance overrides."""
    kwargs = {}
    for field, kwarg in (("profile_abs_tol", "abs_tol"), ("profile_rel_tol", "rel_tol")):
        if field in tol:
            value = _as_number(tol[field], f"tolerances.{field}")
            if not value > 0.0:
                raise ConfigError(f"config field 'tolerances.{field}' must be > 0")
            kwargs[kwarg] = value
    return kwargs


def _plane(spec: BeamSpec, rs: list[float], phis: list[float], z: float, tol_kwargs: dict):
    """Spinor components, densities and the five polarization columns of a z
    plane in (r, phi) row order, as Python lists; one reduction fills the rows
    whose density is above the underflow floor, and the rest are None."""
    psi = evaluate(spec, np.array(rs)[:, None], np.array(phis)[None, :], z, **tol_kwargs)
    up, down = psi.up.ravel(), psi.down.ravel()
    rho = probability_density(Spinor(up, down))
    defined = rho > _RHO_FLOOR
    s = spin_polarization(Spinor(up[defined], down[defined]), np.tile(phis, len(rs))[defined])
    columns = np.full((5, rho.size), None, dtype=object)
    columns[:, defined] = np.array([s.s_r, s.s_phi, s.s_z, s.s_x, s.s_y])
    return up.tolist(), down.tolist(), rho.tolist(), columns.tolist()


def cmd_field(args) -> int:
    config = load_config(args)
    spec = parse_beam(_require(config, "beam", ""))
    rs, phis, zs = parse_grid(_require(config, "grid", ""))
    fmt = _resolve_format(config, args)
    outputs = _resolve_outputs(config)
    tol_kwargs = _profile_tolerances(_tolerances(config))

    rows: list[list[float | None]] = []
    failures = 0
    for z in zs:
        points = list(itertools.product(rs, phis))
        # a plane evaluates or fails as a whole
        try:
            ups, downs, rhos, (s_r, s_phi, s_z, s_x, s_y) = _plane(spec, rs, phis, z, tol_kwargs)
        except SpinBeamError:
            failures += len(points)
            rows.extend([r, phi, z] + [None] * 10 for r, phi in points)
            continue
        for i, (r, phi) in enumerate(points):
            row: list[float | None] = [r, phi, z] + [None] * 10
            if "wavefunction" in outputs:
                row[3:7] = [ups[i].real, ups[i].imag, downs[i].real, downs[i].imag]
            if "density" in outputs:
                row[7] = rhos[i]
            if "polarization" in outputs and s_z[i] is not None:
                if r == 0.0:
                    row[8:13] = [0.0, 0.0, s_z[i], s_x[i], s_y[i]]
                else:
                    row[8:13] = [s_r[i], s_phi[i], s_z[i], s_x[i], s_y[i]]
            rows.append(row)
    text = _rows_to_csv(FIELD_COLUMNS, rows) if fmt == "csv" else _rows_to_json(FIELD_COLUMNS, rows)
    _emit(text, args)
    if failures:
        print(f"field: {failures} of {len(rows)} rows failed to evaluate", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    config = load_config(args)
    spec = parse_beam(_require(config, "beam", ""))
    grid_obj = _require(config, "grid", "")
    rs, phis, zs = parse_grid(grid_obj)
    if len(phis) != 1:
        raise ConfigError("profile requires 'grid.n_phi' == 1")
    fmt = _resolve_format(config, args)
    tol_kwargs = _profile_tolerances(_tolerances(config))
    # the longitudinal limit; for |j| >= 3/2 the spinor vanishes on the axis
    axis = closed_form_texture(spec, 0.0, 0.0)

    rows: list[list[float | None]] = []
    failures = 0
    for z in zs:
        try:
            _, _, rhos, (s_r, s_phi, s_z, _, _) = _plane(spec, rs, phis, z, tol_kwargs)
        except SpinBeamError:
            failures += len(rs)
            rows.extend([r, None, None, None, None] for r in rs)
            continue
        for i, r in enumerate(rs):
            if r == 0.0:
                rows.append([r, *axis, rhos[i]])
            else:
                rows.append([r, s_r[i], s_phi[i], s_z[i], rhos[i]])
    text = (_rows_to_csv(PROFILE_COLUMNS, rows) if fmt == "csv"
            else _rows_to_json(PROFILE_COLUMNS, rows))
    _emit(text, args)
    if failures:
        print(f"profile: {failures} of {len(rows)} rows failed to evaluate", file=sys.stderr)
        return 1
    return 0


def cmd_charge(args) -> int:
    config = load_config(args)
    spec = parse_beam(_require(config, "beam", ""))
    tol = _tolerances(config)
    if not isinstance(spec.kind, Finite) or spec.configuration is not Configuration.RADIAL:
        raise ConfigError(
            "charge is defined for finite radial beams only; "
            "azimuthal and non-diffractive beams are not supported"
        )
    kwargs = {}
    if "charge_n_r" in tol:
        n_r = tol["charge_n_r"]
        if isinstance(n_r, bool) or not isinstance(n_r, int) or n_r < 64:
            raise ConfigError("config field 'tolerances.charge_n_r' must be an integer >= 64")
        kwargs["n_r"] = n_r
    if "charge_r_max" in tol:
        r_max = _as_number(tol["charge_r_max"], "tolerances.charge_r_max")
        if r_max < 10.0 * spec.kind.spectrum.w0:
            raise ConfigError("config field 'tolerances.charge_r_max' must be at least 10 * w0")
        kwargs["r_max"] = r_max
    report = full_charge_report(spec, z=args.z, **kwargs)
    payload = {
        "z": args.z,
        "q_formula": report.q_formula,
        "q_boundary": report.q_boundary,
        "q_integral": report.q_integral,
        "s_z_axis": report.s_z_axis,
        "s_z_infinity": report.s_z_infinity,
        "grid_resolution": report.grid_resolution,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args)
    return 0


def cmd_figure(args) -> int:
    key = (args.which, args.variant)
    if key not in _FIGURE_VARIANTS:
        print(f"figure: no variant '{args.variant}' for {args.which}", file=sys.stderr)
        return 2
    j, sigma = _FIGURE_VARIANTS[key]
    if args.which == "fig1":
        spec = BeamSpec(Configuration.RADIAL, j, sigma, 2.0, NonDiffractive(1.0))
        r_max = 2.4048  # out to the first J_0 zero, where s_z has fully flipped
    else:
        spec = BeamSpec(Configuration.RADIAL, j, sigma, 100.0,
                        Finite(GaussianSpectrum(1.0), FiniteMethod.PARAXIAL_CLOSED_FORM))
        r_max = 3.36
    n_rings, n_phi = 8, 16
    radii = (r_max * np.arange(n_rings + 1) / n_rings).tolist()
    # the cylindrical components do not depend on phi
    texture = zip(radii, *(s.tolist() for s in closed_form_texture(spec, radii, 0.0)))
    rows: list[list[float | None]] = []
    for r, s_r, s_phi, s_z in texture:
        # the axis is one point, each ring n_phi of them
        for kphi in range(n_phi if r > 0.0 else 1):
            phi = 2.0 * math.pi * kphi / n_phi
            v = PolarizationVector.from_cylindrical(s_r, s_phi, s_z, phi)
            rows.append([r, phi, v.s_x, v.s_y, v.s_z])
    fmt = args.format or "csv"
    text = (_rows_to_csv(FIGURE_COLUMNS, rows) if fmt == "csv"
            else _rows_to_json(FIGURE_COLUMNS, rows))
    _emit(text, args)
    return 0


def cmd_verify(args) -> int:
    outcomes = run_suite(args.suite)
    _emit(format_report(outcomes) + "\n", args)
    return 0 if all(oc.passed for oc in outcomes) else 1


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbeam",
        description="Sample spin-polarized beam fields, polarization textures and skyrmion charges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_config: bool):
        if needs_config:
            p.add_argument("--config", help="JSON config path ('-' or omitted reads stdin)")
        p.add_argument("--format", choices=["csv", "json"], help="output format (overrides config)")
        p.add_argument("--out", help="output path (default stdout)")

    p_field = sub.add_parser("field", help="sample wavefunction/density/polarization on a grid")
    add_io(p_field, True)
    p_field.set_defaults(fn=cmd_field)

    p_profile = sub.add_parser("profile", help="radial polarization profile at phi = 0")
    add_io(p_profile, True)
    p_profile.set_defaults(fn=cmd_profile)

    p_charge = sub.add_parser("charge", help="skyrmion charge report (finite radial beams)")
    add_io(p_charge, True)
    p_charge.add_argument("--z", type=_finite_float, default=0.0, help="evaluation plane (default 0)")
    p_charge.set_defaults(fn=cmd_charge)

    p_figure = sub.add_parser("figure", help="plot-ready polarization vector-field data")
    p_figure.add_argument("which", choices=["fig1", "fig2"])
    p_figure.add_argument("variant", choices=["a", "b", "c", "d"])
    add_io(p_figure, False)
    p_figure.set_defaults(fn=cmd_figure)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("suite", nargs="?", choices=["fast", "full"], default="fast")
    p_verify.add_argument("--out", help="report path (default stdout)")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinBeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
