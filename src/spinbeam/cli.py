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
import dataclasses
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
from .errors import SpinBeamError, _ArgumentError
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

# the FIELD_COLUMNS each output group fills
_OUTPUT_GROUPS = {"wavefunction": FIELD_COLUMNS[3:7], "density": ["rho"],
                  "polarization": FIELD_COLUMNS[8:]}

_FIGURE_VARIANTS = {
    ("fig1", "a"): (HalfInt(1), 1),
    ("fig1", "b"): (HalfInt(1), -1),
    ("fig1", "c"): (HalfInt(-1), 1),
    ("fig1", "d"): (HalfInt(-1), -1),
    ("fig2", "a"): (HalfInt(1), 1),
    ("fig2", "b"): (HalfInt(1), -1),
}


# the config field or flag behind each argument a charge usage error names
_CHARGE_FIELDS = {
    "beam": "config field 'beam'",
    "n_r": "config field 'tolerances.charge_n_r'",
    "r": "config field 'tolerances.charge_r_max'",
    "r_max": "config field 'tolerances.charge_r_max'",
    "z": "--z",
}


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


def _require(obj: dict, field: str, context: str):
    if field not in obj:
        raise ConfigError(f"missing config field '{context}{field}'")
    return obj[field]


def _check_fields(obj: dict, known: tuple[str, ...], context: str) -> None:
    """A usage error naming each key of ``obj`` that is not in ``known``."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        names = ", ".join(f"'{context}{key}'" for key in unknown)
        owner = f"'{context[:-1]}'" if context else "the config root"
        raise ConfigError(f"unknown config field {names}; {owner} takes {list(known)}")


def _as_number(value, field: str) -> float:
    # json reads Infinity and NaN; neither passes the magnitude test
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config field '{field}' must be a finite number")
    return float(value)


def _as_int(value, field: str, minimum: int) -> int:
    # JSON booleans are ints to Python, and True == 1
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"config field '{field}' must be an integer >= {minimum}")
    return value


def parse_beam(obj) -> BeamSpec:
    if not isinstance(obj, dict):
        raise ConfigError("config field 'beam' must be an object")
    _check_fields(obj, ("configuration", "j", "sigma", "k", "kind"), "beam.")
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
        _check_fields(kind_obj, ("type", "kappa"), "beam.kind.")
        kappa = _as_number(_require(kind_obj, "kappa", "beam.kind."), "beam.kind.kappa")
        kind: NonDiffractive | Finite = NonDiffractive(kappa)
    elif kind_type == "finite":
        _check_fields(kind_obj, ("type", "w0", "method"), "beam.kind.")
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
    _check_fields(obj, ("r_min", "r_max", "n_r", "n_phi", "z_values"), "grid.")
    r_min = _as_number(obj.get("r_min", 0.0), "grid.r_min")
    r_max = _as_number(_require(obj, "r_max", "grid."), "grid.r_max")
    n_r = _as_int(obj.get("n_r", 1), "grid.n_r", 1)
    n_phi = _as_int(obj.get("n_phi", 1), "grid.n_phi", 1)
    z_values = obj.get("z_values", [0.0])
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
    # stdin and a file are read as bytes and decoded as strict UTF-8 alike
    path = getattr(args, "config", None)
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
        source = "stdin"
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        source = path
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config from {source} is not UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config from {source} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    # one config may serve several commands, so a key is known if any reads it
    _check_fields(obj, ("beam", "grid", "outputs", "format", "tolerances"), "")
    return obj


def _resolve_format(config: dict, args) -> str:
    fmt = config.get("format", "csv")
    if getattr(args, "format", None):
        fmt = args.format
    if fmt not in ("csv", "json"):
        raise ConfigError(f"config field 'format' must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _resolve_outputs(config: dict) -> set[str]:
    outputs = config.get("outputs", list(_OUTPUT_GROUPS))
    # a list or dict entry is unhashable, so test the type before membership
    if not isinstance(outputs, list) or not all(
            isinstance(group, str) and group in _OUTPUT_GROUPS for group in outputs):
        raise ConfigError(
            "config field 'outputs' must be a list drawn from "
            "['wavefunction', 'density', 'polarization']"
        )
    return set(outputs)


def _tolerances(config: dict, known: tuple[str, str]) -> dict:
    """The config's tolerance overrides; a key the command does not read is an error."""
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("config field 'tolerances' must be an object")
    _check_fields(tol, known, "tolerances.")
    return tol


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


# the markers of a ring table's plane cells: a value from each ring, the row's azimuth
_RING, _AZIMUTH = object(), object()

# per format: a number's text (JSON writes float repr, as json.dumps does), a
# blank cell's, and a row's start, cell separator and end
_FORMATS = {"csv": ("%.17g", "", "", ",", "\n"), "json": ("%r", "null", "[", ", ", "], ")}


def _write_table(columns: list[str], planes: list, fmt: str, args) -> None:
    """Print a ring table as CSV (17 significant digits) or JSON; a None ring
    cell is blank or null.

    A plane is (cells, phis, rings) and prints, ring after ring, one row per
    azimuth in ``phis``.  ``cells`` has one entry per column: the plane's
    value, _AZIMUTH for the row's azimuth, or _RING.
    A ring has one entry per _RING column: the ring's value, None for a
    blank cell, or an array of one value per azimuth.  Each number is
    formatted once: a ring's row template has its plane's and its own cells
    written in, and only the per-azimuth arrays fill its fields.
    """
    body = "".join(_plane_text(*plane, *_FORMATS[fmt]) for plane in planes)
    if fmt == "json":
        _emit(f'{{"columns": {json.dumps(columns)}, "rows": [{body[:-2]}]}}\n', args)
    else:
        _emit(",".join(columns) + "\n" + body, args)


def _plane_text(cells: list, phis: list[float], rings, number: str, blank: str, start: str,
                sep: str, end: str) -> str:
    """The rows of one plane of a ring table (see _write_table) in one format."""
    head = [c if c is _RING or c is _AZIMUTH else number % c for c in cells]
    slots = [i for i, c in enumerate(cells) if c is _RING]
    azimuths = [number % phi for phi in phis]
    at = cells.index(_AZIMUTH) if _AZIMUTH in cells else None
    lines, values = [], []
    for ring in rings:
        row, points = head[:], []
        for i, v in zip(slots, ring):
            if v is None:
                row[i] = blank
            elif isinstance(v, np.ndarray):
                row[i] = number
                points.append(v)
            else:
                row[i] = number % v
        if points:
            # row-major: the ring's azimuths in order, each with its point cells
            values += np.array(points).T.ravel().tolist()
        if at is None:
            lines.append((start + sep.join(row) + end) * len(azimuths))
        else:
            before, after = start + sep.join(row[:at] + [""]), sep.join(["", *row[at + 1:]]) + end
            lines += [before + phi + after for phi in azimuths]
    return "".join(lines) % tuple(values)


def _profile_tolerances(config: dict) -> dict:
    """Keyword arguments carrying the spectral-quadrature tolerance overrides."""
    tol = _tolerances(config, ("profile_abs_tol", "profile_rel_tol"))
    kwargs = {}
    for field, kwarg in (("profile_abs_tol", "abs_tol"), ("profile_rel_tol", "rel_tol")):
        if field in tol:
            value = _as_number(tol[field], f"tolerances.{field}")
            if not value > 0.0:
                raise ConfigError(f"config field 'tolerances.{field}' must be > 0")
            kwargs[kwarg] = value
    return kwargs


def _plane_table(spec: BeamSpec, rs: list[float], phis: list[float], zs: list[float],
                 tol_kwargs: dict) -> list:
    """Each z plane of the grid as a dict from FIELD_COLUMNS names (but phi
    and z) to one entry per ring: a float for r, rho and the cylindrical s,
    a row of one value per azimuth for the spinor cells, s_x and s_y, and
    None for a blank cell; None for a plane that raises SpinBeamError.

    A plane is one evaluate and one spin_polarization call.  A ring's rho
    and cylindrical s are its phi = 0 values (the texture is cylindrically
    symmetric; other azimuths differ by the rounding of e^{in phi}), and its
    polarization is blank where rho underflows at any of its azimuths."""
    r, phi = np.array(rs)[:, None], np.array(phis)[None, :]
    planes = []
    for z in zs:
        try:
            psi = evaluate(spec, r, phi, z, **tol_kwargs)
        except SpinBeamError:
            planes.append(None)
            continue
        except _ArgumentError as exc:
            field = "grid.z_values" if exc.argument == "z" else "grid.r_max"
            raise ConfigError(f"config field '{field}': {exc}") from None
        rho = probability_density(psi)
        defined = np.all(rho > _RHO_FLOOR, axis=1)
        s = spin_polarization(Spinor(psi.up[defined], psi.down[defined]), phi)
        # e_r and e_phi are undefined on the axis; s_x and s_y carry the vector
        cylindrical = np.stack([s.s_r[:, 0], s.s_phi[:, 0], s.s_z[:, 0]])
        cylindrical[:2, r[defined, 0] == 0.0] = 0.0
        ring = dict(zip(("s_r", "s_phi", "s_z"), cylindrical.tolist()), s_x=list(s.s_x),
                    s_y=list(s.s_y))
        # the polarization of a ring where rho underflows is blank
        blanks = np.flatnonzero(~defined).tolist()
        for values in ring.values():
            for i in blanks:
                values.insert(i, None)
        planes.append({"r": rs, "re_up": list(psi.up.real), "im_up": list(psi.up.imag),
                       "re_dn": list(psi.down.real), "im_dn": list(psi.down.imag),
                       "rho": rho[:, 0].tolist(), **ring})
    return planes


def _plane_exit(args, failed: int, rows: int) -> int:
    if failed:
        print(f"{args.command}: {failed} of {rows} rows failed to evaluate", file=sys.stderr)
        return 1
    return 0


def cmd_field(args) -> int:
    config = load_config(args)
    spec = parse_beam(_require(config, "beam", ""))
    rs, phis, zs = parse_grid(_require(config, "grid", ""))
    fmt = _resolve_format(config, args)
    outputs = _resolve_outputs(config)
    tol_kwargs = _profile_tolerances(config)

    planes = _plane_table(spec, rs, phis, zs, tol_kwargs)
    shown = [c for group, names in _OUTPUT_GROUPS.items() if group in outputs for c in names]
    table = []
    for z, plane in zip(zs, planes):
        cells = [_RING, _AZIMUTH, z] + [_RING] * (len(FIELD_COLUMNS) - 3)
        if plane is None:
            rings = [[r] + [None] * (len(FIELD_COLUMNS) - 3) for r in rs]
        else:
            blank = [None] * len(rs)
            rings = zip(rs, *(plane[c] if c in shown else blank for c in FIELD_COLUMNS[3:]))
        table.append((cells, phis, rings))
    _write_table(FIELD_COLUMNS, table, fmt, args)
    per_plane = len(rs) * len(phis)
    return _plane_exit(args, per_plane * planes.count(None), per_plane * len(zs))


def cmd_profile(args) -> int:
    config = load_config(args)
    spec = parse_beam(_require(config, "beam", ""))
    rs, phis, zs = parse_grid(_require(config, "grid", ""))
    if len(phis) != 1:
        raise ConfigError("profile requires 'grid.n_phi' == 1")
    fmt = _resolve_format(config, args)
    tol_kwargs = _profile_tolerances(config)
    # the longitudinal limit; for |j| >= 3/2 the spinor vanishes on the axis
    axis = [float(v) for v in closed_form_texture(spec, 0.0, 0.0)]

    planes = _plane_table(spec, rs, phis, zs, tol_kwargs)
    table = []
    for plane in planes:
        if plane is None:
            rings = [[r] + [None] * (len(PROFILE_COLUMNS) - 1) for r in rs]
        else:
            # one azimuth: every cell is a ring cell, and the axis takes its limit
            rings = [[r, *(axis if r == 0.0 else s), rho]
                     for r, *s, rho in zip(*(plane[c] for c in PROFILE_COLUMNS))]
        table.append(([_RING] * len(PROFILE_COLUMNS), phis, rings))
    _write_table(PROFILE_COLUMNS, table, fmt, args)
    return _plane_exit(args, len(rs) * planes.count(None), len(rs) * len(zs))


def cmd_charge(args) -> int:
    config = load_config(args)
    spec = parse_beam(_require(config, "beam", ""))
    tol = _tolerances(config, ("charge_n_r", "charge_r_max"))
    fmt = config.get("format", "json")
    if fmt != "json":
        raise ConfigError(f"config field 'format' must be 'json' for charge, got {fmt!r}")
    kwargs = {}
    if "charge_n_r" in tol:
        kwargs["n_r"] = tol["charge_n_r"]
    if "charge_r_max" in tol:
        kwargs["r_max"] = _as_number(tol["charge_r_max"], "tolerances.charge_r_max")
    try:
        report = full_charge_report(spec, z=args.z, **kwargs)
    except _ArgumentError as exc:
        raise ConfigError(f"{_CHARGE_FIELDS[exc.argument]}: {exc}") from None
    _emit(json.dumps({"z": args.z, **dataclasses.asdict(report)}, indent=2) + "\n", args)
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
    radii = r_max * np.arange(n_rings + 1) / n_rings
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    # the cylindrical components do not depend on phi: each ring's pair
    # (s_r, s_phi) rotates into s_x, s_y at every azimuth
    s_r, s_phi, s_z = closed_form_texture(spec, radii, 0.0)
    v = PolarizationVector.from_cylindrical(s_r[:, None], s_phi[:, None], s_z, phis)
    rings = list(zip(radii.tolist(), v.s_x, v.s_y, s_z.tolist()))
    cells = [_RING, _AZIMUTH, _RING, _RING, _RING]
    # the axis is one point: a ring of one azimuth
    axis = (0.0, v.s_x[0, :1], v.s_y[0, :1], rings[0][3])
    table = [(cells, [0.0], [axis]), (cells, phis.tolist(), rings[1:])]
    _write_table(FIGURE_COLUMNS, table, args.format or "csv", args)
    return 0


def cmd_verify(args) -> int:
    outcomes = run_suite()
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

    def add_io(p, needs_config: bool, formats: bool = True):
        if needs_config:
            p.add_argument("--config", help="JSON config path ('-' or omitted reads stdin)")
        if formats:
            p.add_argument("--format", choices=["csv", "json"],
                           help="output format (overrides config)")
        p.add_argument("--out", help="output path (default stdout)")

    p_field = sub.add_parser("field", help="sample wavefunction/density/polarization on a grid")
    add_io(p_field, True)
    p_field.set_defaults(fn=cmd_field)

    p_profile = sub.add_parser("profile", help="radial polarization profile at phi = 0")
    add_io(p_profile, True)
    p_profile.set_defaults(fn=cmd_profile)

    p_charge = sub.add_parser("charge",
                              help="JSON skyrmion charge report (finite radial beams)")
    add_io(p_charge, True, formats=False)
    p_charge.add_argument("--z", type=_finite_float, default=0.0, help="evaluation plane (default 0)")
    p_charge.set_defaults(fn=cmd_charge)

    p_figure = sub.add_parser("figure", help="plot-ready polarization vector-field data")
    p_figure.add_argument("which", choices=["fig1", "fig2"])
    p_figure.add_argument("variant", choices=["a", "b", "c", "d"])
    add_io(p_figure, False)
    p_figure.set_defaults(fn=cmd_figure)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("suite", nargs="?", choices=["fast", "full"],
                          help="'fast' and 'full' both run the one suite")
    p_verify.add_argument("--out", help="report path (default stdout)")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


# parse_args keeps no state between calls, so one parser serves every request
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
