"""Correctness gate: parse each request's output and decide whether it is right.

Two kinds of check run on every request:

* invariants that hold for every seed: the grid the CLI reports is the
  grid the config asked for, |s| = 1 within 1e-10 wherever rho is
  defined, the charge routes agree with each other and with the charge
  formula (its mirror value -q(-j) for j < 0), the integrated spin obeys
  its known values, and ``verify full`` passes every check;
* for seeds that have a snapshot of the parent commit's outputs, every
  value agrees with the snapshot: within 1e-12 for closed-form outputs
  and within the requested quadrature tolerance for quadrature rows.

The expected column lists are written out here rather than imported,
so the gate does not depend on the code it checks.
"""

from __future__ import annotations

import json
import math
import re

FIELD_COLUMNS = ["r", "phi", "z", "re_up", "im_up", "re_dn", "im_dn",
                 "rho", "s_r", "s_phi", "s_z", "s_x", "s_y"]
PROFILE_COLUMNS = ["r", "s_r", "s_phi", "s_z", "rho"]
FIGURE_COLUMNS = ["r", "phi", "s_x", "s_y", "s_z"]
_COLUMNS = {"field": FIELD_COLUMNS, "profile": PROFILE_COLUMNS, "figure": FIGURE_COLUMNS}
_UNIT_COLUMNS = {"field": ("s_x", "s_y", "s_z"), "profile": ("s_r", "s_phi", "s_z"),
                 "figure": ("s_x", "s_y", "s_z")}

CLOSED_FORM_TOL = 1e-12
UNIT_TOL = 1e-10
CHARGE_TOL = 2e-3
SPIN_ORACLE_TOL = 1e-6
N_CHECKS = 12
# spinbeam.cli leaves the polarization empty only where rho underflows
_RHO_UNDEFINED = 1e-250
_AMP_FINITE = 1.0 / math.sqrt(4.0 * math.pi)

_CHECK_RE = re.compile(r"^\[(PASS|FAIL)\] (.+?)  \(")
_LINE_RE = re.compile(r"^    (ok |BAD) (.+): measured (\S+) <= tolerance (\S+)$")


class GateError(Exception):
    """An output that fails the gate; the message says which value and why."""


def parse_output(kind: str, text: str):
    """Turn the text a request wrote into the structure the gate compares."""
    if kind in _COLUMNS:
        lines = text.splitlines()
        if not lines:
            raise GateError("empty output")
        rows = [[float(c) if c else None for c in line.split(",")] for line in lines[1:]]
        return {"columns": lines[0].split(","), "rows": rows}
    if kind == "charge":
        return json.loads(text)
    if kind == "verify":
        checks, lines = [], []
        for line in text.splitlines():
            if m := _CHECK_RE.match(line):
                checks.append([m.group(2), m.group(1) == "PASS"])
            elif m := _LINE_RE.match(line):
                lines.append([m.group(2), float(m.group(4)), m.group(1) == "ok "])
        return {"checks": checks, "lines": lines, "summary": text.splitlines()[-1]}
    raise ValueError(f"no parser for {kind!r}")


def _twice_j(beam: dict) -> int:
    num, _, den = beam["j"].partition("/")
    return int(num) if den == "2" else 2 * int(num)


def mirror_charge(twice_j: int) -> float:
    """Charge formula -1/2 (1 + j/(j^2 + 1/4)), as -q(-j) for j < 0."""
    j = abs(twice_j) / 2.0
    q = -0.5 * (1.0 + j / (j * j + 0.25))
    return q if twice_j > 0 else -q


def _expected_grid(grid: dict) -> list[tuple[float, float, float]]:
    n_r, n_phi = grid.get("n_r", 1), grid.get("n_phi", 1)
    r_min, r_max = grid.get("r_min", 0.0), grid["r_max"]
    step = (r_max - r_min) / (n_r - 1) if n_r > 1 else 0.0
    rs = [r_min + i * step for i in range(n_r)]
    phis = [2.0 * math.pi * i / n_phi for i in range(n_phi)]
    return [(r, phi, z) for z in sorted(grid["z_values"]) for r in rs for phi in phis]


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(b))


def _is_quadrature(req) -> bool:
    kind = (req.config or {}).get("beam", {}).get("kind", {})
    return kind.get("type") == "finite" and kind.get("method") == "quadrature"


def _check_rows(req, out: dict) -> None:
    columns = _COLUMNS[req.kind]
    if out["columns"] != columns:
        raise GateError(f"header {out['columns']} != {columns}")
    rows = out["rows"]
    if req.kind == "figure":
        if len(rows) != req.points:
            raise GateError(f"{len(rows)} rows, expected {req.points}")
    else:
        grid = _expected_grid(req.config["grid"])
        if len(rows) != len(grid):
            raise GateError(f"{len(rows)} rows, expected {len(grid)}")
        for i, (row, want) in enumerate(zip(rows, grid)):
            got = (row[0],) if req.kind == "profile" else tuple(row[:3])
            if not all(_close(g, w, CLOSED_FORM_TOL) for g, w in zip(got, want)):
                raise GateError(f"row {i}: grid point {got} != {want}")
    unit = [columns.index(c) for c in _UNIT_COLUMNS[req.kind]]
    rho_col = columns.index("rho") if "rho" in columns else None
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise GateError(f"row {i} has {len(row)} cells")
        s = [row[c] for c in unit]
        if None in s:
            rho = row[rho_col] if rho_col is not None else None
            if rho is None or rho > _RHO_UNDEFINED:
                raise GateError(f"row {i}: polarization missing where rho = {rho}")
            continue
        norm = math.sqrt(sum(v * v for v in s))
        if abs(norm - 1.0) > UNIT_TOL:
            raise GateError(f"row {i}: |s| - 1 = {norm - 1.0:.3e}")
        if req.kind == "field":
            if None in row[3:8]:
                raise GateError(f"row {i}: wavefunction or density missing")
            rho = row[3] ** 2 + row[4] ** 2 + row[5] ** 2 + row[6] ** 2
            if abs(rho - row[7]) > 1e-12 * max(rho, 1e-300):
                raise GateError(f"row {i}: rho {row[7]!r} != |psi|^2 {rho!r}")


def _row_tolerances(req, ref_row: list) -> list[float]:
    """Allowed deviation of each field cell from the parent's value."""
    n = len(ref_row)
    if req.kind != "field" or not _is_quadrature(req):
        return [CLOSED_FORM_TOL * max(1.0, abs(v)) if v is not None else 0.0 for v in ref_row]
    tol = req.config.get("tolerances", {})
    w0 = req.config["beam"]["kind"]["w0"]
    abs_tol = tol.get("profile_abs_tol", 1e-13 * math.sqrt(2.0) / w0)
    rel_tol = tol.get("profile_rel_tol", 1e-9)
    rho = ref_row[7]
    root = math.sqrt(rho)
    # each run meets the requested tolerance on every profile, so two runs
    # differ by at most twice it; rho and s inherit that through their formulas
    e = 2.0 * (_AMP_FINITE * abs_tol + rel_tol * root) + 1e-15
    out = [CLOSED_FORM_TOL * max(1.0, abs(v)) for v in ref_row[:3]]
    out += [e] * 4
    out.append(3.0 * root * e + e * e)
    s_tol = 4.0 * e / root if root > 0.0 else 2.0
    out += [max(s_tol, CLOSED_FORM_TOL)] * (n - 8)
    return out


def _compare_rows(req, out: dict, ref: dict) -> None:
    if len(out["rows"]) != len(ref["rows"]):
        raise GateError(f"{len(out['rows'])} rows, snapshot has {len(ref['rows'])}")
    for i, (row, ref_row) in enumerate(zip(out["rows"], ref["rows"])):
        for c, (got, want, tol) in enumerate(zip(row, ref_row, _row_tolerances(req, ref_row))):
            if (got is None) != (want is None) or (got is not None and abs(got - want) > tol):
                raise GateError(f"row {i} {out['columns'][c]}: {got!r} vs snapshot {want!r}"
                                f" (tolerance {tol:.3e})")


def _check_charge(req, out: dict, ref: dict | None) -> None:
    twice_j = _twice_j(req.config["beam"])
    want = mirror_charge(twice_j)
    for key in ("q_boundary", "q_integral"):
        if abs(out[key] - want) > CHARGE_TOL:
            raise GateError(f"{key} = {out[key]!r}, formula gives {want!r}")
    if abs(out["q_boundary"] - out["q_integral"]) > CHARGE_TOL:
        raise GateError(f"q_boundary {out['q_boundary']!r} != q_integral {out['q_integral']!r}")
    if out["s_z_axis"] != (1.0 if twice_j > 0 else -1.0):
        raise GateError(f"s_z_axis = {out['s_z_axis']!r}")
    if ref is None:
        return
    for key in ("z", "q_boundary", "q_integral", "s_z_axis", "s_z_infinity", "grid_resolution"):
        if not _close(out[key], ref[key], CLOSED_FORM_TOL):
            raise GateError(f"{key} = {out[key]!r}, snapshot {ref[key]!r}")
    # the parent reports the formula as stated for j < 0; the mirror value is
    # the planned correction, so either is accepted
    if not (_close(out["q_formula"], ref["q_formula"], CLOSED_FORM_TOL)
            or _close(out["q_formula"], want, CLOSED_FORM_TOL)):
        raise GateError(f"q_formula = {out['q_formula']!r}, snapshot {ref['q_formula']!r}")


def _check_spin(req, out: list, ref: list | None) -> None:
    p = req.params
    beam = p["beam"]
    if out[0] != 0.0 or out[1] != 0.0:
        raise GateError(f"transverse <sigma> = {out[:2]} is not identically zero")
    if beam["configuration"] == "radial":
        if abs(out[2]) > 10.0 * p["abs_tol"]:
            raise GateError(f"radial <sigma_z> = {out[2]!r} does not vanish")
    else:
        # momentum-space value: sigma * integral of |f|^2 (kappa/k) kappa
        w0 = beam["kind"]["w0"]
        want = beam["sigma"] * math.sqrt(math.pi) / (2.0 * beam["k"] * w0)
        if abs(out[2] - want) > SPIN_ORACLE_TOL:
            raise GateError(f"azimuthal <sigma_z> = {out[2]!r}, oracle {want!r}")
    if ref is not None and abs(out[2] - ref[2]) > 2.0 * p["abs_tol"]:
        raise GateError(f"<sigma_z> = {out[2]!r}, snapshot {ref[2]!r}")


def _check_verify(out: dict, ref: dict | None) -> None:
    if out["summary"] != f"{N_CHECKS}/{N_CHECKS} checks passed":
        raise GateError(f"verify reports {out['summary']!r}")
    if len(out["checks"]) != N_CHECKS or not all(ok for _, ok in out["checks"]):
        raise GateError("a verify check failed")
    if not all(ok for _, _, ok in out["lines"]):
        raise GateError("a verify line failed")
    if ref is None:
        return
    if [name for name, _ in out["checks"]] != [name for name, _ in ref["checks"]]:
        raise GateError("verify check names differ from the snapshot")
    ref_tol = {label: tol for label, tol, _ in ref["lines"]}
    for label, tol, _ in out["lines"]:
        if label in ref_tol and tol != ref_tol[label]:
            raise GateError(f"verify tolerance of {label!r} changed: {ref_tol[label]} -> {tol}")


def check(req, out, ref) -> None:
    """Raise GateError if ``out`` is wrong; ``ref`` is the snapshot entry or None."""
    if req.kind in _COLUMNS:
        _check_rows(req, out)
        if ref is not None:
            _compare_rows(req, out, ref)
    elif req.kind == "charge":
        _check_charge(req, out, ref)
    elif req.kind == "spin_expectation":
        _check_spin(req, out, ref)
    elif req.kind == "verify":
        _check_verify(out, ref)
    else:
        raise ValueError(f"no gate for {req.kind!r}")
