"""Seeded request decks for the spinbeam benchmark.

A deck is the fixed list of requests one pass of a workload sends.  It
is drawn from a ``random.Random`` seeded with the workload name and the
seed, so the same seed always gives the same deck, and the program under
test only ever sees the JSON configs and argument lists generated here.

Every deck has a fixed structure (which request kinds, grid sizes and
|j| values it holds) and draws only the physical parameters from the
seed.  Continuous parameters that set a request's cost are drawn by
stratified sampling: each case gets its own stratum of the range, and
which case gets which stratum depends on the workload, not the seed.  So
the cost of each request, and with it the measured rates and latency
percentiles, barely moves from seed to seed while every value differs.

Run ``python3 bench/workloads.py --workload NAME --seed N --out DIR`` to
write a deck's configs without running anything.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1

_TWICE_J = (1, -1, 3, -3, 5, -5, 7, -7)


@dataclass(frozen=True)
class Request:
    """One request of a deck.

    ``kind`` is the CLI subcommand (``field``, ``profile``, ``charge``,
    ``figure``, ``verify``) or ``spin_expectation``, which has no CLI and
    is called through the library.  ``config`` is the JSON config the CLI
    reads (``None`` for commands that take none), ``args`` the extra
    command-line arguments, and ``params`` the keyword arguments of a
    library call.  ``points`` is the number of spatial rows the request
    asks for (0 where it produces no rows).
    """

    kind: str
    config: dict | None = None
    args: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    points: int = 0


class _Draws(random.Random):
    """The seeded generator of one deck, with a ``layout`` generator that
    depends only on the workload."""

    def __init__(self, workload: str, seed: int):
        super().__init__(f"{workload}:{seed}")
        self.layout = random.Random(workload)


def _strata(rng: _Draws, n: int, lo: float, hi: float) -> list[float]:
    """n values in [lo, hi), one from each of n equal strata; the workload's
    layout, not the seed, decides which case gets which stratum."""
    order = list(range(n))
    rng.layout.shuffle(order)
    return [lo + (i + rng.random()) * (hi - lo) / n for i in order]


def _j(twice: int) -> str:
    return f"{twice}/2"


def _sign(rng: _Draws) -> int:
    return rng.choice((1, -1))


def _finite_beam(configuration: str, twice_j: int, sigma: int, k: float, w0: float,
                 method: str) -> dict:
    return {"configuration": configuration, "j": _j(twice_j), "sigma": sigma, "k": k,
            "kind": {"type": "finite", "w0": w0, "method": method}}


def _nondiffractive_beam(configuration: str, twice_j: int, sigma: int, k: float,
                         kappa: float) -> dict:
    return {"configuration": configuration, "j": _j(twice_j), "sigma": sigma, "k": k,
            "kind": {"type": "nondiffractive", "kappa": kappa}}


def _grid_request(kind: str, beam: dict, r_max: float, n_r: int, n_phi: int,
                  z_values: list[float], tolerances: dict | None = None) -> Request:
    config = {
        "beam": beam,
        "grid": {"r_min": 0.0, "r_max": r_max, "n_r": n_r, "n_phi": n_phi,
                 "z_values": z_values},
        "format": "csv",
    }
    if tolerances:
        config["tolerances"] = tolerances
    return Request(kind, config, points=n_r * n_phi * len(z_values))


# Grid shapes follow the repository's documented usage: the README's example
# config (n_r = 8, n_phi = 16, r_max = 3.36 w0, one z plane, profile tolerances
# 1e-13 absolute and 1e-9 relative at w0 = 1) and the CLI's figure grid (8 rings
# of 16 azimuths).  With n_phi = 16, 15/16 of the profile integrals a field
# request makes repeat across azimuth.  Decks are trimmed by request count, not
# by grid, to fit a run.
README_N_R, README_N_PHI, README_R_MAX = 8, 16, 3.36


def _signed_j(rng: _Draws) -> list[int]:
    """2j for |j| = 1/2 ... 7/2, half of them negative, in deck order."""
    signs = [1, 1, -1, -1]
    rng.shuffle(signs)
    return [s * tj for s, tj in zip(signs, (1, 3, 5, 7))]


# field-spectral: quadrature and array bessel_j do almost all the work here, and
# today (n_phi-1)/n_phi of the profile integrals repeat across azimuth, so
# evaluating profiles once per (r, z) and fixed-node product rules should show here.
def field_spectral(rng: _Draws) -> list[Request]:
    cases = [(conf, tj) for conf in ("radial", "azimuthal") for tj in _signed_j(rng)]
    n = len(cases)
    kw0s = _strata(rng, n, 20.0, 200.0)
    w0s = _strata(rng, n, 0.5, 2.0)
    zs = _strata(rng, n, 0.0, 1.0)
    deck = []
    for i, (conf, tj) in enumerate(cases):
        w0 = w0s[i]
        k = kw0s[i] / w0
        z0 = k * w0 * w0
        beam = _finite_beam(conf, tj, _sign(rng), k, w0, "quadrature")
        tol = {"profile_abs_tol": 1e-13 / w0, "profile_rel_tol": 1e-9}
        deck.append(_grid_request("field", beam, README_R_MAX * w0, README_N_R, README_N_PHI,
                                  [_sign(rng) * zs[i] * z0], tol))
    rng.shuffle(deck)
    return deck


# field-closed-form: integrate never runs here, so this is the no-change control
# for any quadrature change; scalar bessel_j, bessel_i_scaled and 17-digit CSV
# formatting dominate instead.
def field_closed_form(rng: _Draws) -> list[Request]:
    deck = []
    # non-diffractive fields: x = kappa r spans the series, Miller and
    # large-argument regimes of the scalar Bessel routine
    nd_cases = [(conf, tj) for conf in ("radial", "azimuthal") for tj in _signed_j(rng)]
    n = len(nd_cases)
    kappas = _strata(rng, n, 0.5, 2.0)
    ratios = _strata(rng, n, 0.1, 0.9)
    x_maxs = _strata(rng, n, 8.0, 16.0)
    for i, (conf, tj) in enumerate(nd_cases):
        k = kappas[i] / ratios[i]
        beam = _nondiffractive_beam(conf, tj, _sign(rng), k, kappas[i])
        deck.append(_grid_request("field", beam, x_maxs[i] / kappas[i], README_N_R,
                                  README_N_PHI, [rng.uniform(-10.0, 10.0)]))
    # paraxial finite fields and profiles (a profile needs n_phi = 1)
    n = 8
    kw0s = _strata(rng, n, 20.0, 200.0)
    w0s = _strata(rng, n, 0.5, 2.0)
    zs = _strata(rng, n, -1.0, 1.0)
    for i, tj in enumerate(_signed_j(rng) + _signed_j(rng)):
        w0 = w0s[i]
        k = kw0s[i] / w0
        beam = _finite_beam("radial", tj, _sign(rng), k, w0, "paraxial")
        kind, n_phi = ("field", README_N_PHI) if i < 4 else ("profile", 1)
        deck.append(_grid_request(kind, beam, README_R_MAX * w0, README_N_R, n_phi,
                                  [zs[i] * k * w0 * w0]))
    # non-diffractive profiles
    cases = zip(("radial", "azimuthal", "radial", "azimuthal"), _signed_j(rng),
                _strata(rng, 4, 8.0, 16.0), _strata(rng, 4, 0.5, 2.0), _strata(rng, 4, 0.1, 0.9))
    for conf, tj, x_max, kappa, ratio in cases:
        beam = _nondiffractive_beam(conf, tj, _sign(rng), kappa / ratio, kappa)
        deck.append(_grid_request("profile", beam, x_max / kappa, README_N_R, 1,
                                  [rng.uniform(-10.0, 10.0)]))
    # the bundled figure datasets: 1 axis row plus 8 rings of 16 azimuths
    for which, variant in (("fig1", "a"), ("fig1", "b"), ("fig1", "c"), ("fig1", "d"),
                           ("fig2", "a"), ("fig2", "b")):
        deck.append(Request("figure", args=(which, variant), points=129))
    rng.shuffle(deck)
    return deck


# texture-integrals: charge and spin_expectation evaluate profiles at thousands of
# distinct r in one plane with no azimuth sharing; they are the only users of
# topology and of nested quadrature.  Charge planes stop at 2 z0 because the
# charge routes raise IllConvergedLimitError from about 3 z0 on at this commit.
def texture_integrals(rng: _Draws) -> list[Request]:
    deck = []
    n = len(_TWICE_J)
    kw0s = _strata(rng, n, 20.0, 200.0)
    w0s = _strata(rng, n, 0.5, 2.0)
    planes = _strata(rng, n, 0.0, 2.0)
    for i, tj in enumerate(_TWICE_J):
        w0 = w0s[i]
        k = kw0s[i] / w0
        beam = _finite_beam("radial", tj, _sign(rng), k, w0, "paraxial")
        z = planes[i] * k * w0 * w0
        deck.append(Request("charge", {"beam": beam}, args=("--z", repr(z))))
    # the cost of a spin_expectation is set by |j| and z/z0, so |j| is fixed per
    # case and z stays within a quarter Rayleigh range
    spin_cases = (("radial", "paraxial", 1), ("radial", "quadrature", 3),
                  ("azimuthal", "quadrature", 3))
    n = len(spin_cases)
    cases = zip(spin_cases, _strata(rng, n, 40.0, 160.0), _strata(rng, n, 0.5, 2.0),
                _strata(rng, n, -0.25, 0.25))
    for (conf, method, twice_j), kw0, w0, z_over_z0 in cases:
        k = kw0 / w0
        beam = _finite_beam(conf, _sign(rng) * twice_j, _sign(rng), k, w0, method)
        z = z_over_z0 * k * w0 * w0
        deck.append(Request("spin_expectation", params={"beam": beam, "z": z, "abs_tol": 1e-8}))
    rng.shuffle(deck)
    return deck


# verify-full: the oracle suite as users run it.  It evaluates scattered random
# points where no two share (r, z), the opposite use of beams/quadrature to
# field-spectral, so a gain from sharing predicts no change here.  Its inputs
# are fixed inside spinbeam.verify; the seed is recorded but not used.
def verify_full(rng: _Draws) -> list[Request]:
    return [Request("verify", args=("full",))]


WORKLOADS = {
    "field-spectral": field_spectral,
    "field-closed-form": field_closed_form,
    "texture-integrals": texture_integrals,
    "verify-full": verify_full,
}


def make_deck(workload: str, seed: int) -> list[Request]:
    """The deck of ``workload`` for ``seed``."""
    return WORKLOADS[workload](_Draws(workload, seed))


def config_path(work_dir: Path, index: int) -> Path:
    return work_dir / f"req{index:03d}.json"


def write_configs(deck: list[Request], work_dir: Path) -> None:
    """Write each request's CLI config (if it has one) into ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(deck):
        if req.config is not None:
            config_path(work_dir, i).write_text(json.dumps(req.config, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the CLI configs of one workload deck.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory for the configs")
    args = parser.parse_args()
    deck = make_deck(args.workload, args.seed)
    write_configs(deck, Path(args.out))
    for i, req in enumerate(deck):
        print(i, req.kind, " ".join(req.args), json.dumps(req.params) if req.params else "")


if __name__ == "__main__":
    main()
