"""The README's quick start and example config run as documented, and the
figures it quotes for `verify full` are those of a suite run."""

import json
import re
from pathlib import Path

from spinbeam.cli import _PARSER, main

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", _README, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_quick_start(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    s_r, s_phi, s_z = (float(v) for v in lines[0].split()[:3])
    q = float(lines[1].split()[0])
    assert abs(s_phi) < 1e-12
    assert abs(q + 1.0) < 2e-3


def test_example_config_runs(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(json.loads(_block("json"))))
    code = main(["field", "--config", str(config), "--out", str(tmp_path / "field.csv")])
    capsys.readouterr()
    assert code == 0
    assert len((tmp_path / "field.csv").read_text().splitlines()) == 1 + 8 * 16


def test_every_command_line_parses():
    # each `spinbeam ...` line of the shell blocks, comment stripped, is a
    # valid command line: README drift against the CLI fails here
    lines = [line.split("#")[0].split() for line in _README.splitlines()
             if line.startswith("spinbeam ")]
    assert lines
    for argv in lines:
        try:
            args = _PARSER.parse_args(argv[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {' '.join(argv)}") from None
        assert args.command == argv[1]


def _figures(sentence: str) -> list[int]:
    """The numbers README quotes for the N of ``sentence``, which may break
    across lines there."""
    pattern = r"\s+".join(re.escape(word) for word in sentence.split()).replace("N", r"([\d,]+)")
    match = re.search(pattern, _README)
    assert match, f"README.md no longer says: {sentence}"
    return [int(group.replace(",", "")) for group in match.groups()]


def test_verify_full_figures_match_one_suite_run(monkeypatch):
    # the integrate calls, integrand calls and nodes README quotes for
    # `verify full`'s integrate (check 7), and the Bessel pair calls and
    # arguments of its spectral quadrature, re-measured: a change that moves
    # an integral's or a point's rung must restate them
    from spinbeam import beams, verify

    counts = dict(integrals=0, calls=0, nodes=0, evaluations=0, pairs=0, arguments=0)
    integrate = verify.integrate
    profile, pair = beams._quadrature_profile, beams._jn_pair
    inside = []

    def counted_integrate(f, *args, **kwargs):
        def integrand(x):
            counts["calls"] += 1
            counts["nodes"] += x.size
            return f(x)

        res = integrate(integrand, *args, **kwargs)
        counts["integrals"] += 1
        counts["evaluations"] += res.evaluations
        return res

    def counted_profile(*args, **kwargs):
        inside.append(True)
        try:
            return profile(*args, **kwargs)
        finally:
            inside.pop()

    def counted_pair(n, x):
        if inside:
            counts["pairs"] += 1
            counts["arguments"] += x.size
        return pair(n, x)

    monkeypatch.setattr(verify, "integrate", counted_integrate)
    monkeypatch.setattr(beams, "_quadrature_profile", counted_profile)
    monkeypatch.setattr(beams, "_jn_pair", counted_pair)
    assert all(outcome.passed for outcome in verify.run_suite())
    assert _figures("`verify full` makes N `integrate` calls, which take the integrand at N "
                    "nodes in N calls") == [counts["integrals"], counts["nodes"], counts["calls"]]
    assert counts["nodes"] == counts["evaluations"]
    assert _figures("`verify full` takes the spectral integrand at N Bessel arguments (points x "
                    "nodes) in N pair calls") == [counts["arguments"], counts["pairs"]]
