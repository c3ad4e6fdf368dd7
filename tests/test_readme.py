"""The README's quick start and example config run as documented."""

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
