"""Every `paslab` command in the README's sh blocks parses, and the quick ones
run to exit code 0. The solver commands are left to acceptance tests 1-3. The
README's config-key table matches the CLI's option tables."""

import json
import re
import shlex
from pathlib import Path

import pytest

from paslab.cli import OPTIONS, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = {"air-sweep", "basic-point", "gamma-split", "shaping-gap", "typ-dump", "b-typ", "sim"}
RUN = ("typ-dump", "b-typ", "sim")


def readme_commands() -> list:
    """argv of each `paslab ...` line in the README's sh blocks, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("paslab ")]


COMMANDS = readme_commands()


def test_readme_commands_parse_and_cover_every_subcommand():
    parser = build_parser()
    assert {parser.parse_args(argv).command for argv in COMMANDS} == SUBCOMMANDS


@pytest.mark.parametrize("argv", [c for c in COMMANDS if c[0] in RUN], ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_readme_config_table_matches_options():
    rows = re.findall(r"^\| `([\w-]+)` \| `(\w+)` \| `(.*?)` \| (.*?) *\|$", README.read_text(encoding="utf-8"), re.M)
    expected = [
        (command, opt.key, json.dumps(opt.default), f"`--{opt.key.replace('_', '-')}`" if opt.flag else "")
        for command, options in OPTIONS.items()
        for opt in options
    ]
    assert rows == expected
