"""The full stdout of the golden cases (the README `typ-dump` and `b-typ`
lines, an 11-letter `typ-dump` and `b-typ` in the comma format, and an empty
typical set) matches the sha256 pinned in golden.json."""

import pytest

from golden import case_argv, load_cases, sha256
from paslab.cli import main

CASES = load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_stdout_matches_pinned_hash(case, tmp_path, capsys):
    assert main(case_argv(case, tmp_path)) == 0
    assert sha256(capsys.readouterr().out.encode()) == case["sha256"]
