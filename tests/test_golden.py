"""The full stdout of the golden cases (the README `typ-dump`, `b-typ` and
`sim` lines, an 11-letter `typ-dump` and `b-typ` in the comma format, an empty
typical set, a `typ-dump` at n = 48 listed by composition class, the
benchmark's 4^9 `typ-dump`, a `typ-dump` of a pmf with a zero letter, a bmd
`sim` with pairwise-only acceptances, a linear-codebook
`sim`, the README `sim` line at `--threads 3`, a Monte Carlo `b-typ` at
budget 100, an exact 4-bin `b-typ`, an exact 8-ASK `b-typ`, an exact `b-typ`
on a transition with zero cells, and an 8-bin
`sim` whose outputs seldom repeat with its `--threads 2` twin, and an 8-ASK
bmd `sim` on an iid and on a linear code, and two `air-sweep` CSVs at 300
bins) matches the sha256 pinned in golden.json."""

import pytest

from golden import case_argv, load_cases, sha256
from paslab.cli import main

CASES = load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_stdout_matches_pinned_hash(case, tmp_path, capsys):
    assert main(case_argv(case, tmp_path)) == 0
    assert sha256(capsys.readouterr().out.encode()) == case["sha256"]


def test_threads_twin_pins_the_same_output():
    hashes = {case["id"]: case["sha256"] for case in CASES}
    assert hashes["readme-sim-threads-3"] == hashes["readme-sim"]
    assert hashes["sim-8-bins-threads-2"] == hashes["sim-8-bins"]
