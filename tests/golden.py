"""Pinned stdout of `typ-dump`, `b-typ` and `sim`: the cases in golden.json,
each a command line, an optional JSON config and the sha256 of the command's
full stdout.

    python tests/golden.py [SCRIPT]

runs every case through the console script SCRIPT (default `paslab`) in a
subprocess and exits 1 if any exit code or stdout hash differs;
`tests/test_golden.py` checks the same cases in-process.

The `typ-dump` and `b-typ` hashes were taken before typical-set members
became arrays, so they pin the member-line format: digits for alphabets of at
most 10 letters, comma-separated indices above that, and a header line alone
for an empty set. The `sim` hashes (the README line, a bit-level run with
pairwise-only acceptances and a linear-codebook run) were taken while each
trial still built its own numpy Generator, so they pin the per-trial streams;
`readme-sim-threads-3` repeats the README line at `--threads 3` under the same
hash, which pins determinism across thread counts. The last three `b-typ`
hashes were taken while the exact conditional probabilities still scanned
every |V|^n output sequence: `b-typ-monte-carlo` (budget 100) and
`b-typ-4-bins-n7` (12^7 outputs, above the default budget) pin the Monte
Carlo path, and `b-typ-m2-n4` pins an exact 8-ASK case. A change that
alters one of these outputs on purpose updates its hash here.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CASES_PATH = Path(__file__).with_name("golden.json")
TIMEOUT_S = 120


def load_cases() -> list:
    return json.loads(CASES_PATH.read_text(encoding="utf-8"))


def case_argv(case: dict, work: Path) -> list:
    """The case's argv, its config written to work/<id>.json when it has one."""
    argv = list(case["argv"])
    if case["config"] is not None:
        path = work / f"{case['id']}.json"
        path.write_text(json.dumps(case["config"]), encoding="utf-8")
        argv += ["--config", str(path)]
    return argv


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(script: str = "paslab") -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in load_cases():
            proc = subprocess.run(
                [script, *case_argv(case, Path(tmp))], capture_output=True, timeout=TIMEOUT_S, check=False
            )
            ok = proc.returncode == 0 and sha256(proc.stdout) == case["sha256"]
            print(f"{'ok' if ok else 'FAILED'} {case['id']}: exit {proc.returncode}, sha256 {sha256(proc.stdout)}")
            failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
