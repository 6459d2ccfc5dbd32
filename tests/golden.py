"""Pinned stdout of `typ-dump`, `b-typ`, `sim` and `air-sweep`: the cases in
golden.json, each a command line, an optional JSON config and the sha256 of
the command's full stdout.

    python tests/golden.py [SCRIPT]

runs every case through the console script SCRIPT (default `paslab`) in a
subprocess and exits 1 if any exit code or stdout hash differs;
`tests/test_golden.py` checks the same cases in-process.

The `typ-dump` hashes were taken before typical-set members became arrays,
and `b-typ` has printed its members the same way since, so they pin the
member-line format: digits for alphabets of at most 10 letters, comma-separated indices
above that, and a header line alone for an empty set. `typ-dump-n48` pins a
set listed by composition class whose 2^48 sequences are far above the budget:
18,473 members from the 4 typical classes of 49, every bound check true; its
hash was first taken when enumeration moved from a scan of all sequences,
which refused the case, to composition classes. `typ-dump-k4-n9` is the
benchmark's 4^9 listing: 79,894 members from 72 classes whose members
interleave in lexicographic order. `typ-dump-zero-letter` lists a pmf with a
zero letter, (0.2, 0, 0.5, 0.3) at n 7: 441 members from 6 classes over the
three letters with p > 0. Both were pinned before members came to be listed
in order by one prefix expansion instead of class by class and then sorted.
The `sim` runs (the
README line, a bit-level run with pairwise-only acceptances and a
linear-codebook run) keep the per-trial streams of the time each trial built
its own numpy Generator; `readme-sim-threads-3` repeats the README line at
`--threads 3` under the same hash, which pins determinism across thread
counts. Every `b-typ` and `sim` hash was last re-pinned when the typicality
seed and sample-count keys left the echoed config. Only `b-typ-monte-carlo`
pins the Monte Carlo path: at budget 100 every typical class has more
conditional types (at least 462) than the budget allows, so each class gets
an estimate of 100,000 draws seeded by its composition. `b-typ-4-bins-n7`
(12^7 outputs, at most 117,975 conditional types per class) and
`b-typ-m2-n4` (8-ASK) pin exact cases. `b-typ-zero-cells` is an exact case on
an explicit transition whose three letters reach different output sets
(each row has zero cells), so outputs leave some letters' blocks of
conditional types by design, not by roundoff; it was pinned before the
exact sum and the Monte Carlo estimate came to evaluate one BoxTest. `sim-8-bins` draws its outputs from
10^6 sequences, so few of its 1,000 trials share an output, and
`sim-8-bins-threads-2` repeats it at `--threads 2` under the same hash; both
were pinned before the decoder scored each distinct output once.
`sim-bmd-8-ask` is the first bit-level run with two amplitude bit levels
(8-ASK, 64 amplitude messages; 799 errors, 491 kind 1, 325 kind 2, 17 both,
118 pairwise-only acceptances); it was pinned before both decoders came to
be built as box lists over one joint table. `sim-bmd-8-ask-linear` is the
same run on a linear code (866 errors, 482 kind 1, 398 kind 2, 14 both, 107
pairwise-only acceptances), the only case whose GF(2) generator maps more
than one amplitude bit per position; it was pinned before the sign code
came to be drawn straight into the candidates' letters. The two `air-sweep`
cases pin the solver's CSV at 300 bins: 4-ASK at an SNR list around the
basic point, and 8-ASK at 2, 8 and 14 dB. They were pinned while
optimize_capacity still computed mi_uniform and r_bmd_star itself, before
air_sweep came to compute them; the `.12g` columns absorb last-ulp BLAS
differences between machines, which is why no `gamma-split` full-repr JSON
is pinned here. Six hashes
were re-pinned when p(u) came to be computed once per composition class and
the header probabilities summed over classes (math.fsum of size times p(u))
instead of over members: `typ-dump-11-letters` and `typ-dump-n48`, whose
`typical_prob` moved by 1.7e-16 and 5.6e-16, and `readme-b-typ`,
`b-typ-11-letters`, `b-typ-monte-carlo` and `b-typ-m2-n4`, whose
`joint_typical_mass` moved by at most 1.6e-15 (and `b_mass` and `p2_mass` of
`b-typ-11-letters` by at most 1.1e-16); members, member lines, counts and
booleans stayed byte-identical. Three more were re-pinned when each
conditional type came to be weighed by its count times the product of its
transition entries instead of by exp2 of its log2 weight: the
`joint_typical_mass` of `readme-b-typ` moved from 0.9612388202464178 to
0.9612388202464177, of `b-typ-11-letters` from 0.44116800000000006 to
0.44116800000000017, and of `b-typ-4-bins-n7` from 0.2972083491422354 to
0.29720834914223515; every other header value, every member line and every
keep decision stayed byte-identical. A change that alters one of these
outputs on purpose updates its hash here.
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
