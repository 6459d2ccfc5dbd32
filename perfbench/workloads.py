"""Operation lists of the benchmark workloads and the checks on their outputs.

Every operation is one `paslab` command line, run in-process through
`paslab.cli.main(argv + ["--out", path])`. Outputs are compared against
`expected.json`, frozen by `make_expected.py`, with one tolerance per field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# seed whose sim outputs are frozen in expected.json; any other seed is
# checked only against what holds for every seed
DEFAULT_SEED = 0

# every operation stays short (about 1.3 s at most) so that a timed run
# repeats each one many times; see run.run_workload
SIM_TRIALS = 3000
SMOKE_SIM_TRIALS = 50

# per-field tolerances; H(A*) sits on a flat optimum and moves ~1e-5 between
# solvers, capacity does not
GAMMA_SPLIT_TOL = {"rate": 1e-6, "h_a": 1e-3, "gamma": 1e-3 + 1e-6}
B_TYP_FLOAT_TOL = 1e-12  # header floats and per-member conditional probabilities
TYP_DUMP_FLOAT_TOL = 1e-12
SIM_ANY_SEED_FIELDS = ("trials", "m_a_count", "n", "n1", "decoder", "rate_achieved")


@dataclass(frozen=True)
class Op:
    """One CLI command: a stable id, its argv (without --out) and, for
    commands that need one, the JSON config file it reads."""

    id: str
    argv: tuple
    config: dict | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def full_argv(self, work: Path, out: Path) -> list:
        argv = list(self.argv)
        if self.config is not None:
            argv += ["--config", str(work / f"{self.id}.json")]
        return argv + ["--out", str(out)]


def _sim(op_id, seed, gamma, decoder, trials, codebook="iid"):
    cfg = {"amplitude_pmf": [0.7, 0.3], "codebook_mode": codebook}
    argv = (
        "sim", "--sigma", "0.45", "--num-bins", "2", "--n", "6", "--eps", "0.1",
        "--gamma", gamma, "--decoder", decoder, "--trials", str(trials),
        "--seed", str(seed), "--threads", "1",
    )
    return Op(op_id, argv, cfg)


def sim_seed(seed: int, index: int) -> int:
    """Seed of the index-th sim experiment of a run seeded with seed."""
    return 100 * seed + index


def workload_ops(name: str, seed: int) -> list:
    """The fixed operation list of one workload pass."""
    if name == "rates":
        # solver-bound; the 8-ASK point bypasses any 4-ASK-only shortcut.
        # `basic-point` (13 solves in one ~14 s command) is left out: a run
        # could not repeat it; the 4-ASK point at 2 dB solves in the low-SNR
        # range its bisection covers
        return [
            Op("gamma-split-m1-2db", ("gamma-split", "--snr-db", "2")),
            Op("gamma-split-m1-9.74db", ("gamma-split", "--snr-db", "9.74")),
            Op("gamma-split-m2-14db", ("gamma-split", "--m", "2", "--snr-db", "14")),
        ]
    if name == "coding":
        # typicality three ways, then the sign-coding decoder; no solver
        return [
            # README example at n 5 instead of 6 (3 s, too long to repeat):
            # 32 conditional-probability calls over 2^15-cell grids
            Op("b-typ-readme-n5", ("b-typ", "--sigma", "0.45", "--n", "5", "--eps", "0.1", "--num-bins", "2")),
            # acceptance-test-6 instance at n 10 instead of 12 (8 s, too long to
            # repeat): about a thousand calls over 1,024-cell grids
            Op(
                "b-typ-binary-n10",
                ("b-typ",),
                {"pmf": [0.4, 0.6], "transition": [[0.6, 0.4], [0.4, 0.6]], "n": 10, "eps": 0.25},
            ),
            # 4^9 sequences scanned and their member lines formatted
            Op("typ-dump-k4-n9", ("typ-dump",), {"pmf": [0.1, 0.2, 0.3, 0.4], "n": 9, "eps": 0.2}),
            # smd and bmd at 120 and 480 candidates, one linear codebook
            _sim("sim-smd-g0.5", sim_seed(seed, 0), "0.5", "smd", SIM_TRIALS),
            _sim("sim-smd-g0.9-linear", sim_seed(seed, 1), "0.9", "smd", SIM_TRIALS, "linear"),
            _sim("sim-bmd-g0.5", sim_seed(seed, 2), "0.5", "bmd", SIM_TRIALS),
            _sim("sim-bmd-g0.9", sim_seed(seed, 3), "0.9", "bmd", SIM_TRIALS),
        ]
    if name == "smoke":
        return [
            Op("gamma-split-m1-9.74db", ("gamma-split", "--snr-db", "9.74")),
            Op("b-typ-n4", ("b-typ", "--sigma", "0.45", "--n", "4", "--eps", "0.1", "--num-bins", "2")),
            Op("typ-dump-n4", ("typ-dump", "--n", "4", "--eps", "0.1")),
            _sim("sim-bmd-g0.5-smoke", sim_seed(seed, 0), "0.5", "bmd", SMOKE_SIM_TRIALS),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("rates", "coding")
SEEDED = {"coding", "smoke"}  # rates runs identical inputs for every seed


def write_configs(ops, work: Path) -> None:
    for op in ops:
        if op.config is not None:
            (work / f"{op.id}.json").write_text(json.dumps(op.config), encoding="utf-8")


# ------------------------------------------------------------------ extract


def extract(command: str, text: str) -> dict:
    """The fields of one command's output that the checks compare."""
    if command == "gamma-split":
        out = json.loads(text)
        out.pop("config")
        return out
    if command == "sim":
        return json.loads(text)["stats"]
    header_line, _, body = text.partition("\n")
    header = json.loads(header_line)
    header.pop("config")
    if command == "typ-dump":
        header["members_sha256"] = hashlib.sha256(body.encode()).hexdigest()
        return header
    if command == "b-typ":
        rows = [line.split(" ") for line in body.splitlines()]
        header["members_sha256"] = hashlib.sha256(
            "\n".join(r[0] for r in rows).encode()
        ).hexdigest()
        header["cond_probs"] = [float(r[1]) for r in rows]
        return header
    raise ValueError(f"no extractor for {command!r}")


# ------------------------------------------------------------------- check


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= tol


def _compare_fields(got: dict, ref: dict, float_tol: dict, default_tol=None) -> list:
    """Float fields within their tolerance, everything else exactly."""
    bad = []
    for key, want in ref.items():
        have = got.get(key)
        tol = float_tol.get(key, default_tol)
        if isinstance(want, float) and tol is not None:
            ok = _close(have, want, tol)
        elif isinstance(want, list):
            ok = isinstance(have, list) and len(have) == len(want) and all(
                _close(h, w, tol) for h, w in zip(have, want)
            )
        else:
            ok = have == want
        if not ok:
            bad.append(f"{key}: got {_short(have)}, expected {_short(want)}")
    return bad


def _short(v):
    return f"list of {len(v)}" if isinstance(v, list) else repr(v)


def check(op: Op, text: str, ref: dict | None, seed: int) -> list:
    """Mismatch descriptions for one output; empty when it is correct."""
    try:
        got = extract(op.command, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if ref is None:
        return [f"no reference for {op.id}"]
    if op.command == "gamma-split":
        bad = _compare_fields(got, ref, GAMMA_SPLIT_TOL)
        if not _close(got["rate"], got["h_a"] + got["gamma"], 1e-12):
            bad.append("rate != h_a + gamma")
        return bad
    if op.command == "b-typ":
        return _compare_fields(got, ref, {}, B_TYP_FLOAT_TOL)
    if op.command == "typ-dump":
        return _compare_fields(got, ref, {}, TYP_DUMP_FLOAT_TOL)
    # sim: the union identity always; the frozen stats only at the default seed
    bad = []
    if got["errors_total"] != got["errors_kind1"] + got["errors_kind2"] - got["both"]:
        bad.append("errors_total != kind1 + kind2 - both")
    if seed == DEFAULT_SEED:
        return bad + _compare_fields(got, ref, {})
    expected_seed = int(op.argv[op.argv.index("--seed") + 1])
    any_seed = {k: ref[k] for k in SIM_ANY_SEED_FIELDS}
    any_seed["seed"] = expected_seed
    return bad + _compare_fields(got, any_seed, {})


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
