"""Command-line front end.

Every command reads an optional JSON config (--config) merged with flag
overrides, echoes the effective config into its output header, and writes to
stdout or --out. Outputs are deterministic given the config, including across
--threads settings. Exit codes: 0 success, 2 config error, 3 budget error,
4 convergence error. A ValueError from a library check on config values,
under any command, is a config error: `main` maps every error to its exit
code once. Each call builds the parser of the invoked subcommand only, and
the full tree only for help, a bad command or an argument that parser
leaves over, so every message is the full tree's; `paslab --help` lists
every subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .alphabets import make_ask
from .airsolver import (
    _power,
    air_sweep,
    find_basic_point,
    gamma_split,
    mirror_pmf,
    shaping_gap,
)
from .channel import AwgnSpec, Dmc, gaussian_dmc, identity_dmc
from .errors import BudgetError, ConfigError, ConvergenceError
from .infomeasures import check_pmf
from .signcode import ExperimentConfig, run_experiment, sign_output_transition
from .typicality import DEFAULT_BUDGET, TypConfig, enumerate_b_typical, enumerate_typical, lemma1_report

MAX_SWEEP_POINTS = 10_000
# kind1 and kind2 are the errors_kind1 and errors_kind2 fields of the sim stats
SIM_CSV_COLUMNS = ("n", "gamma", "eps", "trials", "errors_total", "kind1", "kind2", "rate_achieved", "seed")


# ------------------------------------------------------------------ options


def _int(value) -> int:
    """An int, or an integral float such as 4.0; bools, strings and fractions are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _float(value) -> float:
    """A JSON number; bools and strings such as "0.2" are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _bool(value) -> bool:
    """A JSON boolean only; "no", 0 and null are rejected."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a boolean")
    return value


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class Option:
    """One config key of a subcommand: the reader of its value, its default and
    whether a --key-name flag sets it. A key whose default is None is optional
    and reads null as absent; every other value goes through the reader. A key
    given a value replaces the keys in `replaces`, so giving any of them too
    is an error rather than a silently ignored setting."""

    key: str
    read: Callable
    default: Any = None
    flag: bool = False
    choices: tuple | None = None
    replaces: tuple = ()


_FLAG_TYPES = {_int: int, _float: float}  # argparse type of a flag, by reader

_M = Option("m", _int, 1, flag=True)
_NUM_BINS = Option("num_bins", _int, AwgnSpec.num_bins, flag=True)
_CLIP_SIGMAS = Option("clip_sigmas", _float, AwgnSpec.clip_sigmas)
# sim and b-typ open their tables with the constellation, the amplitude pmf and
# the four channel sources, and close them with the quantizer of the channel
_CHANNEL = (
    _M,
    Option("amplitude_pmf", _floats),
    Option("sigma", _float, flag=True),
    Option("snr_db", _float),
    Option("noiseless", _bool, False),
    Option("w", _floats),
)
_CHANNEL_QUANTIZER = (replace(_NUM_BINS, default=8), _CLIP_SIGMAS)
_CHANNEL_KEYS = tuple(opt.key for opt in (*_CHANNEL, *_CHANNEL_QUANTIZER))

# every config key of every subcommand; a command's flags follow its row order
OPTIONS = {
    "air-sweep": (
        _M,
        Option("snr_start", _float, -2.0, flag=True),
        Option("snr_stop", _float, 10.0, flag=True),
        Option("snr_step", _float, 0.5, flag=True),
        Option("snr_list", _floats, replaces=("snr_start", "snr_stop", "snr_step")),
        _NUM_BINS,
        _CLIP_SIGMAS,
    ),
    "basic-point": (_M, _NUM_BINS, _CLIP_SIGMAS),
    "gamma-split": (_M, Option("snr_db", _float, 9.74, flag=True), _NUM_BINS, _CLIP_SIGMAS),
    "shaping-gap": (_M, Option("target_rate", _float, 1.6, flag=True), _NUM_BINS, _CLIP_SIGMAS),
    "typ-dump": (
        Option("pmf", _floats, (0.5, 0.5)),
        Option("n", _int, 4, flag=True),
        Option("eps", _float, 0.1, flag=True),
        Option("budget", _int, DEFAULT_BUDGET, flag=True),
    ),
    "b-typ": (
        *_CHANNEL,
        Option("n", _int, 6, flag=True),
        Option("eps", _float, 0.2, flag=True),
        Option("budget", _int, DEFAULT_BUDGET, flag=True),
        Option("transition", _floats, replaces=_CHANNEL_KEYS),
        Option("pmf", _floats),
        *_CHANNEL_QUANTIZER,
    ),
    "sim": (
        *_CHANNEL,
        Option("eps", _float, 0.1, flag=True),
        Option("n", _int, 8, flag=True),
        Option("gamma", _float, 0.0, flag=True),
        Option("decoder", str, "smd", flag=True, choices=("smd", "bmd")),
        Option("trials", _int, 1000, flag=True),
        Option("seed", _int, 0, flag=True),
        Option("codebook_mode", str, "iid"),
        Option("typ_budget", _int),
        *_CHANNEL_QUANTIZER,
    ),
}


def _load_config(args) -> tuple[dict, dict]:
    """The config of args.command, merged from its table defaults, the --config
    file and the flags given, and the same keys as their readers read them.

    A key is given when the file or a flag sets it to a value other than null;
    a given key that replaces others may not come with any of them."""
    rows = OPTIONS[args.command]
    cfg = {opt.key: opt.default for opt in rows}
    given = set()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                data = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(data)
        given.update(key for key, value in data.items() if value is not None)
    flags = {o.key: getattr(args, o.key) for o in rows if o.flag and getattr(args, o.key) is not None}
    cfg.update(flags)
    given.update(flags)
    for opt in rows:
        clash = [key for key in opt.replaces if key in given]
        if opt.key in given and clash:
            raise ConfigError(f"{opt.key} replaces {', '.join(clash)}; give one or the other")
    values = {}
    for opt in rows:
        value = cfg[opt.key]
        try:
            values[opt.key] = None if value is None and opt.default is None else opt.read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            kind = opt.read.__name__.strip("_")
            raise ConfigError(f"{opt.key}: cannot read {json.dumps(value)} as {kind}") from exc
    return cfg, values


@contextmanager
def _writing(path: str):
    """Report an OSError from writing path as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out_path: str | None, body=b"") -> None:
    """Write text (UTF-8) and then body, any bytes-like ASCII buffer, to
    out_path or to stdout, through one binary stream where stdout has one."""
    if out_path:
        with _writing(out_path), open(out_path, "wb") as f:
            f.write(text.encode())
            f.write(body)
        return
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:  # a text-only stdout, such as an io.StringIO
        sys.stdout.write(text + bytes(body).decode("ascii"))
        return
    sys.stdout.flush()  # anything written as text goes first
    stream.write(text.encode())
    stream.write(body)
    stream.flush()


def _build_channel(v: dict, constellation, p_a: np.ndarray):
    """Channel for sim/b-typ configs from exactly one source: sigma, snr_db,
    explicit rows w, or noiseless: true.

    An snr_db is measured against the symbol pmf mirrored from p_a.
    """
    given = [key for key in ("sigma", "snr_db", "w") if v[key] is not None]
    if v["noiseless"]:
        given.append("noiseless")
    if len(given) != 1:
        got = ", ".join(given) or "none"
        raise ConfigError(f"give exactly one of sigma, snr_db, w or noiseless: true; got {got}")
    if v["noiseless"]:
        return identity_dmc(constellation.points)
    if v["w"] is not None:
        if v["w"].shape[:1] != (constellation.size,):
            raise ConfigError(f"explicit channel needs {constellation.size} rows, got {v['w'].shape}")
        return Dmc(w=v["w"])
    sigma = v["sigma"]
    if sigma is None:
        power = float(mirror_pmf(p_a) @ np.asarray(constellation.points, dtype=float) ** 2)
        sigma = float(np.sqrt(power / _power(v["snr_db"])))
    return gaussian_dmc(constellation.points, sigma, v["num_bins"], v["clip_sigmas"])


def _amplitude_pmf(v: dict, size: int) -> np.ndarray:
    p = v["amplitude_pmf"]
    if p is None:
        return np.full(size, 1.0 / size)
    if p.shape != (size,):
        raise ConfigError(f"amplitude_pmf must have {size} entries, got {p.shape}")
    try:
        return check_pmf(p)
    except ValueError as exc:
        raise ConfigError(f"amplitude_pmf: {exc}") from exc


def _emit_json(out: dict, out_path: str | None) -> None:
    _emit(json.dumps(out, sort_keys=True) + "\n", out_path)


# ---------------------------------------------------------------- air-sweep


def cmd_air_sweep(args, cfg: dict, v: dict) -> None:
    cst = make_ask(v["m"])
    if v["snr_list"] is not None:
        grid = v["snr_list"].ravel().tolist()
    else:
        start, stop, step = v["snr_start"], v["snr_stop"], v["snr_step"]
        if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
            raise ConfigError(f"snr_start, snr_stop and snr_step must be finite, got {start}, {stop}, {step}")
        if step <= 0:
            raise ConfigError(f"snr_step must be positive, got {cfg['snr_step']}")
        if (stop - start) / step >= MAX_SWEEP_POINTS:  # checked before np.arange allocates
            raise ConfigError(f"snr grid would hold more than {MAX_SWEEP_POINTS} points")
        grid = list(np.arange(start, stop + 1e-9, step))
    if not grid:
        raise ConfigError("snr grid is empty")
    spec = AwgnSpec(v["num_bins"], v["clip_sigmas"])
    lines = [f"# config: {json.dumps(cfg, sort_keys=True)}"]
    lines.append("snr_db,capacity,h_a,gamma,mi_uniform,r_bmd_star")
    for snr, row in air_sweep(cst, grid, spec):
        if isinstance(row, Exception):
            print(f"air-sweep: snr {snr:g} dB failed: {row}", file=sys.stderr)
            lines.append(f"{snr:.10g},nan,nan,nan,nan,nan")
            continue
        lines.append(f"{snr:.10g}," + ",".join(f"{x:.12g}" for x in row))
    _emit("\n".join(lines) + "\n", args.out)


# ------------------------------------------------- basic-point / gamma-split


def cmd_basic_point(args, cfg: dict, v: dict) -> None:
    cst, spec = make_ask(v["m"]), AwgnSpec(v["num_bins"], v["clip_sigmas"])
    snr, rate = find_basic_point(cst, spec)
    _emit_json({"config": cfg, "snr_db": snr, "rate": rate}, args.out)


def cmd_gamma_split(args, cfg: dict, v: dict) -> None:
    cst, spec = make_ask(v["m"]), AwgnSpec(v["num_bins"], v["clip_sigmas"])
    h_a, gamma = gamma_split(cst, v["snr_db"], spec)
    _emit_json({"config": cfg, "h_a": h_a, "gamma": gamma, "rate": h_a + gamma}, args.out)


def cmd_shaping_gap(args, cfg: dict, v: dict) -> None:
    cst, spec = make_ask(v["m"]), AwgnSpec(v["num_bins"], v["clip_sigmas"])
    gap = shaping_gap(cst, v["target_rate"], spec)
    _emit_json({"config": cfg, "gap_db": gap}, args.out)


# ----------------------------------------------------------- typ-dump / b-typ


def _member_lines(members: np.ndarray, alphabet_size: int):
    """One newline-terminated ASCII line per row of an (N, n) member array, as
    a bytes-like buffer: its letters as digits for alphabets of at most 10
    letters, an (N, n + 1) uint8 array, and comma-separated indices above
    that."""
    if alphabet_size > 10:
        return "".join(",".join(map(str, row)) + "\n" for row in members.tolist()).encode()
    text = np.empty((len(members), members.shape[1] + 1), dtype=np.uint8)
    np.add(members, ord("0"), out=text[:, :-1])
    text[:, -1] = ord("\n")
    return text


def cmd_typ_dump(args, cfg: dict, v: dict) -> None:
    ts = enumerate_typical(v["pmf"], TypConfig(n=v["n"], eps=v["eps"], budget=v["budget"]))
    header = {"config": cfg, "entropy": ts.h, "count": ts.count, **ts.bounds._asdict()}
    _emit(json.dumps(header, sort_keys=True) + "\n", args.out, _member_lines(ts.members, len(ts.pmf)))


def cmd_b_typ(args, cfg: dict, v: dict) -> None:
    if v["transition"] is not None:
        trans, pmf = v["transition"], v["pmf"]
        if pmf is None:
            raise ConfigError("explicit transition needs an explicit pmf")
    else:
        cst = make_ask(v["m"])
        pmf = _amplitude_pmf(v, cst.num_amplitudes)
        trans = sign_output_transition(cst, _build_channel(v, cst, pmf))
    b = enumerate_b_typical(pmf, trans, TypConfig(n=v["n"], eps=v["eps"], budget=v["budget"]))
    report = lemma1_report(b)
    header = {"config": cfg, "h_u": b.base_set.h, "count": b.count, "exact": b.exact}
    header.update(report)
    # members of one type class share their probability: format each kept class's once
    labels = {k: f" {b.class_probs[k].prob:.10g}\n".encode() for k in np.flatnonzero(b.class_kept).tolist()}
    lines = bytes(_member_lines(b.members, len(pmf))).splitlines()
    body = b"".join(line + labels[k] for line, k in zip(lines, b.member_class.tolist()))
    _emit(json.dumps(header, sort_keys=True) + "\n", args.out, body)


# ------------------------------------------------------------------------ sim


def cmd_sim(args, cfg: dict, v: dict) -> None:
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    cst = make_ask(v["m"])
    pmf = _amplitude_pmf(v, cst.num_amplitudes)
    keys = ("eps", "n", "gamma", "decoder", "trials", "seed", "codebook_mode", "typ_budget")
    exp = ExperimentConfig(
        constellation=cst,
        dmc=_build_channel(v, cst, pmf),
        amplitude_pmf=tuple(float(p) for p in pmf),
        **{key: v[key] for key in keys},
    )
    stats = run_experiment(exp, threads=args.threads)
    summary = stats.to_dict()
    _emit_json({"config": cfg, "stats": summary}, args.out)
    if args.csv:
        row = {**summary, "kind1": summary["errors_kind1"], "kind2": summary["errors_kind2"]}
        fresh = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        with _writing(args.csv), open(args.csv, "a", encoding="utf-8") as f:
            if fresh:
                f.write(",".join(SIM_CSV_COLUMNS) + "\n")
            f.write(",".join(f"{row[c]}" for c in SIM_CSV_COLUMNS) + "\n")


# ---------------------------------------------------------------------- main

COMMANDS = {
    "air-sweep": (cmd_air_sweep, "rate curves over an SNR grid (CSV)"),
    "basic-point": (cmd_basic_point, "SNR where shaped amplitudes alone reach capacity"),
    "gamma-split": (cmd_gamma_split, "capacity split H(A) + gamma at an SNR"),
    "shaping-gap": (cmd_shaping_gap, "SNR penalty of uniform inputs at a target rate"),
    "typ-dump": (cmd_typ_dump, "enumerate a typical set with bound checks"),
    "b-typ": (cmd_b_typ, "enumerate a conditioned typical set with a lemma report"),
    "sim": (cmd_sim, "random sign-coding decode experiment"),
}


def _add_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """p with the options of subcommand name, dispatching to its command."""
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output path (default stdout)")
    for opt in OPTIONS[name]:
        if opt.flag:
            flag = "--" + opt.key.replace("_", "-")
            p.add_argument(flag, dest=opt.key, type=_FLAG_TYPES.get(opt.read), choices=opt.choices)
    if name == "sim":
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--csv", help="append a summary row to this CSV file")
    p.set_defaults(command=name, func=COMMANDS[name][0])
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or the parser of `command` alone: the
    subparser the full tree would hand the arguments after the command name,
    with the same prog, usage, help and messages."""
    if command is not None:
        return _add_options(argparse.ArgumentParser(prog=f"paslab {command}"), command)
    ap = argparse.ArgumentParser(prog="paslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading command name needs its own parser only; anything else (help,
    # a bad or missing command) and any argument that parser leaves over
    # (which the full tree reports as its own error) gets the full tree
    args = extra = None
    if argv and argv[0] in COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        args.func(args, *_load_config(args))
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
