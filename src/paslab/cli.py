"""Command-line front end.

Every command reads an optional JSON config (--config) merged with flag
overrides, echoes the effective config into its output header, and writes to
stdout or --out. Outputs are deterministic given the config, including across
--threads settings. Exit codes: 0 success, 2 config error, 3 budget error,
4 convergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .alphabets import make_ask
from .airsolver import (
    air_sweep,
    find_basic_point,
    gamma_split,
    mirror_pmf,
    shaping_gap,
)
from .channel import AwgnSpec, Dmc, gaussian_dmc, identity_dmc
from .errors import BudgetError, ConfigError, ConvergenceError
from .infomeasures import check_pmf
from .signcode import ExperimentConfig, build_shaping_layer, run_experiment, sign_output_transition
from .typicality import TypConfig, enumerate_b_typical, enumerate_typical, lemma1_report

MAX_SWEEP_POINTS = 10_000
SIM_CSV_COLUMNS = (
    "n",
    "gamma",
    "eps",
    "trials",
    "errors_total",
    "kind1",
    "kind2",
    "rate_achieved",
    "seed",
)


def _merge_config(defaults: dict, path: str | None, overrides: dict) -> dict:
    cfg = dict(defaults)
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(data)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _config_line(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True)


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _typed(cfg: dict, key: str, kind):
    """cfg[key] converted by kind (int, float or _float_array); a value kind
    rejects is a config error."""
    try:
        return kind(cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {cfg[key]!r} as {kind.__name__}") from exc


def _build_channel(cfg: dict, constellation, p_a: np.ndarray):
    """Channel for sim/b-typ configs: noiseless, explicit rows, or quantized AWGN.

    An snr_db is measured against the symbol pmf mirrored from p_a.
    """
    if cfg.get("noiseless"):
        return identity_dmc(constellation.points)
    try:
        if cfg.get("w") is not None:
            w = _typed(cfg, "w", _float_array)
            if w.shape[:1] != (constellation.size,):
                raise ConfigError(f"explicit channel needs {constellation.size} rows, got {w.shape}")
            return Dmc(w=w, input_points=constellation.points)
        if (cfg.get("sigma") is None) == (cfg.get("snr_db") is None):
            raise ConfigError("give exactly one of sigma or snr_db (or noiseless: true)")
        if cfg["sigma"] is not None:
            sigma = _typed(cfg, "sigma", float)
        else:
            power = float(mirror_pmf(p_a) @ np.asarray(constellation.points, dtype=float) ** 2)
            sigma = float(np.sqrt(power / 10.0 ** (_typed(cfg, "snr_db", float) / 10.0)))
        return gaussian_dmc(
            constellation.points,
            sigma,
            _typed(cfg, "num_bins", int),
            _typed(cfg, "clip_sigmas", float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _amplitude_pmf(cfg: dict, size: int) -> np.ndarray:
    if cfg.get("amplitude_pmf") is None:
        return np.full(size, 1.0 / size)
    p = _typed(cfg, "amplitude_pmf", _float_array)
    if p.shape != (size,):
        raise ConfigError(f"amplitude_pmf must have {size} entries, got {p.shape}")
    try:
        return check_pmf(p)
    except ValueError as exc:
        raise ConfigError(f"amplitude_pmf: {exc}") from exc


def _make_constellation(cfg: dict):
    try:
        return make_ask(_typed(cfg, "m", int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _awgn_spec(cfg: dict) -> AwgnSpec:
    num_bins = _typed(cfg, "num_bins", int)
    if num_bins < 2:
        raise ConfigError(f"num_bins must be >= 2, got {num_bins}")
    clip_sigmas = _typed(cfg, "clip_sigmas", float)
    if not (math.isfinite(clip_sigmas) and clip_sigmas >= 0):
        raise ConfigError(f"clip_sigmas must be finite and >= 0, got {clip_sigmas}")
    return AwgnSpec(num_bins=num_bins, clip_sigmas=clip_sigmas)


# ---------------------------------------------------------------- air-sweep


def cmd_air_sweep(args) -> int:
    defaults = {
        "m": 1,
        "snr_start": -2.0,
        "snr_stop": 10.0,
        "snr_step": 0.5,
        "snr_list": None,
        "num_bins": 2000,
        "clip_sigmas": 6.0,
    }
    cfg = _merge_config(
        defaults,
        args.config,
        {
            "m": args.m,
            "snr_start": args.snr_start,
            "snr_stop": args.snr_stop,
            "snr_step": args.snr_step,
            "num_bins": args.num_bins,
        },
    )
    cst = _make_constellation(cfg)
    if cfg["snr_list"] is not None:
        grid = _typed(cfg, "snr_list", _float_array).ravel().tolist()
    else:
        start, stop, step = (_typed(cfg, key, float) for key in ("snr_start", "snr_stop", "snr_step"))
        if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
            raise ConfigError(f"snr_start, snr_stop and snr_step must be finite, got {start}, {stop}, {step}")
        if step <= 0:
            raise ConfigError(f"snr_step must be positive, got {cfg['snr_step']}")
        if (stop - start) / step >= MAX_SWEEP_POINTS:  # checked before np.arange allocates
            raise ConfigError(f"snr grid would hold more than {MAX_SWEEP_POINTS} points")
        grid = list(np.arange(start, stop + 1e-9, step))
    if not grid:
        raise ConfigError("snr grid is empty")
    spec = _awgn_spec(cfg)
    lines = [f"# config: {_config_line(cfg)}"]
    lines.append("snr_db,capacity,h_a,gamma,mi_uniform,r_bmd_star")
    for snr, point in air_sweep(cst, grid, spec):
        if isinstance(point, Exception):
            print(f"air-sweep: snr {snr:g} dB failed: {point}", file=sys.stderr)
            lines.append(f"{snr:.10g},nan,nan,nan,nan,nan")
            continue
        lines.append(
            f"{snr:.10g},{point.capacity:.12g},{point.h_a:.12g},"
            f"{point.gamma:.12g},{point.mi_uniform:.12g},{point.r_bmd_star:.12g}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------- basic-point / gamma-split


def cmd_basic_point(args) -> int:
    defaults = {"m": 1, "num_bins": 2000, "clip_sigmas": 6.0}
    cfg = _merge_config(defaults, args.config, {"m": args.m, "num_bins": args.num_bins})
    cst = _make_constellation(cfg)
    spec = _awgn_spec(cfg)
    try:
        snr, rate = find_basic_point(cst, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = {"config": cfg, "snr_db": snr, "rate": rate}
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    return 0


def cmd_gamma_split(args) -> int:
    defaults = {"m": 1, "snr_db": 9.74, "num_bins": 2000, "clip_sigmas": 6.0}
    cfg = _merge_config(
        defaults, args.config, {"m": args.m, "snr_db": args.snr_db, "num_bins": args.num_bins}
    )
    cst = _make_constellation(cfg)
    spec = _awgn_spec(cfg)
    try:
        h_a, gamma = gamma_split(cst, _typed(cfg, "snr_db", float), spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = {"config": cfg, "h_a": h_a, "gamma": gamma, "rate": h_a + gamma}
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    return 0


def cmd_shaping_gap(args) -> int:
    defaults = {"m": 1, "target_rate": 1.6, "num_bins": 2000, "clip_sigmas": 6.0}
    cfg = _merge_config(
        defaults, args.config, {"m": args.m, "target_rate": args.target_rate, "num_bins": args.num_bins}
    )
    cst = _make_constellation(cfg)
    spec = _awgn_spec(cfg)
    try:
        gap = shaping_gap(cst, _typed(cfg, "target_rate", float), spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = {"config": cfg, "gap_db": gap}
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    return 0


# ----------------------------------------------------------- typ-dump / b-typ


def _format_member(seq, alphabet_size: int) -> str:
    if alphabet_size <= 10:
        return "".join(str(int(v)) for v in seq)
    return ",".join(str(int(v)) for v in seq)


def cmd_typ_dump(args) -> int:
    defaults = {
        "pmf": [0.5, 0.5],
        "n": 4,
        "eps": 0.1,
        "budget": 10_000_000,
    }
    cfg = _merge_config(
        defaults, args.config, {"pmf": None, "n": args.n, "eps": args.eps, "budget": args.budget}
    )
    try:
        ts = enumerate_typical(
            _typed(cfg, "pmf", _float_array),
            TypConfig(
                n=_typed(cfg, "n", int),
                eps=_typed(cfg, "eps", float),
                budget=_typed(cfg, "budget", int),
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = {
        "config": cfg,
        "entropy": ts.h,
        "count": ts.count,
        "typical_prob": ts.bounds.typical_prob,
        "upper_ok": ts.bounds.upper_ok,
        "lower_ok": ts.bounds.lower_ok,
        "lower_applicable": ts.bounds.lower_applicable,
        "member_prob_ok": ts.bounds.member_prob_ok,
    }
    k = len(ts.pmf)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(_format_member(m, k) for m in ts.members)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_b_typ(args) -> int:
    defaults = {
        "m": 1,
        "amplitude_pmf": None,
        "sigma": None,
        "snr_db": None,
        "noiseless": False,
        "w": None,
        "num_bins": 8,
        "clip_sigmas": 6.0,
        "n": 6,
        "eps": 0.2,
        "budget": 10_000_000,
        "mc_samples": 100_000,
        "seed": 0,
        "transition": None,
        "pmf": None,
    }
    cfg = _merge_config(
        defaults,
        args.config,
        {
            "m": args.m,
            "sigma": args.sigma,
            "n": args.n,
            "eps": args.eps,
            "budget": args.budget,
            "mc_samples": args.mc_samples,
            "seed": args.seed,
            "num_bins": args.num_bins,
        },
    )
    if cfg["transition"] is not None:
        trans = _typed(cfg, "transition", _float_array)
        if cfg["pmf"] is None:
            raise ConfigError("explicit transition needs an explicit pmf")
        pmf = _typed(cfg, "pmf", _float_array)
    else:
        cst = _make_constellation(cfg)
        pmf = _amplitude_pmf(cfg, cst.num_amplitudes)
        trans = sign_output_transition(cst, _build_channel(cfg, cst, pmf))
    try:
        tc = TypConfig(
            n=_typed(cfg, "n", int),
            eps=_typed(cfg, "eps", float),
            budget=_typed(cfg, "budget", int),
            mc_samples=_typed(cfg, "mc_samples", int),
            seed=_typed(cfg, "seed", int),
        )
        b = enumerate_b_typical(pmf, trans, tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = lemma1_report(b)
    header = {"config": cfg, "h_u": b.h_u, "count": b.count, "exact": b.exact}
    header.update(report)
    k = len(pmf)
    lines = [json.dumps(header, sort_keys=True)]
    for member, prob in zip(b.members, b.cond_probs):
        lines.append(f"{_format_member(member, k)} {prob:.10g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------------------------ sim


def cmd_sim(args) -> int:
    defaults = {
        "m": 1,
        "amplitude_pmf": None,
        "sigma": None,
        "snr_db": None,
        "noiseless": False,
        "w": None,
        "num_bins": 8,
        "clip_sigmas": 6.0,
        "eps": 0.1,
        "n": 8,
        "gamma": 0.0,
        "decoder": "smd",
        "trials": 1000,
        "seed": 0,
        "codebook_mode": "iid",
        "typ_budget": None,
        "mc_samples": None,
    }
    cfg = _merge_config(
        defaults,
        args.config,
        {
            "m": args.m,
            "sigma": args.sigma,
            "eps": args.eps,
            "n": args.n,
            "gamma": args.gamma,
            "decoder": args.decoder,
            "trials": args.trials,
            "seed": args.seed,
            "num_bins": args.num_bins,
        },
    )
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    cst = _make_constellation(cfg)
    pmf = _amplitude_pmf(cfg, cst.num_amplitudes)
    exp = ExperimentConfig(
        constellation=cst,
        dmc=_build_channel(cfg, cst, pmf),
        amplitude_pmf=tuple(float(v) for v in pmf),
        eps=_typed(cfg, "eps", float),
        n=_typed(cfg, "n", int),
        gamma=_typed(cfg, "gamma", float),
        decoder=str(cfg["decoder"]),
        trials=_typed(cfg, "trials", int),
        seed=_typed(cfg, "seed", int),
        codebook_mode=str(cfg["codebook_mode"]),
        typ_budget=None if cfg["typ_budget"] is None else _typed(cfg, "typ_budget", int),
        mc_samples=None if cfg["mc_samples"] is None else _typed(cfg, "mc_samples", int),
    )
    try:
        stats = run_experiment(exp, threads=args.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = {"config": cfg, "stats": stats.to_dict()}
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    if args.csv:
        row = {
            "n": stats.n,
            "gamma": stats.gamma,
            "eps": stats.eps,
            "trials": stats.trials,
            "errors_total": stats.errors_total,
            "kind1": stats.errors_kind1,
            "kind2": stats.errors_kind2,
            "rate_achieved": stats.rate_achieved,
            "seed": stats.seed,
        }
        fresh = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        with open(args.csv, "a", encoding="utf-8") as f:
            if fresh:
                f.write(",".join(SIM_CSV_COLUMNS) + "\n")
            f.write(",".join(f"{row[c]}" for c in SIM_CSV_COLUMNS) + "\n")
    return 0


# ---------------------------------------------------------------------- main


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="paslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("air-sweep", help="rate curves over an SNR grid (CSV)")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--snr-start", dest="snr_start", type=float)
    p.add_argument("--snr-stop", dest="snr_stop", type=float)
    p.add_argument("--snr-step", dest="snr_step", type=float)
    p.add_argument("--num-bins", dest="num_bins", type=int)
    p.set_defaults(func=cmd_air_sweep)

    p = sub.add_parser("basic-point", help="SNR where shaped amplitudes alone reach capacity")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--num-bins", dest="num_bins", type=int)
    p.set_defaults(func=cmd_basic_point)

    p = sub.add_parser("gamma-split", help="capacity split H(A) + gamma at an SNR")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--snr-db", dest="snr_db", type=float)
    p.add_argument("--num-bins", dest="num_bins", type=int)
    p.set_defaults(func=cmd_gamma_split)

    p = sub.add_parser("shaping-gap", help="SNR penalty of uniform inputs at a target rate")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--target-rate", dest="target_rate", type=float)
    p.add_argument("--num-bins", dest="num_bins", type=int)
    p.set_defaults(func=cmd_shaping_gap)

    p = sub.add_parser("typ-dump", help="enumerate a typical set with bound checks")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_typ_dump)

    p = sub.add_parser("b-typ", help="enumerate a conditioned typical set with a lemma report")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--num-bins", dest="num_bins", type=int)
    p.set_defaults(func=cmd_b_typ)

    p = sub.add_parser("sim", help="random sign-coding decode experiment")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--decoder", choices=("smd", "bmd"))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--num-bins", dest="num_bins", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", help="append a summary row to this CSV file")
    p.set_defaults(func=cmd_sim)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
