import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from paslab import cli
from paslab.cli import COMMANDS, OPTIONS, SIM_CSV_COLUMNS, _bool, _float, _floats, _int, build_parser, main
from paslab.errors import ConvergenceError
from paslab.typicality import TypConfig, enumerate_typical


def run_cli(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_typ_dump_header_matches_body(capsys):
    rc, out, err = run_cli(["typ-dump", "--n", "3", "--eps", "0.2"], capsys)
    assert rc == 0 and err == ""
    lines = out.strip().split("\n")
    header = json.loads(lines[0])
    assert header["count"] == 8
    assert header["entropy"] == pytest.approx(1.0)
    assert header["upper_ok"] and header["lower_ok"] and header["member_prob_ok"]
    body = lines[1:]
    assert len(body) == header["count"]
    assert all(len(s) == 3 and set(s) <= {"0", "1"} for s in body)


def test_typ_dump_config_file(tmp_path, capsys):
    cfg = tmp_path / "typ.json"
    cfg.write_text(json.dumps({"pmf": [0.3, 0.7], "n": 4, "eps": 0.1}))
    rc, out, _ = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    header = json.loads(lines[0])
    assert header["count"] == 4
    assert header["typical_prob"] == pytest.approx(0.4116)
    assert header["lower_applicable"] is False
    assert len(lines) - 1 == 4


def test_typ_dump_budget_exit_code(capsys):
    rc, out, err = run_cli(["typ-dump", "--n", "30"], capsys)
    assert rc == 3
    assert out == ""
    assert "budget exceeded" in err


def test_typ_dump_lists_a_large_n_set_by_class(tmp_path, capsys):
    # 2^48 sequences, far over the budget; in it, the 49 composition classes
    # and the 18,473 members of the 4 typical ones, with no more than three 1s
    cfg = tmp_path / "typ.json"
    cfg.write_text(json.dumps({"pmf": [0.98, 0.02], "n": 48, "eps": 0.3}))
    rc, out, err = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    header = json.loads(lines[0])
    assert header["count"] == len(lines) - 1 == 18473
    assert header["config"]["budget"] < 2**48
    for key in ("lower_applicable", "lower_ok", "upper_ok", "member_prob_ok"):
        assert header[key] is True, key
    assert header["typical_prob"] == pytest.approx(0.98452, abs=1e-5)
    assert lines[1:3] == ["0" * 48, "0" * 47 + "1"] and lines[-1] == "111" + "0" * 45


def test_point_mass_entropy_prints_positive_zero(tmp_path, capsys):
    rc, out, _ = run_cli(["gamma-split", "--m", "0", "--snr-db", "3"], capsys)
    assert rc == 0
    assert '"h_a": 0.0,' in out
    assert math.copysign(1.0, json.loads(out)["h_a"]) == 1.0
    cfg = tmp_path / "typ.json"
    cfg.write_text(json.dumps({"pmf": [1.0], "n": 3}))
    rc, out, _ = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 0
    assert '"entropy": 0.0,' in out and out.endswith("\n000\n")


@pytest.mark.parametrize("pmf", ["null", "1", "[[0.5, 0.5]]", "[NaN, 0.5]"])
def test_typ_dump_rejects_malformed_pmf(tmp_path, capsys, pmf):
    cfg = tmp_path / "typ.json"
    cfg.write_text(f'{{"pmf": {pmf}, "n": 3}}')  # json.load accepts a bare NaN
    rc, out, err = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert "config error" in err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"fooo": 1}))
    rc, _, err = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "unknown config keys: fooo" in err


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc, _, err = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "config error" in err


def test_non_utf8_config_is_a_config_error_naming_the_file(tmp_path, capsys):
    # json.load raised UnicodeDecodeError, which escaped as a traceback
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'\xff\xfe{"n": 3}')
    rc, out, err = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"config error: config file {cfg} is not valid JSON: 'utf-8' codec")


@pytest.mark.parametrize("argv", [["typ-dump"], ["b-typ", "--sigma", "0.45", "--num-bins", "2"]])
def test_class_sizes_past_the_largest_float_exit_3(capsys, argv):
    # a class size overflowed float64 (RuntimeWarning), then int() of the
    # infinite total raised OverflowError: exit 1, where n = 1000 exits 3
    rc, out, err = run_cli([*argv, "--n", "1100", "--eps", "0.1"], capsys)
    assert (rc, out) == (3, "")
    assert err == "budget exceeded: enumeration lists inf typical sequences, budget is 10000000\n"


def test_b_typ_output_is_self_consistent(tmp_path, capsys):
    cfg = tmp_path / "bt.json"
    cfg.write_text(
        json.dumps(
            {"transition": [[0.6, 0.4], [0.4, 0.6]], "pmf": [0.4, 0.6], "n": 6, "eps": 0.25}
        )
    )
    rc, out, _ = run_cli(["b-typ", "--config", str(cfg)], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    header = json.loads(lines[0])
    assert header["count"] == 56
    assert header["exact"] is True
    body = lines[1:]
    assert len(body) == header["count"]
    for line in body:
        member, prob = line.split()
        assert len(member) == 6 and set(member) <= {"0", "1"}
        assert float(prob) >= 1.0 - 0.25 - 1e-9
    for key in ("p1_ok", "p2_mass", "p2_ok", "p3_upper_ok", "p3_lower_ok",
                "large_n_proxy", "joint_typical_mass", "b_mass", "b_count"):
        assert key in header
    assert header["b_count"] == header["count"]


def test_large_n_bounds_bind_on_the_quantized_channel(tmp_path, capsys):
    # at n=16 the typical mass of p_A = (0.7, 0.3) reaches 1 - eps = 0.8, so the
    # cardinality lower bound applies; the amplitudes reach 6 and 7 of the 8
    # sign-output letters, so the largest typical class has 3.4 M conditional
    # types, inside the budget, while the 8^16 output grid is not
    bounds = enumerate_typical((0.7, 0.3), TypConfig(n=16, eps=0.2)).bounds
    assert bounds.lower_applicable and bounds.lower_ok
    cfg = tmp_path / "bt.json"
    cfg.write_text(json.dumps({"amplitude_pmf": [0.7, 0.3]}))
    argv = ["b-typ", "--sigma", "0.45", "--num-bins", "2", "--n", "16", "--eps", "0.2", "--config", str(cfg)]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    header = json.loads(out.partition("\n")[0])
    assert header["exact"] and header["p2_ok"] and header["p3_lower_ok"]
    assert header["count"] > 0


def test_b_typ_transition_requires_pmf(tmp_path, capsys):
    cfg = tmp_path / "bt.json"
    cfg.write_text(json.dumps({"transition": [[0.6, 0.4], [0.4, 0.6]]}))
    rc, _, err = run_cli(["b-typ", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "explicit transition needs an explicit pmf" in err


@pytest.fixture
def sim_config(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {"noiseless": True, "n": 6, "gamma": 0.25, "trials": 50, "eps": 0.1, "seed": 5}
        )
    )
    return cfg


def test_sim_stdout_deterministic_across_threads(sim_config, capsys):
    rc, out1, _ = run_cli(["sim", "--config", str(sim_config)], capsys)
    rc2, out2, _ = run_cli(["sim", "--config", str(sim_config), "--threads", "3"], capsys)
    assert rc == rc2 == 0
    assert out1 == out2
    stats = json.loads(out1)["stats"]
    assert stats["errors_total"] == 0
    assert stats["m_a_count"] == 64
    assert stats["rate_achieved"] == pytest.approx(8 / 6)


def test_sim_csv_append(sim_config, tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    run_cli(["sim", "--config", str(sim_config), "--csv", str(csv)], capsys)
    run_cli(["sim", "--config", str(sim_config), "--csv", str(csv), "--seed", "6"], capsys)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == ",".join(SIM_CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].endswith(",5") and lines[2].endswith(",6")
    assert lines[1].split(",")[0] == "6"  # n column first


def test_sim_trials_zero_exit_code(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"noiseless": True, "trials": 0}))
    rc, _, err = run_cli(["sim", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "trials must be >= 1" in err


def test_sim_gamma_rounding_to_n_exit_code(capsys):
    # gamma 0.6 is below 1, but at n 1 it rounds to n1 = 1: no redundant sign
    argv = ["sim", "--sigma", "0.45", "--n", "1", "--gamma", "0.6", "--eps", "0.5",
            "--num-bins", "2", "--trials", "20"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == ""
    assert "gamma 0.6 at n=1 rounds to n1=1" in err


def test_out_flag_writes_file(sim_config, tmp_path, capsys):
    target = tmp_path / "result.json"
    rc, out, _ = run_cli(
        ["sim", "--config", str(sim_config), "--out", str(target)], capsys
    )
    assert rc == 0
    assert out == ""
    stats = json.loads(target.read_text())["stats"]
    assert stats["errors_total"] == 0


@pytest.mark.parametrize("argv, config", [
    (["typ-dump", "--n", "3", "--eps", "0.2"], {}),
    (["typ-dump"], {"pmf": [0.05] * 10 + [0.5], "n": 2, "eps": 2}),
    (["b-typ", "--sigma", "0.45", "--n", "5", "--eps", "0.1", "--num-bins", "2"], {}),
    (["gamma-split", "--snr", "2"], {}),
], ids=["typ-dump", "typ-dump-11-letters", "b-typ", "gamma-split"])
def test_text_only_stdout_gets_the_out_file_bytes(tmp_path, argv, config):
    # a caller whose stdout has no binary buffer, such as an io.StringIO,
    # reads what --out writes
    if config:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "c.json")]
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == 0
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue().encode() == target.read_bytes()


def test_air_sweep_deterministic(capsys):
    argv = [
        "air-sweep", "--snr-start", "2", "--snr-stop", "3",
        "--snr-step", "0.5", "--num-bins", "200",
    ]
    rc, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc == rc2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "snr_db,capacity,h_a,gamma,mi_uniform,r_bmd_star"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["2", "2.5", "3"]
    caps = [float(r[1]) for r in rows]
    assert caps == sorted(caps)
    for r in rows:
        cap, h_a, gamma, mi_u, r_bmd = map(float, r[1:])
        assert cap == pytest.approx(h_a + gamma, abs=1e-9)
        assert r_bmd <= cap + 1e-9
        assert mi_u <= cap + 1e-9


def test_basic_point_convergence_exit_code(monkeypatch, capsys):
    def fail(*a, **k):
        raise ConvergenceError("stuck")

    monkeypatch.setattr("paslab.cli.find_basic_point", fail)
    rc, _, err = run_cli(["basic-point", "--num-bins", "100"], capsys)
    assert rc == 4
    assert "solver did not converge" in err


def test_gamma_split_newton_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("paslab.airsolver.NEWTON_ITER_PER_MASS", 1)
    rc, out, err = run_cli(["gamma-split", "--m", "2", "--snr-db", "8", "--num-bins", "300"], capsys)
    assert rc == 4 and out == ""
    assert "Newton solve did not converge" in err


def test_gamma_split_below_basic_point_exit_code(capsys):
    rc, _, err = run_cli(
        ["gamma-split", "--snr-db", "-3", "--num-bins", "300"], capsys
    )
    assert rc == 2
    assert "config error" in err


def _forbid(monkeypatch, target: str, message: str) -> None:
    def never(*a, **k):
        raise AssertionError(message)

    monkeypatch.setattr(target, never)


@pytest.mark.parametrize("snr", ["nan", "4000", "-4000"])
def test_gamma_split_rejects_unusable_snr(monkeypatch, capsys, snr):
    _forbid(monkeypatch, "paslab.airsolver.gaussian_rows", "a channel was built for an unusable snr")
    rc, out, err = run_cli(["gamma-split", "--snr-db", snr], capsys)
    assert rc == 2 and out == ""
    assert "no finite positive power budget" in err


def test_gamma_split_rejects_a_quantizer_range_past_the_largest_float(tmp_path, capsys):
    # the mirror-exact rows keep the full channel's finite check: no NaN gamma
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clip_sigmas": 1e308}))
    rc, out, err = run_cli(["gamma-split", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert "config error: channel transition probabilities must be finite" in err


@pytest.mark.parametrize("snr_db", [4000, -4000, 1e308])
@pytest.mark.parametrize("command", ["sim", "b-typ"])
def test_unusable_snr_db_is_a_config_error(monkeypatch, tmp_path, capsys, command, snr_db):
    _forbid(monkeypatch, "paslab.cli.gaussian_dmc", "a channel was built for an unusable snr")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snr_db": snr_db, "n": 4, "eps": 0.1, "num_bins": 2}))
    rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert f"snr {float(snr_db)} dB gives no finite positive power budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["typ-dump", "--n", "3", "--out"], "."),
        (["gamma-split", "--snr-db", "2", "--out"], "."),
        (["typ-dump", "--n", "3", "--out"], "missing/x"),
        (["sim", "--sigma", "0.45", "--n", "6", "--trials", "10", "--num-bins", "2", "--csv"], "."),
    ],
    ids=["typ-dump-out-dir", "gamma-split-out-dir", "out-in-missing-dir", "sim-csv-dir"],
)
def test_unwritable_output_is_a_config_error(tmp_path, capsys, argv, target):
    path = str(tmp_path / target)
    rc, out, err = run_cli([*argv, path], capsys)
    assert rc == 2
    assert f"config error: cannot write {path}: " in err
    assert "Traceback" not in err


def test_air_sweep_reports_unusable_snr_inline(monkeypatch, capsys):
    _forbid(monkeypatch, "paslab.airsolver.gaussian_rows", "a channel was built for an unusable snr")
    rc, out, err = run_cli(["air-sweep", "--snr-start", "4000", "--snr-stop", "4000"], capsys)
    assert rc == 0
    assert out.strip().split("\n")[-1] == "4000,nan,nan,nan,nan,nan"
    assert "snr 4000 dB failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--snr-start", "nan"],
        ["--snr-stop", "inf"],
        ["--snr-step", "nan"],
        ["--snr-step", "1e-300"],
        ["--snr-stop", "1e300"],
    ],
    ids=["nan-start", "inf-stop", "nan-step", "tiny-step", "huge-stop"],
)
def test_air_sweep_rejects_unusable_grid(monkeypatch, capsys, argv):
    _forbid(monkeypatch, "paslab.cli.air_sweep", "solver ran on an unusable grid")
    rc, out, err = run_cli(["air-sweep", *argv], capsys)
    assert rc == 2 and out == ""
    assert "config error" in err


@pytest.mark.parametrize(
    "overrides, argv, message",
    [
        ({"amplitude_pmf": [1.2, -0.2]}, [], "non-negative"),
        ({"amplitude_pmf": [0.5, 0.6]}, [], "pmf sums to 1.1, not 1"),
        ({"codebook_mode": "bogus"}, [], "codebook_mode"),
        ({}, ["--threads", "0"], "threads must be >= 1"),
        ({}, ["--threads", "-3"], "threads must be >= 1"),
    ],
    ids=["negative-pmf", "unnormalised-pmf", "bogus-codebook", "threads-0", "threads-negative"],
)
def test_sim_rejects_bad_input(tmp_path, capsys, overrides, argv, message):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"noiseless": True, "n": 4, "trials": 5, **overrides}))
    rc, out, err = run_cli(["sim", "--config", str(cfg), *argv], capsys)
    assert rc == 2 and out == ""
    assert message in err and "Traceback" not in err


EPS_BASE = {
    "typ-dump": {"n": 3},
    "b-typ": {"sigma": 0.45, "num_bins": 2, "n": 3},
    "sim": {"noiseless": True, "n": 4, "trials": 5},
}


@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(EPS_BASE))
def test_non_finite_eps_exit_code(tmp_path, capsys, command, spelling):
    cfg = tmp_path / "cfg.json"
    base = EPS_BASE[command]
    cfg.write_text(json.dumps(base if spelling == "flag" else {**base, "eps": float("inf")}))  # bare Infinity
    argv = ["--eps", "inf"] if spelling == "flag" else []
    rc, out, err = run_cli([command, "--config", str(cfg), *argv], capsys)
    assert rc == 2 and out == ""
    assert "eps must be finite and positive, got inf" in err


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_sim_negative_seed_names_the_key(monkeypatch, tmp_path, capsys, spelling):
    _forbid(monkeypatch, "paslab.signcode.build_shaping_layer", "the experiment started on a negative seed")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EPS_BASE["sim"], **({"seed": -1} if spelling == "config" else {})}))
    argv = ["--seed", "-1"] if spelling == "flag" else []
    rc, out, err = run_cli(["sim", "--config", str(cfg), *argv], capsys)
    assert rc == 2 and out == ""
    assert "config error: seed must be non-negative, got -1" in err


@pytest.mark.parametrize("budget", [10_000_000, 100], ids=["exact", "monte-carlo"])
def test_b_typ_negative_seed_names_the_key(monkeypatch, tmp_path, capsys, budget):
    # at budget 100 the n=3 estimate falls back to Monte Carlo, which is seeded
    # by the composition of u: a seed is refused by name on either path
    _forbid(monkeypatch, "paslab.typicality.enumerate_typical", "the enumeration started on a negative seed")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EPS_BASE["b-typ"], "budget": budget, "seed": -1}))
    rc, out, err = run_cli(["b-typ", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert "config error: unknown config keys: seed" in err
    argv = ["b-typ", "--sigma", "0.45", "--num-bins", "2", "--n", "3", "--budget", str(budget), "--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed -1" in capsys.readouterr().err


RETIRED_KEYS = [("b-typ", "seed"), ("b-typ", "mc_samples"), ("sim", "mc_samples")]


@pytest.mark.parametrize("command, key", RETIRED_KEYS, ids=[f"{c}-{k}" for c, k in RETIRED_KEYS])
def test_retired_typicality_keys_are_rejected(monkeypatch, tmp_path, capsys, command, key):
    # a typicality estimate is a function of the type class alone: no seed or
    # sample count reaches it, as a flag or as a config key
    _forbid(monkeypatch, "paslab.typicality.enumerate_typical", f"the enumeration started with {key}")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EPS_BASE[command], key: 1}))
    rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert f"config error: unknown config keys: {key}" in err
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3", "--" + key.replace("_", "-"), "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("typ-dump", "budget"), ("b-typ", "budget"), ("sim", "typ_budget")],
)
def test_non_positive_budget_names_the_key(monkeypatch, tmp_path, capsys, command, key):
    _forbid(monkeypatch, "paslab.typicality.enumerate_typical", "the enumeration started on a zero budget")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EPS_BASE[command], key: 0}))
    rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert f"config error: {key} must be positive, got 0" in err


BAD_TRANSITION = [[1.5, -0.5], [0.5, 0.5]]  # rows sum to 1


@pytest.mark.parametrize(
    "transition, n",
    [
        (BAD_TRANSITION, 1),  # the typical set is empty
        (BAD_TRANSITION, 4),
        ([[float("nan"), 0.5], [0.5, 0.5]], 4),
        ([[float("inf"), 0.5], [0.5, 0.5]], 4),
        ([[0.6, 0.3], [0.5, 0.5]], 4),
        ([[0.7, 0.3000000001], [0.5, 0.5]], 4),  # 1e-10 over, past the channels' ROW_TOL
        ([[0.6, 0.4]], 4),
    ],
    ids=["negative-empty-set", "negative", "nan", "inf", "row-sum", "row-sum-1e-10", "shape"],
)
def test_b_typ_rejects_bad_transition_up_front(monkeypatch, tmp_path, capsys, transition, n):
    _forbid(monkeypatch, "paslab.typicality.enumerate_typical", "the enumeration started on a bad transition")
    cfg = tmp_path / "bt.json"
    cfg.write_text(json.dumps({"pmf": [0.3, 0.7], "transition": transition, "n": n, "eps": 0.1}))
    rc, out, err = run_cli(["b-typ", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert "config error: transition must be 2 rows of finite non-negative entries, each summing to 1" in err


@pytest.mark.parametrize("command", ["sim", "b-typ"])
@pytest.mark.parametrize(
    "channel, message",
    [
        ({"clip_sigmas": float("nan"), "sigma": 0.5}, "clip_sigmas must be finite and >= 0, got nan"),
        ({"w": [[0.5, float("nan")]] + [[0.5, 0.5]] * 3}, "channel transition probabilities must be finite"),
    ],
    ids=["nan-clip-sigmas", "nan-w"],
)
def test_nan_channel_exits_with_channel_message(tmp_path, capsys, command, channel, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, **channel}))  # json writes a bare NaN
    rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sim", "b-typ"])
@pytest.mark.parametrize("clip_sigmas", [-100.0, -1.5])
def test_negative_clip_sigmas_exits_2(tmp_path, capsys, command, clip_sigmas):
    # a negative clip shrinks the bin grid inside the points: the quantizer
    # check refuses it for the channel commands as for the rate commands
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clip_sigmas": clip_sigmas}))
    argv = [command, "--config", str(cfg), "--sigma", "0.45", "--n", "4", "--eps", "0.1", "--num-bins", "4"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == ""
    assert f"config error: clip_sigmas must be finite and >= 0, got {clip_sigmas}" in err
    assert "Traceback" not in err


W_FLAT = [[0.5, 0.5]] * 4  # an explicit 4-ASK channel


@pytest.mark.parametrize("command", ["sim", "b-typ"])
@pytest.mark.parametrize(
    "channel, given",
    [
        ({"noiseless": True, "sigma": 0.5}, "sigma, noiseless"),
        ({"w": W_FLAT, "sigma": 0.5}, "sigma, w"),
        ({"sigma": 0.5, "snr_db": 3.0}, "sigma, snr_db"),
        ({"w": W_FLAT, "noiseless": True}, "w, noiseless"),
        ({"noiseless": False}, "none"),
    ],
    ids=["noiseless-sigma", "w-sigma", "sigma-snr", "w-noiseless", "none"],
)
def test_channel_needs_exactly_one_source(tmp_path, capsys, command, channel, given):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, **channel}))
    rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert f"give exactly one of sigma, snr_db, w or noiseless: true; got {given}" in err


STRICT_KEYS = [
    (command, opt.key, opt.read)
    for command, rows in OPTIONS.items()
    for opt in rows
    if opt.read in (_int, _bool, _float, _floats)
]
STRICT_JUNK = {
    _int: [True, "4", 3.7],
    _bool: ["no", 1, None],
    _float: [True, "0.2"],
    # a string or bool leaf at any depth, and rows JSON cannot make a matrix of
    _floats: [["0.5", "0.5"], [True, False], ["2", True], [[0.5, 0.5], [0.5, "0.5"]], [[0.5], [0.5, 0.5]]],
}


@pytest.mark.parametrize("command, key, read", STRICT_KEYS, ids=[f"{c}-{k}" for c, k, _ in STRICT_KEYS])
def test_int_and_bool_keys_are_read_strictly(tmp_path, capsys, command, key, read):
    """Every int, bool, float and float-array key exits 2 on a value of the wrong JSON type."""
    cfg = tmp_path / "cfg.json"
    for value in STRICT_JUNK[read]:
        cfg.write_text(json.dumps({key: value}))
        rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert rc == 2 and out == ""
        assert f"config error: {key}: cannot read {json.dumps(value)} as {read.__name__.strip('_')}\n" in err


BSC_TRANSITION = {"transition": [[0.6, 0.4], [0.4, 0.6]], "pmf": [0.4, 0.6], "n": 4}


@pytest.mark.parametrize(
    "config, argv, clash",
    [
        ({**BSC_TRANSITION, "sigma": 0.3, "m": 2}, [], "m, sigma"),
        ({**BSC_TRANSITION, "noiseless": False, "clip_sigmas": 4.0}, [], "noiseless, clip_sigmas"),
        (BSC_TRANSITION, ["--num-bins", "4"], "num_bins"),
    ],
    ids=["sigma-m", "noiseless-clip", "num-bins-flag"],
)
def test_b_typ_transition_with_channel_keys_exit_code(tmp_path, capsys, config, argv, clash):
    cfg = tmp_path / "bt.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run_cli(["b-typ", "--config", str(cfg), *argv], capsys)
    assert rc == 2 and out == ""
    assert f"config error: transition replaces {clash}; give one or the other" in err


def test_b_typ_transition_with_null_channel_keys_runs(tmp_path, capsys):
    # null reads as absent, so a null channel key is not given
    cfg = tmp_path / "bt.json"
    cfg.write_text(json.dumps({**BSC_TRANSITION, "sigma": None, "w": None}))
    rc, out, _ = run_cli(["b-typ", "--config", str(cfg)], capsys)
    assert rc == 0
    assert json.loads(out.split("\n")[0])["count"] > 0


@pytest.mark.parametrize(
    "config, argv, clash",
    [
        ({"snr_list": [1.0], "snr_start": 0.0}, [], "snr_start"),
        ({"snr_list": [1.0]}, ["--snr-stop", "4", "--snr-step", "1"], "snr_stop, snr_step"),
    ],
    ids=["config-start", "flags-stop-step"],
)
def test_air_sweep_snr_list_with_grid_keys_exit_code(monkeypatch, tmp_path, capsys, config, argv, clash):
    _forbid(monkeypatch, "paslab.cli.air_sweep", "solver ran on a config with ignored keys")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run_cli(["air-sweep", "--config", str(cfg), *argv], capsys)
    assert rc == 2 and out == ""
    assert f"config error: snr_list replaces {clash}; give one or the other" in err


def test_integral_float_reads_as_int(tmp_path, capsys):
    cfg = tmp_path / "typ.json"
    cfg.write_text(json.dumps({"n": 3.0, "eps": 0.2, "budget": 1e7}))
    rc, out, _ = run_cli(["typ-dump", "--config", str(cfg)], capsys)
    assert rc == 0
    header = json.loads(out.split("\n")[0])
    assert header["count"] == 8
    assert header["config"]["n"] == 3.0 and isinstance(header["config"]["n"], float)  # echoed raw


def test_air_sweep_num_bins_one_exit_code(monkeypatch, capsys):
    def never(*a, **k):
        raise AssertionError("solver ran on an invalid quantizer")

    monkeypatch.setattr("paslab.cli.air_sweep", never)
    rc, out, err = run_cli(["air-sweep", "--num-bins", "1"], capsys)
    assert rc == 2 and out == ""
    assert "num_bins must be >= 2" in err


# ------------------------------------------------------------------ parser
# main builds the parser of the invoked subcommand alone; help, a missing or
# unknown command and anything else get the full tree


def _exit(call, capsys):
    """(exit code, stdout, stderr) of a call that ends in argparse's SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    cap = capsys.readouterr()
    return exc.value.code, cap.out, cap.err


def _flags(command):
    flags = ["--config", "--out"] + ["--" + o.key.replace("_", "-") for o in OPTIONS[command] if o.flag]
    return flags + (["--threads", "--csv"] if command == "sim" else [])


def test_top_level_help_lists_every_subcommand(capsys):
    rc, out, err = _exit(lambda: main(["--help"]), capsys)
    assert rc == 0 and err == ""
    assert "{" + ",".join(COMMANDS) + "}" in out
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ") and not line[4].isspace()]
    assert listed == list(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_help_shows_its_flags(capsys, command):
    rc, out, _ = _exit(lambda: main([command, "--help"]), capsys)
    assert rc == 0
    assert out.startswith(f"usage: paslab {command} [-h]")
    assert all(flag in out for flag in _flags(command))
    others = {flag for name in COMMANDS for flag in _flags(name)} - set(_flags(command))
    assert not [flag for flag in others if flag + " " in out]


def test_unknown_command_lists_every_choice(capsys):
    rc, out, err = _exit(lambda: main(["bogus"]), capsys)
    assert rc == 2 and out == ""
    assert "invalid choice: 'bogus'" in err
    choices = err.split("invalid choice: 'bogus'", 1)[1]
    assert all(f"'{name}'" in choices for name in COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["-x", "sim"],
        ["--snr-db", "2", "gamma-split"],
        ["gamma-split", "--threads", "2"],
        ["gamma-split", "extra"],
        ["sim", "--decoder", "foo"],
        ["typ-dump", "--n"],
    ],
    ids=" ".join,
)
def test_usage_errors_match_the_full_tree(capsys, argv):
    # the full tree's message, byte for byte, and exit code 2
    want = _exit(lambda: build_parser().parse_args(argv), capsys)
    got = _exit(lambda: main(argv), capsys)
    assert got == want and got[0] == 2


def test_option_of_another_command_is_unrecognized(capsys):
    rc, out, err = _exit(lambda: main(["gamma-split", "--threads", "2"]), capsys)
    assert rc == 2 and out == ""
    assert err.endswith("paslab: error: unrecognized arguments: --threads 2\n")
    assert "{" + ",".join(COMMANDS) + "}" in err  # the usage line still lists every command


ONE_COMMAND_ARGV = [
    ["gamma-split", "--snr", "2"],
    ["typ-dump", "--config", "c.json", "--n", "9", "--out", "o.txt"],
    ["b-typ", "--sigma", "0.45", "--n", "5", "--eps", "0.1", "--num-bins", "2"],
    ["sim", "--sigma", "0.45", "--num-bins", "2", "--decoder", "bmd", "--trials", "3000", "--threads", "1"],
    ["air-sweep", "--m", "2", "--num-bins", "300"],
]


def test_one_command_parser_reads_as_the_full_tree(capsys):
    # the subparser alone parses what follows the command name into the
    # namespace the full tree gives, and prints the same help
    for argv in ONE_COMMAND_ARGV:
        assert vars(build_parser(argv[0]).parse_args(argv[1:])) == vars(build_parser().parse_args(argv))
    for command in COMMANDS:
        alone = _exit(lambda: build_parser(command).parse_args(["--help"]), capsys)
        assert alone == _exit(lambda: build_parser().parse_args([command, "--help"]), capsys)


@pytest.mark.parametrize("command", [None, *COMMANDS], ids=["full-tree", *COMMANDS])
def test_build_parser_reads_the_terminal_size_once(monkeypatch, command):
    # argparse asks for it on every add_argument unless it is handed a width
    # (the full tree asked 56 times, sim's parser 14)
    lookups = []
    size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        lookups.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    build_parser(command)
    assert len(lookups) <= 1


GAMMA_SPLIT_HELP_60 = """\
usage: paslab gamma-split [-h] [--config CONFIG]
                          [--out OUT] [--m M]
                          [--snr-db SNR_DB]
                          [--num-bins NUM_BINS]

options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON config file
  --out OUT            output path (default stdout)
  --m M
  --snr-db SNR_DB
  --num-bins NUM_BINS
"""


def test_help_wraps_at_the_terminal_width(monkeypatch, capsys):
    # the width comes from COLUMNS as argparse's own lookup takes it, for the
    # one-command parser and the full tree's subparser alike
    monkeypatch.setenv("COLUMNS", "60")
    assert _exit(lambda: main(["gamma-split", "--help"]), capsys) == (0, GAMMA_SPLIT_HELP_60, "")
    assert _exit(lambda: build_parser().parse_args(["gamma-split", "--help"]), capsys) == (0, GAMMA_SPLIT_HELP_60, "")
    _, out, _ = _exit(lambda: main(["--help"]), capsys)
    description = out.split("\n\n")[1].splitlines()
    assert len(description) > 10 and max(map(len, description)) <= 58  # wrapped at COLUMNS - 2


def test_long_option_abbreviation_parses(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gamma_split", lambda cst, snr_db, spec: (0.5, snr_db))
    rc, out, _ = run_cli(["gamma-split", "--snr", "2"], capsys)
    assert rc == 0 and json.loads(out)["gamma"] == 2.0


def test_main_builds_only_the_invoked_parser(monkeypatch, capsys):
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "gamma_split", lambda cst, snr_db, spec: (0.5, snr_db))
    assert run_cli(["gamma-split", "--snr-db", "2"], capsys)[0] == 0
    _exit(lambda: main(["--help"]), capsys)
    assert built == ["gamma-split", None]
    for command in COMMANDS:
        # the subparser alone: it reads the arguments after the command name
        parser = build_parser(command)
        assert parser.prog == f"paslab {command}"
        assert parser.parse_args([]).command == command
        for other in set(COMMANDS) - {command}:
            assert _exit(lambda: parser.parse_args([other]), capsys)[0] == 2
    assert [build_parser().parse_args([c]).command for c in COMMANDS] == list(COMMANDS)


def test_cli_import_leaves_the_thread_pool_out():
    # concurrent.futures (and the logging it imports) loads only for --threads > 1
    code = "import sys, paslab.cli; print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------- config fuzz
# a valid small config with up to two fields replaced by a bad value

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)


def _pmf(size):
    return st.lists(st.integers(1, 5), min_size=size, max_size=size).map(
        lambda w: [v / sum(w) for v in w]
    )


def _rows(count, width):
    return st.lists(_pmf(width), min_size=count, max_size=count)


BAD_PMF = st.one_of(
    st.integers(1, 5).flatmap(_pmf),  # wrong length unless it happens to fit
    st.lists(st.floats(-1, 1), min_size=1, max_size=4),  # negative or unnormalised
    JUNK,
)
SNR = st.one_of(
    st.floats(-30, 40),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 4000.0, -4000.0, 3000.0, -3000.0]),
)
# one fault strategy per config key; each command fuzzes the keys of its OPTIONS table
FAULTS = {
    "m": st.one_of(st.integers(-2, -1), st.integers(7, 9), JUNK),
    "amplitude_pmf": BAD_PMF,
    "sigma": st.one_of(st.floats(-1, 0), JUNK),
    "snr_db": st.one_of(st.floats(-10, 30), JUNK),
    "noiseless": JUNK,
    "w": st.one_of(st.lists(st.lists(st.floats(-1, 1), max_size=3), max_size=4), JUNK),
    "num_bins": st.one_of(st.integers(0, 1), JUNK),
    "clip_sigmas": st.one_of(st.floats(-1, 1), JUNK),
    "n": st.one_of(st.integers(-1, 0), JUNK),
    "eps": st.one_of(st.floats(-0.5, 0), JUNK),
    "seed": st.one_of(st.integers(-3, -1), JUNK),
    "gamma": st.one_of(st.floats(-0.5, -0.01), st.floats(1, 2), JUNK),
    "decoder": st.one_of(st.just("joint"), JUNK),
    "codebook_mode": st.one_of(st.just("bogus"), JUNK),
    "trials": st.one_of(st.integers(-1, 0), JUNK),
    "typ_budget": st.one_of(st.integers(-1, 40), JUNK),
    "budget": st.one_of(st.integers(-1, 40), JUNK),
    "transition": st.one_of(st.lists(st.lists(st.floats(-1, 1), max_size=3), max_size=3), JUNK),
    "pmf": BAD_PMF,
    "snr_list": st.one_of(st.lists(JUNK, max_size=2), JUNK),
    "snr_start": st.one_of(SNR, JUNK),
    "snr_stop": st.one_of(SNR, JUNK),
    "snr_step": st.one_of(st.floats(-1, 0), SNR, JUNK),
    "target_rate": st.one_of(st.floats(-1, 0), st.floats(3, 5), SNR, JUNK),
}


def _faults(command, **overrides):
    """Fault strategies for the keys of OPTIONS[command]; a key with none is left out."""
    strategies = {**FAULTS, **overrides}
    return {opt.key: strategies[opt.key] for opt in OPTIONS[command] if opt.key in strategies}


SIM_FAULTS = _faults("sim")
B_TYP_FAULTS = _faults("b-typ")
EXPLICIT_FAULTS = {key: B_TYP_FAULTS[key] for key in ("transition", "pmf", "n", "eps")}


def _channel(m):
    return st.one_of(
        st.fixed_dictionaries({"sigma": st.floats(0.05, 1.0)}),
        st.fixed_dictionaries({"snr_db": st.floats(0.0, 25.0)}),
        st.just({"noiseless": True}),
        st.fixed_dictionaries({"w": _rows(2 ** (m + 1), 3)}),
    )


def _valid_base(m):
    return st.fixed_dictionaries(
        {
            "m": st.just(m),
            "amplitude_pmf": st.one_of(st.none(), _pmf(2**m)),
            "num_bins": st.integers(2, 3),
            "n": st.integers(1, 4),
            "eps": st.floats(0.05, 0.6),
        }
    )


def _merge(*parts):
    return st.tuples(*parts).map(lambda ds: {k: v for d in ds for k, v in d.items()})


def _with_faults(valid, faults):
    picks = st.lists(st.sampled_from(sorted(faults)), max_size=2, unique=True)
    return _merge(valid, picks.flatmap(lambda keys: st.fixed_dictionaries({k: faults[k] for k in keys})))


SIM_VALID = st.integers(0, 2).flatmap(
    lambda m: _merge(
        _valid_base(m),
        _channel(m),
        st.fixed_dictionaries(
            {
                "gamma": st.floats(0.0, 0.95),
                "decoder": st.sampled_from(["smd", "bmd"]),
                "trials": st.integers(1, 20),
                "seed": st.integers(0, 3),
                "codebook_mode": st.sampled_from(["iid", "linear"]),
            }
        ),
    )
)
B_TYP_CHANNEL = st.integers(0, 2).flatmap(lambda m: _merge(_valid_base(m), _channel(m)))
B_TYP_EXPLICIT = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda kv: st.fixed_dictionaries(
        {
            "transition": _rows(*kv),
            "pmf": _pmf(kv[0]),
            "n": st.integers(1, 4),
            "eps": st.floats(0.05, 0.6),
        }
    )
)
SIM_CONFIGS = _with_faults(SIM_VALID, SIM_FAULTS)
B_TYP_CONFIGS = st.one_of(
    _with_faults(B_TYP_CHANNEL, B_TYP_FAULTS), _with_faults(B_TYP_EXPLICIT, EXPLICIT_FAULTS)
)


def _exit_code_and_stderr(argv: list, config: dict) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(SIM_CONFIGS, st.sampled_from(["1", "2", "0"]))
def test_sim_config_fuzz_keeps_exit_contract(config, threads):
    rc, err = _exit_code_and_stderr(["sim", "--threads", threads], config)
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(B_TYP_CONFIGS)
def test_b_typ_config_fuzz_keeps_exit_contract(config):
    rc, err = _exit_code_and_stderr(["b-typ"], config)
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err


TYP_DUMP_VALID = st.integers(1, 3).flatmap(
    lambda k: st.fixed_dictionaries(
        {"pmf": _pmf(k), "n": st.integers(1, 6), "eps": st.floats(0.01, 0.6)}
    )
)
TYP_DUMP_FAULTS = _faults("typ-dump")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_with_faults(TYP_DUMP_VALID, TYP_DUMP_FAULTS))
def test_typ_dump_config_fuzz_keeps_exit_contract(config):
    rc, err = _exit_code_and_stderr(["typ-dump"], config)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err


# solver commands: small quantizers keep each solve to milliseconds
SOLVER_CLIP_SIGMAS = st.one_of(st.floats(-1, 1), st.sampled_from([float("nan"), float("inf")]), JUNK)
SOLVER_FAULTS = {
    "air-sweep": _faults("air-sweep", clip_sigmas=SOLVER_CLIP_SIGMAS),
    "gamma-split": _faults("gamma-split", clip_sigmas=SOLVER_CLIP_SIGMAS, snr_db=JUNK),
    "basic-point": _faults("basic-point", clip_sigmas=SOLVER_CLIP_SIGMAS),
    "shaping-gap": _faults("shaping-gap", clip_sigmas=SOLVER_CLIP_SIGMAS),
}


def _solver_valid(**fields):
    return st.fixed_dictionaries(
        {"m": st.integers(0, 2), "num_bins": st.integers(2, 60), **fields}
    )


SOLVER_CONFIGS = {
    "air-sweep": _with_faults(
        st.one_of(
            _solver_valid(snr_list=st.lists(SNR, min_size=1, max_size=2)),
            _solver_valid(snr_start=st.floats(-10, 20), snr_stop=st.floats(-10, 21), snr_step=st.floats(0.5, 5)),
        ),
        SOLVER_FAULTS["air-sweep"],
    ),
    "gamma-split": _with_faults(_solver_valid(snr_db=SNR), SOLVER_FAULTS["gamma-split"]),
    "basic-point": _with_faults(_solver_valid(), SOLVER_FAULTS["basic-point"]),
    "shaping-gap": _with_faults(
        _solver_valid(target_rate=st.floats(0.05, 0.95)),  # below 1 bit: valid for every m
        SOLVER_FAULTS["shaping-gap"],
    ),
}


@pytest.mark.parametrize(
    "command, examples",
    [("air-sweep", 60), ("gamma-split", 100), ("basic-point", 15), ("shaping-gap", 15)],
    ids=["air-sweep", "gamma-split", "basic-point", "shaping-gap"],
)
def test_solver_config_fuzz_keeps_exit_contract(command, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(SOLVER_CONFIGS[command])
    def run(config):
        rc, err = _exit_code_and_stderr([command], config)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err

    run()


FUZZED = {
    "sim": [SIM_FAULTS],
    "b-typ": [B_TYP_FAULTS, EXPLICIT_FAULTS],
    "typ-dump": [TYP_DUMP_FAULTS],
    **{command: [faults] for command, faults in SOLVER_FAULTS.items()},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_config_fuzz_covers_every_table_key(command):
    fuzzed = set().union(*FUZZED[command])
    assert fuzzed == {opt.key for opt in OPTIONS[command]}
