"""Checks of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(trace, group):
    proc = _bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    got = {name: block["unit"] for name, block in result["metrics"].items()}
    assert got == want
    assert all(isinstance(b["value"], (int, float)) for b in result["metrics"].values())


def test_benchmark_json_lists_what_the_harness_emits():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_counters_repeat_across_traced_passes(tmp_path):
    cli = run.import_cli()
    ops = workloads.workload_ops("smoke", 5)
    workloads.write_configs(ops, tmp_path)
    expected = workloads.load_expected()
    counters = []
    for _ in range(2):
        result, tracer = run.traced_pass(cli, ops, tmp_path, 5, expected)
        assert result.failures == []
        metrics = tracer.metrics()
        counters.append({name: metrics[name] for name in spans.DETERMINISTIC})
    assert counters[0] == counters[1]
    for name in ("cli.main.calls", "cli.out_bytes", "channel.gaussian_dmc.cells",
                 "typicality.enumerate_typical.seqs_scanned",
                 "typicality.conditional_typical_prob.grid_cells",
                 "signcode.accept_mask.cand_tests"):
        assert counters[0][name] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "rates", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_apply_field_tolerances():
    expected = workloads.load_expected()
    op = workloads.workload_ops("rates", 0)[1]
    ref = expected[op.id]

    def text(**delta):
        return json.dumps({"config": {}, **{k: ref[k] + delta.get(k, 0.0) for k in ref}})

    assert workloads.check(op, text(), ref, 0) == []
    assert workloads.check(op, text(h_a=5e-4, gamma=-5e-4), ref, 0) == []
    assert workloads.check(op, text(rate=2e-6, gamma=2e-6), ref, 0) != []


def test_sim_check_on_other_seeds_keeps_the_union_identity():
    expected = workloads.load_expected()
    op = next(op for op in workloads.workload_ops("coding", 9) if op.command == "sim")
    stats = dict(expected[op.id], seed=workloads.sim_seed(9, 0))
    assert workloads.check(op, json.dumps({"stats": stats}), expected[op.id], 9) == []
    stats["errors_total"] += 1
    assert workloads.check(op, json.dumps({"stats": stats}), expected[op.id], 9) != []


def test_known_readme_failure_names_a_readme_command():
    commands = run.readme_commands(run.ROOT / "README.md")
    assert len(commands) >= 7
    assert set(run.KNOWN_README_FAILURES) <= set(commands)
