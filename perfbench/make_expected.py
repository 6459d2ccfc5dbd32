"""Freeze the reference outputs the benchmark checks against.

    python3 perfbench/make_expected.py

Runs every operation of every workload (coding and smoke at the default
seed) once and writes the fields `workloads.extract` pulls from each output
to expected.json.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads


def main() -> None:
    run.cap_thread_vars()
    cli = run.import_cli()
    work = run.WORK / "expected"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = {}
    for name in (*workloads.WORKLOADS, "smoke"):
        ops = workloads.workload_ops(name, workloads.DEFAULT_SEED)
        workloads.write_configs(ops, work)
        for op in ops:
            if op.id in expected:
                continue
            out = work / f"{op.id}.out"
            code = cli.main(op.full_argv(work, out))
            if code != 0:
                raise SystemExit(f"{op.id} exited with code {code}")
            expected[op.id] = workloads.extract(op.command, out.read_text(encoding="utf-8"))
            print(f"froze {op.id}", flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
