"""Per-layer spans recorded from outside the program.

`Tracer.installed()` wraps the public functions of each paslab module (and
the decoder methods) for the duration of a traced pass. A function is
replaced under every paslab module attribute bound to it, so a call through
`paslab.cli.gaussian_dmc` and one through `paslab.airsolver.gaussian_dmc`
are both recorded. Spans stay in memory; `write` saves them as JSON lines.

Single-threaded only: the benchmark runs every command with `--threads 1`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_out_bytes(counts, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.out_bytes"] += os.path.getsize(path)


def _count_cells(counts, args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    counts["channel.gaussian_dmc.cells"] += len(points) * (int(_arg(args, kwargs, 2, "num_bins")) + 2)


def _count_scanned(counts, args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    counts["typicality.enumerate_typical.seqs_scanned"] += len(result.pmf) ** config.n
    counts["typicality.enumerate_typical.members"] += result.count


def _count_grid(counts, args, kwargs, result):
    if not result.exact:
        counts["typicality.conditional_typical_prob.inexact"] += 1
        return
    config = _arg(args, kwargs, 3, "config")
    cells = len(_arg(args, kwargs, 2, "transition")[0]) ** config.n
    if cells <= config.budget:
        counts["typicality.conditional_typical_prob.grid_cells"] += cells


def _count_kept(counts, args, kwargs, result):
    counts["b_kept"] += result.count
    counts["b_tested"] += result.base_set.count


def _count_trials(counts, args, kwargs, result):
    counts["signcode.trials"] += _arg(args, kwargs, 0, "config").trials


def _count_cand_tests(counts, args, kwargs, result):
    counts["signcode.accept_mask.cand_tests"] += len(result)


# (span name, module, attribute path, counter) for every wrapped callable
TARGETS = (
    ("cli.main", "paslab.cli", "main", _count_out_bytes),
    ("airsolver.gamma_split", "paslab.airsolver", "gamma_split", None),
    ("airsolver.optimize_capacity", "paslab.airsolver", "optimize_capacity", None),
    ("channel.gaussian_dmc", "paslab.channel", "gaussian_dmc", _count_cells),
    ("infomeasures.mutual_information", "paslab.infomeasures", "mutual_information", None),
    ("infomeasures.r_bmd", "paslab.infomeasures", "r_bmd", None),
    ("typicality.enumerate_typical", "paslab.typicality", "enumerate_typical", _count_scanned),
    ("typicality.enumerate_b_typical", "paslab.typicality", "enumerate_b_typical", _count_kept),
    ("typicality.conditional_typical_prob", "paslab.typicality", "conditional_typical_prob", _count_grid),
    ("typicality.lemma1_report", "paslab.typicality", "lemma1_report", None),
    ("signcode.run_experiment", "paslab.signcode", "run_experiment", _count_trials),
    ("signcode.build_shaping_layer", "paslab.signcode", "build_shaping_layer", None),
    ("signcode.decoder_init", "paslab.signcode", "SmdDecoder.__init__", None),
    ("signcode.decoder_init", "paslab.signcode", "BmdDecoder.__init__", None),
    ("signcode.accept_mask", "paslab.signcode", "SmdDecoder.accept_mask", _count_cand_tests),
    ("signcode.accept_mask", "paslab.signcode", "BmdDecoder.accept_mask", _count_cand_tests),
    ("signcode.triple_mask", "paslab.signcode", "SmdDecoder.triple_mask", None),
    ("signcode.triple_mask", "paslab.signcode", "BmdDecoder.triple_mask", None),
)

# every per-layer metric, in BENCHMARK.json order: (name, unit)
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("airsolver.gamma_split.calls", "count"),
    ("airsolver.gamma_split.s", "s"),
    ("airsolver.optimize_capacity.calls", "count"),
    ("airsolver.optimize_capacity.s", "s"),
    ("airsolver.optimize_capacity.self_s", "s"),
    ("channel.gaussian_dmc.calls", "count"),
    ("channel.gaussian_dmc.s", "s"),
    ("channel.gaussian_dmc.cells", "count"),
    ("infomeasures.mutual_information.calls", "count"),
    ("infomeasures.mutual_information.s", "s"),
    ("infomeasures.r_bmd.calls", "count"),
    ("infomeasures.r_bmd.s", "s"),
    ("typicality.enumerate_typical.calls", "count"),
    ("typicality.enumerate_typical.s", "s"),
    ("typicality.enumerate_typical.seqs_scanned", "count"),
    ("typicality.enumerate_typical.members", "count"),
    ("typicality.enumerate_b_typical.calls", "count"),
    ("typicality.enumerate_b_typical.s", "s"),
    ("typicality.enumerate_b_typical.self_s", "s"),
    ("typicality.conditional_typical_prob.calls", "count"),
    ("typicality.conditional_typical_prob.s", "s"),
    ("typicality.conditional_typical_prob.grid_cells", "count"),
    ("typicality.conditional_typical_prob.inexact", "count"),
    ("typicality.lemma1_report.calls", "count"),
    ("typicality.lemma1_report.s", "s"),
    ("typicality.lemma1_report.self_s", "s"),
    ("typicality.lemma1_report.recalls", "count"),
    ("typicality.b_keep_ratio", "ratio"),
    ("signcode.run_experiment.calls", "count"),
    ("signcode.run_experiment.s", "s"),
    ("signcode.run_experiment.self_s", "s"),
    ("signcode.build_shaping_layer.calls", "count"),
    ("signcode.build_shaping_layer.s", "s"),
    ("signcode.decoder_init.calls", "count"),
    ("signcode.decoder_init.s", "s"),
    ("signcode.accept_mask.calls", "count"),
    ("signcode.accept_mask.s", "s"),
    ("signcode.accept_mask.cand_tests", "count"),
    ("signcode.triple_mask.calls", "count"),
    ("signcode.trials", "count"),
    ("signcode.mask_calls_per_trial", "1/trial"),
)

# work counters that must repeat exactly between two traced passes
DETERMINISTIC = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


class Tracer:
    """Spans [id, parent id, name, op, start, end, outermost] and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._active = Counter()

    def _wrap(self, name, fn, counter):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name, self.op, clock(), None,
                    active[name] == 0]
            spans.append(span)
            stack.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                active[name] -= 1
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        restore = []
        modules = [m for k, m in sys.modules.items() if k == "paslab" or k.startswith("paslab.")]
        for name, mod_name, attr, counter in TARGETS:
            owner = sys.modules[mod_name]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[fn_name]
            traced = self._wrap(name, original, counter)
            if cls_path:
                holders = [(owner, fn_name)]
            else:
                holders = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for holder, key in holders:
                restore.append((holder, key, original))
                setattr(holder, key, traced)
        try:
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    def metrics(self) -> dict:
        """Every PER_LAYER metric as {name: value}."""
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        child_time = defaultdict(float)
        for sid, parent, name, op, t0, t1, outer in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        recalls = 0
        for sid, parent, name, op, t0, t1, outer in self.spans:
            calls[name] += 1
            if outer:
                busy[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_time[sid]
            if parent is not None and name == "typicality.conditional_typical_prob":
                recalls += self.spans[parent][2] == "typicality.lemma1_report"
        values = {}
        for metric, _unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = calls[base]
            elif field == "s":
                values[metric] = busy[base]
            elif field == "self_s":
                values[metric] = self_s["cli.main" if base == "cli" else base]
            else:
                values[metric] = self.counts[metric]
        values["typicality.lemma1_report.recalls"] = recalls
        tested = self.counts["b_tested"]
        values["typicality.b_keep_ratio"] = self.counts["b_kept"] / tested if tested else 0.0
        trials = values["signcode.trials"]
        values["signcode.mask_calls_per_trial"] = (
            calls["signcode.accept_mask"] / trials if trials else 0.0
        )
        return values

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "op", "start", "end", "outermost")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
