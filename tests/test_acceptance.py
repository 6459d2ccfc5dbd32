"""End-to-end acceptance checks.

One test per criterion, each printing a single pass/fail line with the
measured values and their tolerances (run pytest with -s to see the lines on
success; on failure the same line is the assertion message).
"""

import itertools
import math
import time

import numpy as np

from paslab.airsolver import (
    find_basic_point,
    gamma_split,
    mirror_pmf,
    shaping_gap,
    theorem_feasibility,
)
from paslab.alphabets import brgc_label, make_ask
from paslab.channel import Dmc, gaussian_dmc, identity_dmc
from paslab.infomeasures import (
    bmd_cost,
    bmd_rate_unclipped,
    entropy,
    equivocation,
    gmi,
    lm_rate,
    mi_inequality_chain,
    mutual_information,
    product_bit_metric,
    r_bmd,
)
from paslab.signcode import ExperimentConfig, run_experiment
from paslab.typicality import (
    TypConfig,
    enumerate_b_typical,
    enumerate_typical,
    is_jointly_typical,
    lemma1_report,
)

from oracle import (
    b_typical_oracle,
    bit_joint_oracle,
    jointly_typical_oracle,
    table_mi_oracle,
    typical_count_by_composition,
)

ASK4 = make_ask(1)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_01_basic_point_crossing():
    t0 = time.perf_counter()
    snr, rate = find_basic_point(ASK4)
    dt = time.perf_counter() - t0
    ok = abs(snr - 0.72) <= 0.05 and abs(rate - 0.562) <= 0.005 and dt < 30.0
    _report(
        1,
        "basic-point crossing",
        ok,
        f"snr={snr:.4f} dB (want 0.72 +- 0.05), rate={rate:.6f} bit/1D "
        f"(want 0.562 +- 0.005), {dt:.1f} s (budget 30 s)",
    )


def test_02_capacity_split():
    h_a, gamma = gamma_split(ASK4, 9.74)
    total = h_a + gamma
    ok = abs(h_a - 0.90) <= 0.02 and abs(gamma - 0.70) <= 0.02 and abs(total - 1.60) <= 0.01
    _report(
        2,
        "capacity split at 9.74 dB",
        ok,
        f"H(A)={h_a:.4f} (want 0.90 +- 0.02), gamma={gamma:.4f} (want 0.70 +- 0.02), "
        f"sum={total:.4f} (want 1.60 +- 0.01)",
    )


def test_03_shaping_gap():
    gap = shaping_gap(ASK4, 1.6)
    ok = abs(gap - 0.42) <= 0.05
    _report(3, "shaping gap at 1.6 bit/1D", ok, f"gap={gap:.4f} dB (want 0.42 +- 0.05)")


def test_04_algebraic_rate_identities():
    rng = np.random.default_rng(2024)
    worst_lm = worst_gmi = worst_s = worst_lvl = 0.0
    for _ in range(50):
        cst = make_ask(int(rng.integers(1, 3)))
        labels = brgc_label(cst)
        chan = Dmc(w=rng.dirichlet(np.ones(int(rng.integers(2, 7))), size=cst.size))
        p = rng.dirichlet(np.full(cst.size, 2.0))
        p = np.maximum(p, 1e-6)
        p = p / p.sum()

        lm = lm_rate(p, chan, product_bit_metric(p, chan, labels), 1.0, bmd_cost(p, labels))
        worst_lm = max(worst_lm, abs(lm - bmd_rate_unclipped(p, chan, labels)))

        res = gmi(p, chan, chan.w)
        worst_gmi = max(worst_gmi, abs(res.value - mutual_information(p, chan)))
        worst_s = max(worst_s, abs(res.s_star - 1.0))

        # input with independent label levels: the bit-level rate must equal
        # the sum of per-level mutual informations
        qbits = rng.uniform(0.2, 0.8, size=labels.shape[1])
        bits = labels
        p_ind = np.prod(np.where(bits == 1, qbits, 1.0 - qbits), axis=1)
        per_level = sum(
            table_mi_oracle(bit_joint_oracle(p_ind.tolist(), chan.w.tolist(), labels.tolist(), lvl))
            for lvl in range(labels.shape[1])
        )
        worst_lvl = max(worst_lvl, abs(bmd_rate_unclipped(p_ind, chan, labels) - per_level))
    ok = worst_lm <= 1e-9 and worst_gmi <= 1e-6 and worst_s <= 1e-3 and worst_lvl <= 1e-6
    _report(
        4,
        "algebraic rate identities",
        ok,
        f"50 draws: |lm - bmd| <= {worst_lm:.1e} (tol 1e-9), matched-metric "
        f"|gmi - mi| <= {worst_gmi:.1e} (tol 1e-6), |s* - 1| <= {worst_s:.1e} "
        f"(tol 1e-3), independent-level gap <= {worst_lvl:.1e} (tol 1e-6)",
    )


def test_05_order_relations():
    rng = np.random.default_rng(77)
    ok = True
    worst_eq = 0.0
    for _ in range(200):
        cst = make_ask(int(rng.integers(1, 3)))
        labels = brgc_label(cst)
        chan = Dmc(w=rng.dirichlet(np.ones(int(rng.integers(2, 7))), size=cst.size))

        p_full = rng.dirichlet(np.ones(cst.size))
        r = r_bmd(p_full, chan, labels)
        mi = mutual_information(p_full, chan)
        ok &= 0.0 <= r <= mi + 1e-9

        p_sa = rng.dirichlet(np.ones(2 * cst.num_amplitudes)).reshape(2, -1)
        chain = mi_inequality_chain(p_sa, chan, cst)
        ok &= bool(chain["chain_ok"])
        ok &= chain["mi_xy"] - chain["h_a"] <= chain["i_s_ay"] + 1e-9

        # symmetric input: I(X;Y) - H(A) = 1 - H(X|Y) exactly
        p_a = rng.dirichlet(np.ones(cst.num_amplitudes))
        p_x = mirror_pmf(p_a)
        gap = abs(
            (mutual_information(p_x, chan) - entropy(p_a)) - (1.0 - equivocation(p_x, chan))
        )
        worst_eq = max(worst_eq, gap)
    ok = bool(ok) and worst_eq <= 1e-9
    _report(
        5,
        "rate order relations",
        ok,
        f"200 draws: 0 <= R_bmd <= I(X;Y), I(X;Y) - H(A) <= I(S;AY), "
        f"symmetric-input identity gap <= {worst_eq:.1e} (tol 1e-9)",
    )


TYPICAL_INSTANCES = (
    ((0.5, 0.5), 10, 0.1),
    ((0.3, 0.7), 4, 0.1),
    ((0.3, 0.7), 12, 0.2),
    ((0.2, 0.3, 0.5), 8, 0.25),
    ((0.1, 0.2, 0.3, 0.4), 7, 0.2),
    ((0.15, 0.2, 0.25, 0.4), 5, 0.3),
    ((0.1, 0.15, 0.2, 0.25, 0.3), 6, 0.25),
    ((0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.15, 0.15), 5, 0.15),
)

JOINT_INSTANCES = (
    (((0.4, 0.1), (0.1, 0.4)), 5, 0.35),
    (((0.25, 0.1, 0.05), (0.05, 0.2, 0.35)), 4, 0.3),
)

B_INSTANCES = (
    ((0.4, 0.6), ((0.6, 0.4), (0.4, 0.6)), 6, 0.25),
    ((0.3, 0.7), ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)), 5, 0.3),
)


def test_06_typicality_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for pmf, n, eps in TYPICAL_INSTANCES:
        assert len(pmf) ** n <= 100_000
        ts = enumerate_typical(np.asarray(pmf), TypConfig(n=n, eps=eps))
        count, mass = typical_count_by_composition(list(pmf), n, eps)
        ok &= ts.count == count
        ok &= math.isclose(ts.bounds.typical_prob, mass, rel_tol=1e-9, abs_tol=1e-12)
        ok &= bool(ts.bounds.upper_ok) and bool(ts.bounds.member_prob_ok)
        if ts.bounds.lower_applicable:
            ok &= bool(ts.bounds.lower_ok)
        checked += 1

    for joint_rows, n, eps in JOINT_INSTANCES:
        joint = np.asarray(joint_rows)
        shape = joint.shape
        jdict = {idx: float(joint[idx]) for idx in np.ndindex(*shape)}
        cfg = TypConfig(n=n, eps=eps)
        h_joint = entropy(joint)
        count = 0
        mass = 0.0
        for xs in itertools.product(range(shape[0]), repeat=n):
            for ys in itertools.product(range(shape[1]), repeat=n):
                got = is_jointly_typical((xs, ys), joint, cfg)
                ok &= got == jointly_typical_oracle((xs, ys), jdict, shape, eps)
                if got:
                    count += 1
                    mass += math.prod(joint[x, y] for x, y in zip(xs, ys))
        ok &= count <= 2 ** (n * (h_joint + eps)) * (1 + 1e-12)
        if mass >= 1 - eps:
            ok &= count >= (1 - eps) * 2 ** (n * (h_joint - eps)) * (1 - 1e-12)
        checked += 1

    for pmf, trans_rows, n, eps in B_INSTANCES:
        b = enumerate_b_typical(pmf, np.asarray(trans_rows, float), TypConfig(n=n, eps=eps))
        want = dict(b_typical_oracle(list(pmf), [list(r) for r in trans_rows], n, eps))
        rows = [tuple(u) for u in b.members.tolist()]
        ok &= set(rows) == set(want)
        probs = [b.class_probs[k].prob for k in b.member_class.tolist()]
        ok &= all(abs(pr - want[u]) <= 1e-12 for u, pr in zip(rows, probs))
        checked += 1

    b12 = enumerate_b_typical(
        (0.4, 0.6), np.asarray([[0.6, 0.4], [0.4, 0.6]]), TypConfig(n=12, eps=0.25)
    )
    rep = lemma1_report(b12)
    ok &= bool(rep["p1_ok"]) and bool(rep["p2_ok"])
    ok &= rep["p2_mass"] <= 0.25 + 1e-12
    ok &= bool(rep["p3_upper_ok"]) and bool(rep["p3_lower_ok"])
    ok &= bool(rep["large_n_proxy"])
    checked += 1

    dt = time.perf_counter() - t0
    ok = bool(ok) and dt < 60.0
    _report(
        6,
        "typicality oracle equivalence",
        ok,
        f"{checked} instances vs composition-class brute force, bounds on every "
        f"enumeration, lemma properties at n=12 (P2 mass {rep['p2_mass']:.4f} <= 0.25), "
        f"{dt:.1f} s (budget 60 s)",
    )


def test_07_sign_coding_experiment():
    stats = []

    noiseless = identity_dmc(ASK4.points)
    zero_ok = True
    for kind in ("smd", "bmd"):
        cfg = ExperimentConfig(
            constellation=ASK4, dmc=noiseless, amplitude_pmf=(0.5, 0.5), eps=0.1,
            n=6, gamma=0.25, decoder=kind, trials=2000, seed=5,
        )
        st = run_experiment(cfg)
        stats.append(st)
        zero_ok &= st.errors_total == 0

    # trend at a feasible low-rate operating point: H(A) + gamma < I(X;Y)
    dmc = gaussian_dmc(np.asarray(ASK4.points, float), sigma=10.0, num_bins=2)
    pa = (0.9997, 0.0003)
    feas = theorem_feasibility(pa, 0.0, dmc, brgc_label(ASK4))
    err_rate = {}
    trials = 10_000
    for n in (6, 12):
        cfg = ExperimentConfig(
            constellation=ASK4, dmc=dmc, amplitude_pmf=pa, eps=0.1, n=n,
            gamma=0.0, decoder="smd", trials=trials, seed=42,
        )
        st = run_experiment(cfg)
        stats.append(st)
        err_rate[n] = st.errors_total / st.trials
    p6, p12 = err_rate[6], err_rate[12]
    sigma_diff = math.sqrt(p6 * (1 - p6) / trials + p12 * (1 - p12) / trials)
    trend_ok = bool(feas["smd_ok"]) and p12 <= p6 + 2 * sigma_diff

    noisy = gaussian_dmc(np.asarray(ASK4.points, float), sigma=0.45, num_bins=2)
    cfg = ExperimentConfig(
        constellation=ASK4, dmc=noisy, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=150, seed=3,
    )
    runs = [run_experiment(cfg, threads=t) for t in (1, 3, 1)]
    repro_ok = runs[0] == runs[1] == runs[2]
    stats.append(runs[0])

    union_ok = all(
        st.errors_total <= st.errors_kind1 + st.errors_kind2
        and st.errors_total == st.errors_kind1 + st.errors_kind2 - st.both
        for st in stats
    )
    ok = zero_ok and trend_ok and repro_ok and union_ok
    _report(
        7,
        "sign-coding experiment",
        ok,
        f"(a) union-bound identity on {len(stats)} runs: {union_ok}; "
        f"(b) noiseless errors = 0 (2000 trials, smd+bmd): {zero_ok}; "
        f"(c) error rate {p6:.4f} at n=6 -> {p12:.4f} at n=12 over {trials} trials "
        f"(allowance 2*sigma = {2 * sigma_diff:.4f}, feasibility slack "
        f"{feas['smd_slack']:.1e}): {trend_ok}; "
        f"(d) identical stats for threads 1/3/1: {repro_ok}",
    )


TABLE_8ASK = (
    # x, amplitude, sign, amplitude bits
    (-7, 7, -1, (0, 0)),
    (-5, 5, -1, (0, 1)),
    (-3, 3, -1, (1, 1)),
    (-1, 1, -1, (1, 0)),
    (1, 1, 1, (1, 0)),
    (3, 3, 1, (1, 1)),
    (5, 5, 1, (0, 1)),
    (7, 7, 1, (0, 0)),
)


def test_08_gray_label_table():
    cst = make_ask(2)
    bm = brgc_label(cst)
    ok = True
    for x, a, s, amp_bits in TABLE_8ASK:
        i = cst.points.index(x)
        ok &= abs(x) == a and tuple(bm[i].tolist()) == ((1 if s > 0 else 0),) + amp_bits
    ok &= len({tuple(row) for row in bm.tolist()}) == 8  # each label names one point
    _report(8, "8-ASK reference labeling", bool(ok), "all 8 columns reproduced exactly")
