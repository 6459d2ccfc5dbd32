import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paslab import typicality
from paslab.alphabets import make_ask
from paslab.channel import gaussian_dmc
from paslab.errors import BudgetError
from paslab.infomeasures import entropy, log2_safe
from paslab.signcode import sign_output_transition
from paslab.typicality import (
    LOG_SLACK,
    BTypicalSet,
    TypConfig,
    conditional_typical_prob,
    empirical_rate,
    enumerate_b_typical,
    enumerate_typical,
    is_jointly_typical,
    is_typical,
    lemma1_report,
)

from oracle import (
    b_typical_oracle,
    cond_typical_prob_oracle,
    jointly_typical_oracle,
    lemma1_oracle,
    member_probs_ok_oracle,
    seq_prob,
    seq_rate,
    typical_count_by_composition,
    typical_set_oracle,
)

BSC01 = [[0.9, 0.1], [0.1, 0.9]]


def _rows(members):
    """The rows of an (N, n) member array as tuples, to compare with the oracles."""
    return [tuple(row) for row in members.tolist()]


def test_config_validation():
    with pytest.raises(ValueError):
        TypConfig(n=0, eps=0.1)
    with pytest.raises(ValueError):
        TypConfig(n=4, eps=0.0)
    with pytest.raises(ValueError):
        TypConfig(n=4, eps=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        TypConfig(n=4, eps=float("inf"))
    with pytest.raises(ValueError, match="budget must be positive, got 0"):
        TypConfig(n=4, eps=0.1, budget=0)
    for knob in ("seed", "mc_samples"):  # the estimate is a function of the type class alone
        with pytest.raises(TypeError):
            TypConfig(n=4, eps=0.1, **{knob: 1})


def test_empirical_rate_matches_oracle():
    p = (0.2, 0.3, 0.5)
    for seq in [(0,), (2, 2, 2), (0, 1, 2, 1)]:
        assert empirical_rate(seq, p) == pytest.approx(seq_rate(seq, p), abs=1e-12)


def test_empirical_rate_zero_prob_symbol():
    assert empirical_rate((0, 1), (0.0, 1.0)) == float("inf")
    with pytest.raises(ValueError):
        empirical_rate((), (0.5, 0.5))


def test_typical_set_binary_n4():
    # (0.3, 0.7), n=4, eps=0.1: only the single-zero compositions qualify
    ts = enumerate_typical((0.3, 0.7), TypConfig(n=4, eps=0.1))
    assert ts.h == pytest.approx(0.8812908992306927, abs=1e-12)
    assert ts.members.tolist() == [
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    assert ts.bounds.typical_prob == pytest.approx(0.4116, abs=1e-12)
    assert ts.bounds.upper_ok and ts.bounds.member_prob_ok
    # typical mass < 1 - eps, so the cardinality lower bound is not claimed
    assert not ts.bounds.lower_applicable


@pytest.mark.parametrize(
    "pmf,n,eps",
    [
        ((0.3, 0.7), 4, 0.1),
        ((0.3, 0.7), 7, 0.25),
        ((0.2, 0.3, 0.5), 4, 0.2),
        ((0.5, 0.25, 0.25), 5, 0.15),
        # rates 1 and 2 are inside the box only through its slack, and their
        # p(u) outside the slackened probability bounds
        ((0.5, 0.25, 0.25), 2, 0.5 - 0.9e-12),
    ],
)
def test_enumerate_typical_matches_oracle(pmf, n, eps):
    members, mass = typical_set_oracle(pmf, n, eps)
    ts = enumerate_typical(pmf, TypConfig(n=n, eps=eps))
    assert _rows(ts.members) == members
    # the class sums against the oracle's member-by-member sum and check
    assert ts.bounds.typical_prob == pytest.approx(mass, abs=1e-12)
    assert ts.bounds.member_prob_ok == member_probs_ok_oracle(members, pmf, n, eps)
    count, mass2 = typical_count_by_composition(pmf, n, eps)
    assert ts.count == count
    assert ts.bounds.typical_prob == pytest.approx(mass2, abs=1e-10)


def test_uniform_pmf_everything_typical():
    ts = enumerate_typical((0.25,) * 4, TypConfig(n=3, eps=0.05))
    assert ts.count == 64
    assert ts.bounds.typical_prob == pytest.approx(1.0, abs=1e-12)
    assert ts.bounds.lower_applicable and ts.bounds.lower_ok
    assert ts.bounds.member_prob_ok


def _assert_member_array(members, n):
    assert members.dtype == np.uint8
    assert members.ndim == 2 and members.shape[1] == n
    assert members.flags.c_contiguous
    assert not members.flags.writeable


def test_member_arrays():
    cfg = TypConfig(n=5, eps=0.25)
    ts = enumerate_typical((0.4, 0.6), cfg)
    bt = enumerate_b_typical((0.4, 0.6), [[0.7, 0.3], [0.3, 0.7]], cfg)
    assert 0 < bt.count < ts.count
    for s in (ts, bt, bt.base_set):
        _assert_member_array(s.members, 5)
        assert s.count == len(s.members)
    # one result per class of the typical set, and each member's class
    assert isinstance(bt.class_probs, tuple) and len(bt.class_probs) == len(bt.base_set.class_firsts)
    assert bt.member_class.shape == (bt.count,) and not bt.member_class.flags.writeable
    assert all(bt.class_kept[bt.member_class])


def test_empty_sets_have_zero_rows():
    # one letter per sequence: rates 1.74 and 0.51 both miss H = 0.88 by more than 0.1
    ts = enumerate_typical((0.3, 0.7), TypConfig(n=1, eps=0.1))
    assert ts.members.shape == (0, 1) and ts.count == 0
    _assert_member_array(ts.members, 1)
    bt = enumerate_b_typical((0.3, 0.7), [[0.95, 0.05], [0.05, 0.95]], TypConfig(n=6, eps=0.25))
    assert bt.members.shape == (0, 6) and bt.member_class.shape == (0,)
    _assert_member_array(bt.members, 6)
    assert lemma1_report(bt)["b_count"] == 0


def test_members_of_a_wide_alphabet_widen_past_uint8():
    ts = enumerate_typical(np.full(300, 1 / 300), TypConfig(n=1, eps=0.1))
    assert ts.members.dtype == np.uint16
    assert ts.members.tolist() == [[i] for i in range(300)]


def test_is_typical_against_membership():
    cfg = TypConfig(n=5, eps=0.2)
    ts = enumerate_typical((0.3, 0.7), cfg)
    member_set = set(_rows(ts.members))
    for idx in range(2**5):
        seq = tuple((idx >> k) & 1 for k in range(5))
        assert is_typical(seq, (0.3, 0.7), cfg) == (seq in member_set)


def test_enumeration_budget_error():
    with pytest.raises(BudgetError):
        enumerate_typical((0.5, 0.5), TypConfig(n=30, eps=0.1))
    # the exception carries the required count
    try:
        enumerate_typical((0.5, 0.5), TypConfig(n=30, eps=0.1))
    except BudgetError as e:
        assert e.needed == 2**30


def test_budget_bounds_the_members_listed():
    # 2^10 sequences, 11 classes, and 1,013 typical members
    pmf, cfg = (0.4, 0.6), TypConfig(n=10, eps=0.25)
    count = enumerate_typical(pmf, cfg).count
    assert count == 1013
    assert enumerate_typical(pmf, TypConfig(n=10, eps=0.25, budget=count)).count == count
    with pytest.raises(BudgetError) as info:
        enumerate_typical(pmf, TypConfig(n=10, eps=0.25, budget=count - 1))
    assert info.value.needed == count


def test_class_budget_is_checked_before_anything_is_allocated(monkeypatch):
    def no_classes(*a, **k):
        raise AssertionError("a composition class was drawn")

    monkeypatch.setattr(typicality, "_block_types", no_classes)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            enumerate_typical(np.full(64, 1 / 64), TypConfig(n=8, eps=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.needed == math.comb(71, 63) == 10_639_125_640
    assert peak < 64 * 1024


BRUTE_FORCE_CASES = {
    # id: (pmf, n, eps)
    "zero-prob-letter": ((0.3, 0.0, 0.7), 7, 0.2),
    "one-letter": ((1.0,), 5, 0.1),
    "n1": ((0.2, 0.3, 0.5), 1, 0.9),
    "empty": ((0.3, 0.7), 1, 0.1),
    "11-letters": ((0.05, 0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.15), 4, 0.2),
    "k4-n9": ((0.1, 0.2, 0.3, 0.4), 9, 0.2),
}


@pytest.mark.parametrize("case", list(BRUTE_FORCE_CASES))
def test_class_enumeration_matches_brute_force(case):
    pmf, n, eps = BRUTE_FORCE_CASES[case]
    members, _ = typical_set_oracle(pmf, n, eps)
    ts = enumerate_typical(pmf, TypConfig(n=n, eps=eps))
    assert _rows(ts.members) == members
    _assert_member_array(ts.members, n)
    assert ts.count == len(members) == typical_count_by_composition(pmf, n, eps)[0]
    assert (ts.count == 0) == (case == "empty")
    # the oracle's own left-to-right mass drifts by 2e-13 over the 79,894
    # members of k4-n9, so its member probabilities are summed exactly
    probs = [seq_prob(u, pmf) for u in members]
    assert abs(ts.bounds.typical_prob - math.fsum(probs)) <= 1e-15
    assert ts.bounds.member_prob_ok == member_probs_ok_oracle(members, pmf, n, eps)
    # every member is a reordering of its class's first member, and shares its p(u)
    np.testing.assert_array_equal(ts.class_firsts[ts.member_class], np.sort(ts.members, axis=1))
    _assert_member_array(ts.class_firsts, n)
    np.testing.assert_array_equal(ts.class_sizes, np.bincount(ts.member_class, minlength=len(ts.class_firsts)))
    np.testing.assert_allclose(ts.class_prob[ts.member_class], probs, rtol=1e-13, atol=0)


def test_jointly_typical_matches_oracle():
    # correlated pair, every aligned sequence combination at n=4
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    jdict = {(a, b): joint[a, b] for a in range(2) for b in range(2)}
    cfg = TypConfig(n=4, eps=0.35)
    for ia in range(16):
        for ib in range(16):
            sa = tuple((ia >> k) & 1 for k in range(4))
            sb = tuple((ib >> k) & 1 for k in range(4))
            want = jointly_typical_oracle((sa, sb), jdict, (2, 2), 0.35)
            assert is_jointly_typical((sa, sb), joint, cfg) == want


def test_jointly_typical_needs_all_boxes():
    # marginally typical pair that fails the joint box: X = Y has H(XY) = 1,
    # so anti-aligned uniform-looking sequences flunk only the pair test
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    cfg = TypConfig(n=4, eps=0.1)
    sa = (0, 1, 0, 1)
    assert is_jointly_typical((sa, sa), joint, cfg)
    sb = (1, 0, 1, 0)
    assert not is_jointly_typical((sa, sb), joint, cfg)


def test_jointly_typical_validates_shapes():
    joint = np.full((2, 2), 0.25)
    cfg = TypConfig(n=3, eps=0.1)
    with pytest.raises(ValueError):
        is_jointly_typical(((0, 1, 0),), joint, cfg)
    with pytest.raises(ValueError):
        is_jointly_typical(((0, 1, 0), (0, 1)), joint, cfg)


def test_conditional_prob_exact_matches_oracle():
    cfg = TypConfig(n=6, eps=0.3)
    p = (0.3, 0.7)
    for u in [(1, 1, 1, 1, 1, 0), (0, 1, 1, 0, 1, 1), (1, 1, 1, 1, 1, 1)]:
        res = conditional_typical_prob(u, p, BSC01, cfg)
        assert res.exact
        assert res.prob == pytest.approx(cond_typical_prob_oracle(u, p, BSC01, 0.3), abs=1e-12)


def test_conditional_prob_atypical_input_is_zero():
    # all-zeros is far outside the typical set at this eps
    res = conditional_typical_prob((0,) * 6, (0.3, 0.7), BSC01, TypConfig(n=6, eps=0.1))
    assert res.prob == 0.0 and res.exact


def _type_count(u, transition):
    """prod over input letters a of C(n_a + s_a - 1, s_a - 1): the conditional
    types of V given u, with s_a the outputs a reaches."""
    t = np.asarray(transition)
    letter_counts = np.bincount(u, minlength=len(t))
    return math.prod(math.comb(m + s - 1, s - 1) for m, s in zip(letter_counts, (t > 0).sum(axis=1)))


MC_U = (0, 1, 1, 0, 1, 1, 0, 1, 1, 1)  # 3 zeros and 7 ones: C(4, 1) * C(8, 1) = 32 types over BSC01


def test_conditional_prob_mc_agrees_with_exact():
    p = (0.3, 0.7)
    exact = conditional_typical_prob(MC_U, p, BSC01, TypConfig(n=10, eps=0.3))
    mc = conditional_typical_prob(MC_U, p, BSC01, TypConfig(n=10, eps=0.3, budget=31))
    assert exact.exact and not mc.exact
    stderr = math.sqrt(mc.prob * (1 - mc.prob) / typicality.MC_SAMPLES)
    assert stderr > 0
    assert abs(mc.prob - exact.prob) <= 4 * stderr + 1e-12


def test_conditional_prob_mc_deterministic():
    cfg = TypConfig(n=10, eps=0.3, budget=16)
    a = conditional_typical_prob(MC_U, (0.3, 0.7), BSC01, cfg)
    b = conditional_typical_prob(MC_U, (0.3, 0.7), BSC01, cfg)
    assert a == b and not a.exact


def test_conditional_prob_mc_is_a_function_of_the_type_class():
    cfg = TypConfig(n=10, eps=0.3, budget=16)
    want = conditional_typical_prob(sorted(MC_U), (0.3, 0.7), BSC01, cfg)
    assert not want.exact and 0 < want.prob < 1
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.permutation(MC_U)
        assert conditional_typical_prob(u, (0.3, 0.7), BSC01, cfg) == want
    # every arrangement of a short class: C(3, 1)^2 = 9 types, above the budget
    small = TypConfig(n=4, eps=0.3, budget=8)
    probs = {conditional_typical_prob(u, (0.3, 0.7), BSC01, small) for u in set(permutations((0, 0, 1, 1)))}
    assert len(probs) == 1 and not probs.pop().exact


@pytest.mark.parametrize("case", ["zero-cells", "m2-sign-output-n-distinct", "binary-n10"])
def test_exact_iff_the_conditional_types_fit_the_budget(case):
    pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
    u = _class_firsts(pmf, TypConfig(n=n, eps=eps))[0]
    count = _type_count(u, transition)
    assert count < len(transition[0]) ** n  # the count, not the |V|^n grid, sets the rule
    want = conditional_typical_prob(u, pmf, transition, TypConfig(n=n, eps=eps))
    at = conditional_typical_prob(u, pmf, transition, TypConfig(n=n, eps=eps, budget=count))
    below = conditional_typical_prob(u, pmf, transition, TypConfig(n=n, eps=eps, budget=count - 1))
    assert at.exact and at == want
    assert not below.exact


def test_conditional_prob_validates_transition():
    cfg = TypConfig(n=4, eps=0.2)
    with pytest.raises(ValueError, match="transition must be 2 rows"):
        conditional_typical_prob((0, 1, 0, 1), (0.5, 0.5), [[0.7, 0.7], [0.5, 0.5]], cfg)
    with pytest.raises(ValueError, match="transition must be 2 rows"):  # before the empty typical set
        enumerate_b_typical((0.3, 0.7), [[1.5, -0.5], [0.5, 0.5]], TypConfig(n=1, eps=0.1))
    with pytest.raises(ValueError):
        conditional_typical_prob((0, 1, 0), (0.5, 0.5), BSC01, cfg)


def _grid_prob(u, pmf, transition, config):
    """Pr{(u, V) jointly typical | u} by scanning every one of the |V|^n output
    sequences: the exact engine the method of types replaced, kept as its
    reference."""
    p_u = np.asarray(pmf, dtype=float)
    t = np.asarray(transition, dtype=float)
    u = np.asarray(u, dtype=np.intp)
    n, kv = config.n, t.shape[1]
    joint = p_u[:, None] * t
    p_v = joint.sum(axis=0)
    h_v, h_uv = entropy(p_v), entropy(joint)
    eps = config.eps + LOG_SLACK
    grid = np.array(list(product(range(kv), repeat=n)), dtype=np.intp)  # lexicographic
    rows = np.arange(n)
    rv = -log2_safe(p_v)[grid].sum(axis=1) / n
    ruv = -log2_safe(joint)[u][rows, grid].sum(axis=1) / n
    ok = (np.abs(rv - h_v) <= eps) & (np.abs(ruv - h_uv) <= eps)
    return min(float(np.exp2(log2_safe(t)[u][rows, grid[ok]].sum(axis=1)).sum()), 1.0)


def _sign_transition(m, sigma, num_bins):
    cst = make_ask(m)
    dmc = gaussian_dmc(np.asarray(cst.points, float), sigma=sigma, num_bins=num_bins)
    return sign_output_transition(cst, dmc)


def _class_firsts(pmf, config):
    """The first member of every composition class of the typical set."""
    ts = enumerate_typical(pmf, config)
    _, first = np.unique(ts.member_class, return_index=True)
    return ts.members[np.sort(first)]


TYPE_ENGINE_CASES = {
    # id: (pmf, transition, n, eps)
    "m1-sign-output": ((0.5, 0.5), _sign_transition(1, 0.45, 2), 6, 0.1),
    "m1-sign-output-3-bins": ((0.7, 0.3), _sign_transition(1, 0.6, 3), 5, 0.3),
    "m2-sign-output-n-distinct": ((0.25,) * 4, _sign_transition(2, 0.3, 2), 4, 0.3),
    "m2-sign-output-eps0.6": ((0.1, 0.2, 0.3, 0.4), _sign_transition(2, 0.5, 2), 3, 0.6),
    "zero-cells": ((0.3, 0.3, 0.4), [[0.5, 0.5, 0, 0], [0, 0.2, 0.8, 0], [0.1, 0, 0.6, 0.3]], 5, 0.4),
    "zero-column": ((0.5, 0.5), [[0.7, 0.0, 0.3], [0.2, 0.0, 0.8]], 6, 0.2),
    "three-letter-n-distinct": ((0.3, 0.3, 0.4), [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], 3, 0.5),
    "n1": ((0.5, 0.5), BSC01, 1, 0.6),
    "binary-n10": ((0.4, 0.6), [[0.6, 0.4], [0.4, 0.6]], 10, 0.25),
}


@pytest.mark.parametrize("case", sorted(TYPE_ENGINE_CASES))
def test_type_engine_matches_grid_scan(case):
    pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
    cfg = TypConfig(n=n, eps=eps)
    firsts = _class_firsts(pmf, cfg)
    assert len(firsts) > 0
    if case.endswith("n-distinct"):
        assert max(len(set(u.tolist())) for u in firsts) == n
    probs = []
    for u in firsts:
        res = conditional_typical_prob(u, pmf, transition, cfg)
        want = _grid_prob(u, pmf, transition, cfg)
        assert res.exact
        assert abs(res.prob - want) <= 2e-15, (u, res.prob, want)
        keep = 1.0 - eps - LOG_SLACK
        assert (res.prob >= keep) == (want >= keep)
        probs.append(res.prob)
    assert max(probs) > 0


@pytest.mark.parametrize("case", ["m2-sign-output-n-distinct", "zero-cells", "binary-n10"])
def test_type_engine_chunks_bound_memory_and_agree(monkeypatch, case):
    pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
    cfg = TypConfig(n=n, eps=eps)
    firsts = _class_firsts(pmf, cfg)
    want = [conditional_typical_prob(u, pmf, transition, cfg).prob for u in firsts]
    monkeypatch.setattr(typicality, "CHUNK", 5)  # below the blocks' sizes: every split runs
    got = [conditional_typical_prob(u, pmf, transition, cfg).prob for u in firsts]
    assert got == pytest.approx(want, abs=2e-15)
    t = np.asarray(transition, dtype=float)
    joint = np.asarray(pmf)[:, None] * t
    lut_v = log2_safe(joint.sum(axis=0))
    for u in firsts:
        sizes = [len(count) for count, _ in typicality._conditional_types(u, t, joint, lut_v)]
        assert max(sizes) <= 5 and sum(sizes) == _type_count(u, transition)


def test_type_engine_is_no_further_from_exact_than_grid():
    pmf, transition, n, eps = TYPE_ENGINE_CASES["binary-n10"]
    cfg = TypConfig(n=n, eps=eps)
    shape = (len(pmf), len(transition[0]))
    joint = {(a, b): pmf[a] * transition[a][b] for a in range(shape[0]) for b in range(shape[1])}
    weight = [[Fraction(x) for x in row] for row in transition]  # the floats' exact values
    for u in _class_firsts(pmf, cfg).tolist():
        exact = sum(
            (math.prod(weight[a][b] for a, b in zip(u, v))
             for v in product(range(shape[1]), repeat=n)
             if jointly_typical_oracle((u, v), joint, shape, eps)),
            Fraction(0),
        )
        engine = conditional_typical_prob(u, pmf, transition, cfg).prob
        grid = _grid_prob(u, pmf, transition, cfg)
        assert abs(Fraction(engine) - exact) <= abs(Fraction(grid) - exact), u


def test_type_engine_scans_no_sequence_grid():
    # 2^20 input and 2^20 output sequences, over a budget that holds only the
    # 1,350 typical members (one, two or three 1s), the 21 composition classes
    # and each class's at most 18 * 4 conditional types: neither side scans
    # a sequence grid
    pmf, n = (0.9, 0.1), 20
    cfg = TypConfig(n=n, eps=0.3, budget=1350)
    ts = enumerate_typical(pmf, cfg)
    assert ts.count == cfg.budget < 2**n
    assert sorted(set(ts.members.sum(axis=1).tolist())) == [1, 2, 3]
    firsts = _class_firsts(pmf, cfg)
    res = [conditional_typical_prob(u, pmf, BSC01, cfg) for u in firsts]
    assert all(r.exact for r in res) and max(r.prob for r in res) > 0


def test_b_typical_matches_oracle():
    p = (0.4, 0.6)
    t = [[0.6, 0.4], [0.4, 0.6]]
    orc = b_typical_oracle(p, t, 6, 0.25)
    bt = enumerate_b_typical(p, t, TypConfig(n=6, eps=0.25))
    assert _rows(bt.members) == [u for u, _ in orc]
    assert bt.count == 56
    assert bt.exact
    for (u, pr), cp in zip(orc, _member_probs(bt), strict=True):
        assert cp == pytest.approx(pr, abs=1e-12)
    # the report's class sums and checks against member-by-member ones; in the
    # second case the rejected classes' p(u) lie outside the probability
    # bounds and the kept ones' inside, so p1_ok reads the kept classes only
    cases = [(p, t, 6, 0.25), ((0.5, 0.25, 0.25), [[1, 0], [0.25, 0.75], [0.25, 0.75]], 2, 0.5 - 0.9e-12)]
    for pmf, trans, n, eps in cases:
        rep = lemma1_report(enumerate_b_typical(pmf, trans, TypConfig(n=n, eps=eps)))
        want = lemma1_oracle(pmf, trans, n, eps)
        for key in ("b_mass", "p2_mass", "joint_typical_mass"):
            assert abs(rep[key] - want[key]) <= 1e-12
        assert rep["p1_ok"] and want["p1_ok"]
        assert rep["b_count"] == want["b_count"]


def test_b_typical_can_be_empty():
    # harsh eps leaves no sequence with conditional mass >= 1 - eps
    bt = enumerate_b_typical((0.3, 0.7), [[0.95, 0.05], [0.05, 0.95]], TypConfig(n=6, eps=0.25))
    assert bt.count == 0
    assert isinstance(bt, BTypicalSet)


def test_b_typical_subset_of_typical():
    bt = enumerate_b_typical((0.4, 0.6), [[0.6, 0.4], [0.4, 0.6]], TypConfig(n=6, eps=0.25))
    base = set(_rows(bt.base_set.members))
    assert set(_rows(bt.members)) <= base


def test_lemma1_report_bounds_hold():
    # n=12 instance where the conditioned set keeps nearly all typical mass
    bt = enumerate_b_typical((0.4, 0.6), [[0.6, 0.4], [0.4, 0.6]], TypConfig(n=12, eps=0.25))
    rep = lemma1_report(bt)
    assert rep["b_count"] == 3796
    assert rep["p1_ok"]
    assert rep["large_n_proxy"]
    assert rep["p2_ok"] and rep["p2_mass"] <= 0.25
    assert rep["p3_upper_ok"] and rep["p3_lower_ok"]
    assert rep["joint_typical_mass"] == pytest.approx(0.9637, abs=2e-4)


def test_lemma1_report_gates_small_n():
    # same channel at n=6 misses the mass proxy; bounds report without claiming
    bt = enumerate_b_typical((0.4, 0.6), [[0.7, 0.3], [0.3, 0.7]], TypConfig(n=6, eps=0.25))
    rep = lemma1_report(bt)
    assert not rep["large_n_proxy"]
    assert 0.0 <= rep["p2_mass"] <= 1.0
    assert rep["b_count"] == bt.count


def _b_typical_per_member(pmf, transition, config):
    """The per-member loop the class cache replaced: one conditional test per
    typical sequence, kept as the reference."""
    base = enumerate_typical(pmf, config)
    kept = []
    for u in base.members:
        res = conditional_typical_prob(u, pmf, transition, config)
        if res.prob >= 1.0 - config.eps - LOG_SLACK:
            kept.append((u, res.prob))
    return kept


def _composition(u, k):
    return tuple(np.bincount(u, minlength=k).tolist())


def _member_probs(bt):
    """Each kept member's conditional probability, class_probs[member_class]."""
    return [bt.class_probs[k].prob for k in bt.member_class.tolist()]


ASK8 = make_ask(2)
ASK8_TRANSITION = sign_output_transition(
    ASK8, gaussian_dmc(np.asarray(ASK8.points, float), sigma=0.3, num_bins=2)
)


@pytest.mark.parametrize(
    "pmf,transition,n,eps",
    [
        ((0.4, 0.6), [[0.6, 0.4], [0.4, 0.6]], 8, 0.25),
        ((0.2, 0.3, 0.5), [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], 5, 0.4),
        ((0.4, 0.3, 0.2, 0.1), ASK8_TRANSITION, 4, 0.2),
    ],
    ids=["binary", "three-letter", "m2-sign-output"],
)
def test_b_typical_class_cache_matches_per_member_loop(pmf, transition, n, eps):
    cfg = TypConfig(n=n, eps=eps)
    want = _b_typical_per_member(pmf, transition, cfg)
    bt = enumerate_b_typical(pmf, transition, cfg)
    assert bt.exact and bt.count > 0
    assert _rows(bt.members) == [tuple(u.tolist()) for u, _ in want]
    assert len(bt.class_probs) < bt.base_set.count  # some class has several members
    for (_, pr), cp in zip(want, _member_probs(bt), strict=True):
        assert abs(cp - pr) <= 1e-15


def test_b_typical_mc_shares_one_estimate_per_class():
    # four outputs: every typical class has at least C(9, 3) = 84 conditional
    # types, above the budget, while the 2^6 typical scan fits it
    pmf = (0.4, 0.6)
    trans = [[0.4, 0.2, 0.2, 0.2], [0.2, 0.2, 0.2, 0.4]]
    cfg = TypConfig(n=6, eps=0.3, budget=64)
    bt = enumerate_b_typical(pmf, trans, cfg)
    assert not any(res.exact for res in bt.class_probs)
    assert bt.count > len({_composition(u, 2) for u in bt.members})
    # the classes of base_set, by composition: one result each, in class order
    base = bt.base_set
    first, last = {}, {}
    for u in base.members:
        first.setdefault(_composition(u, 2), u)
        last[_composition(u, 2)] = u
    classes = [_composition(u, 2) for u in base.class_firsts]
    assert len(bt.class_probs) == len(classes) and set(classes) == set(first)
    for k, key in enumerate(classes):
        # the estimate is a function of the class: its first and last members agree
        assert bt.class_probs[k] == conditional_typical_prob(first[key], pmf, trans, cfg)
        assert bt.class_probs[k] == conditional_typical_prob(last[key], pmf, trans, cfg)
    for u, k in zip(bt.members, bt.member_class.tolist(), strict=True):
        assert _composition(u, 2) == classes[k]  # so class_probs[member_class] is u's class's
    again = enumerate_b_typical(pmf, trans, cfg)
    np.testing.assert_array_equal(again.members, bt.members)
    np.testing.assert_array_equal(again.member_class, bt.member_class)
    assert again.class_probs == bt.class_probs


def test_lemma1_report_reuses_class_results(monkeypatch):
    pmf, trans = (0.4, 0.6), [[0.7, 0.3], [0.3, 0.7]]
    cfg = TypConfig(n=6, eps=0.25)
    calls = []
    original = typicality.conditional_typical_prob

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(typicality, "conditional_typical_prob", counting)
    bt = enumerate_b_typical(pmf, trans, cfg)
    assert len(calls) == len(bt.class_probs)
    assert bt.count < bt.base_set.count  # rejected members exist
    del calls[:]
    rep = lemma1_report(bt)
    assert calls == []
    monkeypatch.undo()
    want = sum(
        2.0 ** (-cfg.n * empirical_rate(u, pmf))
        * conditional_typical_prob(u, pmf, trans, cfg).prob
        for u in bt.base_set.members
    )
    assert abs(rep["joint_typical_mass"] - want) <= 1e-15


def test_lemma1_report_reads_no_member_array():
    bt = enumerate_b_typical((0.4, 0.6), [[0.7, 0.3], [0.3, 0.7]], TypConfig(n=8, eps=0.25))
    assert 0 < bt.count < bt.base_set.count  # kept and rejected classes
    no_rows = {"members": np.zeros((0, 8), dtype=np.uint8), "member_class": np.zeros(0, dtype=np.int64)}
    bare = dataclasses.replace(bt, **no_rows, base_set=dataclasses.replace(bt.base_set, **no_rows))
    assert lemma1_report(bare) == lemma1_report(bt)


@settings(deadline=None, max_examples=25)
@given(
    p0=st.floats(0.05, 0.95),
    n=st.integers(1, 8),
    eps=st.floats(0.01, 0.5),
)
def test_typical_set_properties(p0, n, eps):
    pmf = (p0, 1.0 - p0)
    ts = enumerate_typical(pmf, TypConfig(n=n, eps=eps))
    assert 0.0 <= ts.bounds.typical_prob <= 1.0 + 1e-12
    assert ts.bounds.upper_ok
    assert ts.bounds.member_prob_ok
    for u in ts.members[:8]:
        assert is_typical(u, pmf, TypConfig(n=n, eps=eps))


@settings(deadline=None, max_examples=15)
@given(
    p0=st.floats(0.1, 0.9),
    cross=st.floats(0.05, 0.45),
    eps=st.floats(0.1, 0.5),
)
def test_b_typical_probs_meet_threshold(p0, cross, eps):
    pmf = (p0, 1.0 - p0)
    t = [[1 - cross, cross], [cross, 1 - cross]]
    bt = enumerate_b_typical(pmf, t, TypConfig(n=5, eps=eps))
    for cp in _member_probs(bt):
        assert cp >= 1 - eps - 1e-9
