import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from paslab import typicality
from paslab.alphabets import make_ask
from paslab.channel import AwgnSpec, gaussian_dmc
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


def test_single_sequence_checks_read_their_inputs_as_their_siblings_do():
    # is_typical ignored config.n, and empirical_rate read a pmf summing to 1.2
    with pytest.raises(ValueError, match="must have length config.n"):
        is_typical([0, 1, 1], (0.5, 0.5), TypConfig(n=4, eps=0.1))
    with pytest.raises(ValueError, match="pmf sums to 1.2"):
        empirical_rate((0, 1), (0.5, 0.7))
    with pytest.raises(ValueError, match="pmf sums to 1.2"):
        is_typical((0, 1), (0.5, 0.7), TypConfig(n=2, eps=0.1))


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
    # the second case puts the class of six 0s and five 1s on its box's edge:
    # summed in its own letter order, (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0) fell
    # outside, though typ-dump lists it
    boundary = ((0.78, 1 - 0.78), TypConfig(n=11, eps=0.42827310441539757))
    for pmf, cfg in (((0.3, 0.7), TypConfig(n=5, eps=0.2)), boundary):
        member_set = set(_rows(enumerate_typical(pmf, cfg).members))
        for idx in range(2**cfg.n):
            seq = tuple((idx >> k) & 1 for k in range(cfg.n))
            assert is_typical(seq, pmf, cfg) == (seq in member_set)


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


def test_class_sizes_past_the_largest_float_exceed_the_budget():
    # at n = 1100 the middle class of two letters holds C(1100, 550) > 1.8e308
    # sequences: the float count overflowed, with a RuntimeWarning, and int()
    # of the infinite total raised OverflowError
    with pytest.raises(BudgetError, match="lists inf typical sequences") as info:
        enumerate_typical((0.5, 0.5), TypConfig(n=1100, eps=0.1))
    assert info.value.needed == math.inf


@pytest.mark.parametrize("eps", [1.0, 5.0])
def test_set_bounds_past_the_largest_float(eps):
    # one letter, one member: the bounds 2^{n(H+eps)} and 2^{-n(H-eps)}
    # overflow a float, and Python's power raised OverflowError on them
    ts = enumerate_typical((1.0,), TypConfig(n=1100, eps=eps))
    assert ts.count == 1
    assert ts.bounds == (True, True, True, True, 1.0)


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


@pytest.mark.parametrize("seed", range(6))
def test_listing_matches_brute_force_on_random_pmfs(seed):
    # 1 to 11 letters, some of probability 0, and n up to 8 while k^n stays
    # small: the members are the brute-force listing, in its lexicographic
    # order, and member i's class is the one whose first member is the
    # letters of member i sorted
    rng = np.random.default_rng(seed)
    for _ in range(8):
        k = int(rng.integers(1, 12))
        n = int(rng.integers(1, min(8, int(math.log(16384, max(k, 2)))) + 1))
        p = rng.random(k) * (rng.random(k) > 0.3)
        p[rng.integers(k)] += 0.1
        pmf, eps = tuple((p / p.sum()).tolist()), float(rng.uniform(0.05, 0.8))
        ts = enumerate_typical(pmf, TypConfig(n=n, eps=eps))
        assert _rows(ts.members) == typical_set_oracle(pmf, n, eps)[0], (pmf, n, eps)
        _assert_member_array(ts.members, n)
        np.testing.assert_array_equal(ts.class_firsts[ts.member_class], np.sort(ts.members, axis=1))


def test_listing_sorts_nothing(monkeypatch):
    # members come out in lexicographic order as they are listed: no member
    # or row sort, and no dedupe by rows
    def no_sort(*args, **kwargs):
        raise AssertionError("enumerate_typical sorted")

    unique = np.unique

    def unique_1d(ar, *args, axis=None, **kwargs):
        if axis is not None:
            raise AssertionError("enumerate_typical deduped rows by sorting")
        return unique(ar, *args, **kwargs)

    for name in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, name, no_sort)
    monkeypatch.setattr(np, "unique", unique_1d)
    for pmf, n, eps in [*BRUTE_FORCE_CASES.values(), ((0.98, 0.02), 48, 0.3)]:
        enumerate_typical(pmf, TypConfig(n=n, eps=eps))


@pytest.mark.parametrize(
    "pmf,n,eps,members", [((0.3, 0.7), 1, 0.1, []), ((1, 0), 5, 0.1, [[0] * 5])], ids=["empty", "one-letter"]
)
def test_listing_shapes_of_an_empty_set_and_one_letter(pmf, n, eps, members):
    ts = enumerate_typical(pmf, TypConfig(n=n, eps=eps))
    assert ts.members.tolist() == ts.class_firsts.tolist() == members
    for a in (ts.members, ts.class_firsts):
        assert a.shape == (len(members), n)
        _assert_member_array(a, n)
    per_class = ((ts.member_class, np.intp, 0), (ts.class_sizes, np.int64, 1), (ts.class_prob, np.float64, 1.0))
    for a, dtype, want in per_class:
        assert a.dtype == dtype and a.tolist() == [want] * len(members) and not a.flags.writeable


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
    with pytest.raises(ValueError, match="letters of sequence 1"):
        is_jointly_typical(((0, 1, 0), (0, 2, 0)), joint, cfg)
    with pytest.raises(ValueError, match="letters of sequence 0"):
        is_jointly_typical(((0, -1, 0), (0, 1, 0)), joint, cfg)


def test_jointly_typical_reads_three_unequal_axes_through_one_label_table():
    # the sequences become one letter per cell of a (2, 3, 2) joint, and each
    # box reads its own axes of that letter back through the label table
    rng = np.random.default_rng(5)
    joint = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
    joint[1, 2, 0] = 0.0  # a dead cell: sequences through it fail
    joint /= joint.sum()
    cells = {idx: float(joint[idx]) for idx in np.ndindex(joint.shape)}
    cfg = TypConfig(n=5, eps=0.4)
    verdicts = []
    for _ in range(300):
        seqs = [rng.integers(k, size=5).tolist() for k in joint.shape]
        verdicts.append(is_jointly_typical(seqs, joint, cfg))
        assert verdicts[-1] == jointly_typical_oracle(seqs, cells, joint.shape, 0.4)
    assert 0 < sum(verdicts) < len(verdicts)


def test_box_test_needs_the_output_box():
    # without the y box a test has nothing to score outputs with: the list is
    # refused up front, not when the first block arrives
    x = np.zeros((3, 1), dtype=np.intp)
    labels = np.arange(2)[:, None]
    with pytest.raises(ValueError, match=r"the box list must hold the output box \(1,\)"):
        typicality.BoxTest(np.full((2, 2), 0.25), ((0,), (0, 1)), labels, x, 0.1)
    test = typicality.BoxTest(np.full((2, 2), 0.25), ((0,), (1,), (0, 1)), labels, x, 0.1)
    assert test.accept(np.zeros((4, 3), dtype=np.intp)).shape == (4, 1)


@pytest.mark.parametrize(
    "seq", [(0, 1, 1, -1), (0.5, 1, 1, 0), (0, 1, 1, 2), (0, 1, 1, math.nan), ("0", "1", "1", "0")]
)
def test_single_sequences_take_letters_only(seq):
    # -1 used to wrap round to the last letter, 0.5 to be truncated to 0 and 2
    # to raise a bare IndexError; every single-sequence check now refuses them
    cfg = TypConfig(n=4, eps=0.3)
    calls = (
        lambda: is_typical(seq, (0.3, 0.7), cfg),
        lambda: empirical_rate(seq, (0.3, 0.7)),
        lambda: conditional_typical_prob(seq, (0.5, 0.5), BSC01, cfg),
        lambda: is_jointly_typical(((0, 1, 1, 0), seq), np.full((2, 2), 0.25), cfg),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"letters of .* must be one or more integers in \[0, 2\)"):
            call()
    # whole numbers of any dtype are letters
    for whole in ((0.0, 1.0, 1.0, 1.0), np.array([0, 1, 1, 1], dtype=np.uint8), (False, True, True, True)):
        assert is_typical(whole, (0.3, 0.7), cfg) == is_typical((0, 1, 1, 1), (0.3, 0.7), cfg)


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


def test_a_boundary_class_gives_every_permutation_its_bits():
    # the class of the membership test's boundary case: the permutation used
    # to score 0.0 and a rate one ulp off its class's
    pmf, cfg = (0.78, 1 - 0.78), TypConfig(n=11, eps=0.42827310441539757)
    for u in ((0,) * 6 + (1,) * 5, (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0)):
        assert empirical_rate(u, pmf).hex() == "0x1.303da4c5edaeap+0"
        assert conditional_typical_prob(u, pmf, BSC01, cfg).prob.hex() == "0x1.650bf60432fdbp-1"


def test_a_shaped_sequence_is_read_flat():
    # conditional_typical_prob sorted a (1, 6) or (2, 3) array row by row and
    # scored 0.0 for it
    cfg, u, v = TypConfig(n=6, eps=0.4), np.array([0, 1, 0, 1, 1, 0]), np.array([0, 1, 1, 1, 0, 0])
    joint = np.full((2, 1), 0.5) * BSC01
    assert conditional_typical_prob(u, (0.5, 0.5), BSC01, cfg).prob.hex() == "0x1.c57f0ed3d859fp-1"
    for shape in ((1, 6), (6, 1), (2, 3)):
        for flat, shaped in (
            (is_typical(u, (0.3, 0.7), cfg), is_typical(u.reshape(shape), (0.3, 0.7), cfg)),
            (empirical_rate(u, (0.3, 0.7)).hex(), empirical_rate(u.reshape(shape), (0.3, 0.7)).hex()),
            (conditional_typical_prob(u, (0.5, 0.5), BSC01, cfg),
             conditional_typical_prob(u.reshape(shape), (0.5, 0.5), BSC01, cfg)),
            (is_jointly_typical((u, v), joint, cfg),
             is_jointly_typical((u.reshape(shape), v.reshape(shape)), joint, cfg)),
        ):
            assert shaped == flat, shape


def test_a_permuted_tuple_keeps_its_joint_verdict():
    # the full box sat on its edge: the pair passed in this order and failed
    # with both sequences permuted by perm
    joint = [[0.23511477828424493, 0.5817743899505615], [0.04211651398588894, 0.1409943177793046]]
    cfg = TypConfig(n=8, eps=1.5033169561234425)
    xs, ys, perm = np.array([0, 1, 1, 1, 1, 0, 0, 1]), np.array([1, 0, 1, 0, 1, 0, 0, 0]), [4, 6, 2, 3, 5, 7, 0, 1]
    assert is_jointly_typical((xs, ys), joint, cfg) == is_jointly_typical((xs[perm], ys[perm]), joint, cfg)


_MAX_N = {2: 16, 3: 10, 4: 8}  # every typical set stays within 2^16 members


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(data=st.data())
def test_every_permutation_gets_its_class_verdict_bit_for_bit(data):
    # eps puts the class of u on its box's edge or just inside it, where a
    # sum in another letter order can land a last bit on the other side
    k = data.draw(st.integers(2, 4))
    pmf = np.array(data.draw(st.lists(st.integers(1, 50), min_size=k, max_size=k)), dtype=float)
    pmf /= pmf.sum()
    n = data.draw(st.integers(1, _MAX_N[k]))
    u = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    first = np.sort(u)
    d = abs(-log2_safe(pmf)[first[None, :]].sum(axis=1)[0] / n - entropy(pmf))
    eps = d + data.draw(st.sampled_from([-1, 1])) * LOG_SLACK
    assume(eps > 0)
    cfg = TypConfig(n=n, eps=eps)
    t = np.array(data.draw(st.lists(st.integers(1, 9), min_size=2 * k, max_size=2 * k)), dtype=float).reshape(k, 2)
    t /= t.sum(axis=1, keepdims=True)
    bt = enumerate_b_typical(pmf, t, cfg)
    hit = np.flatnonzero((bt.base_set.class_firsts == first).all(axis=1))
    want = bt.class_probs[hit[0]] if hit.size else typicality.CondProbResult(0.0, True)
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    joint = pmf[:, None] * t
    rate, verdict = empirical_rate(u, pmf).hex(), is_jointly_typical((u, v), joint, cfg)
    for _ in range(4):
        perm = np.array(data.draw(st.permutations(range(n))))
        assert is_typical(u[perm], pmf, cfg) == bool(hit.size)
        assert empirical_rate(u[perm], pmf).hex() == rate
        got = conditional_typical_prob(u[perm], pmf, t, cfg)
        assert (got.prob.hex(), got.exact) == (want.prob.hex(), want.exact)
        assert is_jointly_typical((u[perm], v[perm]), joint, cfg) == verdict


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


def test_conditional_prob_takes_inputs_at_their_tolerance():
    # a pmf and transition rows each 9e-13 over 1, within the checks' 1e-12:
    # their product p(u, v) sums about 1.8e-12 over 1 and is not checked again
    pmf = (0.5, 0.5 + 9e-13)
    transition = [[0.7, 0.3 + 9e-13], [0.5, 0.5 + 9e-13]]
    for budget in (typicality.DEFAULT_BUDGET, 8):  # exact, then Monte Carlo
        res = conditional_typical_prob((0, 1, 0, 1), pmf, transition, TypConfig(n=4, eps=0.3, budget=budget))
        assert 0 < res.prob <= 1 and res.exact == (budget == typicality.DEFAULT_BUDGET)


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
    scored = []
    pass_mass = typicality._pass_mass

    def counted(test, pieces):
        scored.append(sum(len(mass) for _, mass, _ in pieces))
        return pass_mass(test, pieces)

    monkeypatch.setattr(typicality, "_pass_mass", counted)
    got = [res.prob for res in enumerate_b_typical(pmf, transition, cfg).class_probs]
    assert got == pytest.approx(want, abs=2e-15)
    assert max(scored) <= 5  # one evaluation never holds more than CHUNK types
    pieces, counts = _walk(firsts, pmf, transition, eps)
    assert max(len(mass) for _, mass, _ in pieces) <= 5
    for c, u in enumerate(firsts):
        assert sum(len(mass) for k, mass, _ in pieces if k == c) == counts[c] == _type_count(u, transition)


def _class_test(firsts, pmf, transition, eps):
    """The BoxTest that enumerate_b_typical scores its classes with: the V and
    (U, V) boxes over p(u, v), one candidate per (sorted) class first member."""
    t = np.asarray(transition, dtype=float)
    labels = np.arange(len(pmf))[:, None]  # each letter of u is its own label
    x = np.sort(np.asarray(firsts, dtype=np.intp), axis=1).T
    return typicality.BoxTest(np.asarray(pmf)[:, None] * t, ((1,), (0, 1)), labels, x, eps), t


def _walk(firsts, pmf, transition, eps):
    """The (c, mass, score) pieces that one pass of the engine visits for the
    classes with first members firsts, and each class's type count."""
    test, t = _class_test(firsts, pmf, transition, eps)
    blocks = typicality._letter_blocks(test.x, len(t))
    pieces = list(typicality._type_pieces(test, t, blocks, range(len(firsts))))
    # the V and (U, V) boxes' score rows, one column a type, and its mass
    assert all(score.shape == (2, len(mass)) for _, mass, score in pieces)
    outputs = (t > 0).sum(axis=1).tolist()
    return pieces, [typicality._type_count(b, outputs) for b in blocks]


@pytest.mark.parametrize("case", sorted(TYPE_ENGINE_CASES))
def test_type_engine_walks_the_types_it_counts(case):
    # the count that picks exact over Monte Carlo and the types the engine
    # visits follow one support rule, and both equal the closed form; one
    # pass visits the classes in order
    pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
    firsts = _class_firsts(pmf, TypConfig(n=n, eps=eps))
    pieces, counts = _walk(firsts, pmf, transition, eps)
    order = [c for c, _, _ in pieces]
    assert order == sorted(order) and set(order) == set(range(len(firsts)))
    for c, u in enumerate(firsts):
        assert sum(len(mass) for k, mass, _ in pieces if k == c) == counts[c] == _type_count(u, transition)


@pytest.mark.parametrize("chunk", [typicality.CHUNK, 7], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize("case", sorted(TYPE_ENGINE_CASES))
def test_one_pass_gives_each_class_its_one_candidate_value(monkeypatch, case, chunk):
    # the classes scored together, in shared evaluations, against each class
    # scored alone: equal bit for bit, whatever the evaluations hold
    monkeypatch.setattr(typicality, "CHUNK", chunk)
    pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
    cfg = TypConfig(n=n, eps=eps)
    bt = enumerate_b_typical(pmf, transition, cfg)
    alone = tuple(conditional_typical_prob(u, pmf, transition, cfg) for u in bt.base_set.class_firsts)
    assert bt.class_probs == alone and bt.exact


def test_type_engine_is_no_further_from_exact_than_grid():
    # each type's mass is its count times the product of its table entries,
    # so no exp2 of a log sum rounds it: the engine stays within 4 units of
    # 2^-53 of the exact rational sum, and on binary-n10 no further from it
    # than the grid scan, _grid_prob, whose weights are exp2 of log sums
    # (9.4 units off there)
    for case in ("binary-n10", "three-letter-n-distinct"):
        pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
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
            engine = abs(Fraction(conditional_typical_prob(u, pmf, transition, cfg).prob) - exact)
            assert exact > 0 and engine < 4 * Fraction(1, 2**53) * exact, (case, u)
            if case == "binary-n10":
                assert engine <= abs(Fraction(_grid_prob(u, pmf, transition, cfg)) - exact), u


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
    original = typicality._type_probs

    def counting(test, *args, **kwargs):
        calls.append(test.x.shape[1])
        return original(test, *args, **kwargs)

    monkeypatch.setattr(typicality, "_type_probs", counting)
    bt = enumerate_b_typical(pmf, trans, cfg)
    assert calls == [len(bt.class_probs)]  # one pass over every class
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


CLASS_PROBS = json.loads((Path(__file__).parent / "class_probs.json").read_text())


def _pinned_inputs(config):
    """The pmf and transition that `b-typ` builds from a pinned config: an
    explicit pair, or an ASK constellation's amplitude pmf (uniform unless
    given) and the sign-output transition of its quantized Gaussian channel."""
    if "transition" in config:
        return config["pmf"], config["transition"]
    cst = make_ask(config["m"])
    k = cst.num_amplitudes
    pmf = np.asarray(config.get("amplitude_pmf", np.full(k, 1.0 / k)), dtype=float)
    dmc = gaussian_dmc(cst.points, config["sigma"], config["num_bins"], AwgnSpec.clip_sigmas)
    return pmf, sign_output_transition(cst, dmc)


@pytest.mark.parametrize("case", sorted(CLASS_PROBS))
def test_class_probabilities_hold_bit_for_bit(case):
    # every class's float.hex, one pin list for every SIMD target numpy may
    # dispatch to: the two benchmark b-typ configs, every golden b-typ one
    # (b-typ-4-bins-n7 has classes of more than CHUNK conditional types,
    # summed in slices; b-typ-monte-carlo has every class over its budget),
    # an 8-ASK config of 48 classes and b-typ-long-blocks, whose letter-0
    # blocks hold 28 to 30 letters, so a type's mass is a product of that
    # many table entries
    config, want = CLASS_PROBS[case]["config"], CLASS_PROBS[case]["class_probs"]
    pmf, transition = _pinned_inputs(config)
    cfg = TypConfig(n=config["n"], eps=config["eps"], budget=config.get("budget", typicality.DEFAULT_BUDGET))
    bt = enumerate_b_typical(pmf, transition, cfg)
    assert [[res.prob.hex(), res.exact] for res in bt.class_probs] == want


def test_class_probabilities_cover_the_slices_and_monte_carlo():
    # the pins reach both paths that a class can leave the one-chunk sum by
    counts = {}
    for case in ("b-typ-4-bins-n7", "b-typ-monte-carlo"):
        config = CLASS_PROBS[case]["config"]
        pmf, transition = _pinned_inputs(config)
        firsts = _class_firsts(pmf, TypConfig(n=config["n"], eps=config["eps"]))
        counts[case] = max(_type_count(u, transition) for u in firsts)
    assert counts["b-typ-4-bins-n7"] > typicality.CHUNK
    assert counts["b-typ-monte-carlo"] > CLASS_PROBS["b-typ-monte-carlo"]["config"]["budget"]
    assert not any(exact for _, exact in CLASS_PROBS["b-typ-monte-carlo"]["class_probs"])


@pytest.mark.parametrize("chunk", [typicality.CHUNK, 7], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize("case", ["m2-sign-output-n-distinct", "zero-cells", "three-letter-n-distinct"])
def test_one_pass_draws_each_small_block_once(monkeypatch, case, chunk):
    # a (letter, count) block of at most CHUNK compositions is drawn once per
    # pass, whatever number of classes holds it; a larger one is drawn again
    # on every pass over it
    monkeypatch.setattr(typicality, "CHUNK", chunk)
    pmf, transition, n, eps = TYPE_ENGINE_CASES[case]
    firsts = _class_firsts(pmf, TypConfig(n=n, eps=eps))
    draws, block_types = Counter(), typicality._block_types

    def counted(support, m, scores):
        draws[tuple(support), m, scores.tobytes()] += 1
        return block_types(support, m, scores)

    monkeypatch.setattr(typicality, "_block_types", counted)
    _walk(firsts, pmf, transition, eps)
    small = [math.comb(m + len(s) - 1, len(s) - 1) <= chunk for s, m, _ in draws]
    assert any(small) and all(k == 1 for k, ok in zip(draws.values(), small) if ok)
    shared = Counter((a, m) for b in typicality._letter_blocks(np.sort(firsts, axis=1).T, len(transition)) for a, m in b)
    assert max(shared.values()) > 1  # some block is held by several classes
