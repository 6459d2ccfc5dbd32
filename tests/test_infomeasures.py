import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paslab.alphabets import brgc_label, make_ask
from paslab.channel import Dmc, gaussian_dmc, identity_dmc
from paslab.infomeasures import (
    bmd_cost,
    bmd_rate_unclipped,
    entropy,
    equivocation,
    gmi,
    label_joint,
    lm_rate,
    mi_inequality_chain,
    mutual_information,
    product_bit_metric,
    r_bmd,
    sign_amplitude_joint,
)

from oracle import (
    bit_joint_oracle,
    bmd_unclipped_oracle,
    entropy_oracle,
    equivocation_oracle,
    gmi_grid_oracle,
    mi_oracle,
    table_mi_oracle,
)


def random_dmc(rng, nin, nout):
    w = rng.dirichlet(np.ones(nout), size=nin)
    return Dmc(w=w)


def _bit_rates(labels):
    """The rates of a bit labelling, as functions of (input pmf, channel)."""
    return [partial(rate, labels=labels) for rate in (r_bmd, bmd_rate_unclipped, product_bit_metric)]


def test_entropy_closed_forms():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328, abs=1e-14)
    assert entropy([1.0, 0.0]) == 0.0
    assert math.copysign(1.0, entropy([1.0, 0.0])) == 1.0  # not -0.0
    assert entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-14)


def test_entropy_matches_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(rng.integers(2, 9)))
        assert entropy(p) == pytest.approx(entropy_oracle(p), abs=1e-12)


def test_bsc_mutual_information_closed_form():
    eps = 0.11
    w = np.array([[1 - eps, eps], [eps, 1 - eps]])
    want = 1.0 - entropy_oracle([eps, 1 - eps])
    assert mutual_information([0.5, 0.5], w) == pytest.approx(want, abs=1e-14)


def test_mi_and_equivocation_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        nin, nout = rng.integers(2, 6), rng.integers(2, 7)
        d = random_dmc(rng, nin, nout)
        p = rng.dirichlet(np.ones(nin))
        assert mutual_information(p, d) == pytest.approx(
            mi_oracle(p.tolist(), d.w.tolist()), abs=1e-11
        )
        assert equivocation(p, d) == pytest.approx(
            equivocation_oracle(p.tolist(), d.w.tolist()), abs=1e-11
        )


@pytest.mark.parametrize(
    "w", [[[0.5, 0.6], [0.5, 0.5]], [[1.5, -0.5], [0.5, 0.5]]], ids=["row-sum-1.1", "negative-entry"]
)
def test_rates_reject_a_bare_matrix_that_is_not_a_channel(w):
    # unchecked, a uniform input read I(X;Y) = -0.072 and -0.311 bit, and
    # H(X|Y) = 1.047 and 1.311 bit, above H(X) = 1 bit
    for rate in (mutual_information, equivocation, *_bit_rates(brgc_label(make_ask(0)))):
        with pytest.raises(ValueError, match="channel"):
            rate([0.5, 0.5], w)


def test_a_bare_matrix_is_checked_on_the_input_support():
    # a zero row is legal while its input has no mass, for the bit-level
    # rates as for I(X;Y); a non-finite entry never is
    w2 = np.array([[0.3, 0.7], [0.0, 0.0]])
    w4 = np.full((4, 2), 0.5)
    w4[0] = 0.0
    cases = [  # (p, w, m, the product bit metric)
        ([1.0, 0.0], w2, 0, w2),
        ([0.0, 1 / 3, 1 / 3, 1 / 3], w4, 1, np.full((4, 2), 0.25)),
    ]
    for p, w, m, metric in cases:
        labels = brgc_label(make_ask(m))
        assert mutual_information(p, w) == 0.0
        assert r_bmd(p, w, labels) == 0.0
        want = bmd_unclipped_oracle(p, w.tolist(), labels.tolist())
        assert bmd_rate_unclipped(p, w, labels) == pytest.approx(want, abs=1e-12)
        assert product_bit_metric(p, w, labels) == pytest.approx(metric, abs=1e-15)
    assert equivocation([1.0, 0.0], w2) == 0.0
    for rate in (mutual_information, equivocation, *_bit_rates(brgc_label(make_ask(0)))):
        with pytest.raises(ValueError, match="must sum to 1"):
            rate([0.5, 0.5], w2)
        with pytest.raises(ValueError, match="finite"):
            rate([1.0, 0.0], [[0.3, 0.7], [np.nan, 1.0]])


def test_bit_rates_reject_a_label_table_of_another_size():
    # 4-ASK inputs under the 8-ASK table: bmd_cost raised an IndexError
    # ("boolean index did not match") before it read its bit priors through
    # label_joint
    p = np.full(4, 0.25)
    d = gaussian_dmc(make_ask(1).points, 1.0, 8)
    labels = brgc_label(make_ask(2))
    for rate in (partial(bmd_cost, labels=labels), *(partial(f, chan=d) for f in _bit_rates(labels))):
        with pytest.raises(ValueError, match="label table"):
            rate(p)


def test_label_joint_needs_a_one_to_one_bit_table():
    # a repeated word dropped a row's mass (r_bmd read 1.5 bit off a 1-bit
    # input), and a label 2 raised a bare IndexError
    joint = np.full((2, 2), 0.25)
    with pytest.raises(ValueError, match="the same word"):
        label_joint(joint, np.array([[0], [0]]))
    with pytest.raises(ValueError, match="the same word"):
        r_bmd((0.5, 0.5), np.eye(2), np.array([[0], [0]]))
    with pytest.raises(ValueError, match="0/1 bits only"):
        label_joint(joint, np.array([[0], [2]]))
    assert label_joint(np.diag([0.75, 0.25]), np.array([[1], [0]])).tolist() == [[0.0, 0.25], [0.75, 0.0]]


def test_mi_identity_channel_is_input_entropy():
    p = np.array([0.2, 0.3, 0.5])
    d = identity_dmc((0, 1, 2))
    assert mutual_information(p, d) == pytest.approx(entropy(p), abs=1e-12)
    assert equivocation(p, d) == pytest.approx(0.0, abs=1e-12)


def test_bmd_rate_matches_oracle():
    rng = np.random.default_rng(2)
    for m in (1, 2):
        cst = make_ask(m)
        labels = brgc_label(cst)
        for _ in range(10):
            d = random_dmc(rng, cst.size, rng.integers(3, 8))
            p = rng.dirichlet(np.ones(cst.size))
            want = bmd_unclipped_oracle(p.tolist(), d.w.tolist(), labels.tolist())
            assert bmd_rate_unclipped(p, d, labels) == pytest.approx(want, abs=1e-10)
            assert r_bmd(p, d, labels) == pytest.approx(max(0.0, want), abs=1e-10)


def test_r_bmd_clips_negative():
    # near-useless channel with a labeling whose bit levels are strongly
    # dependent: unclipped value goes negative, public value clips at 0
    cst = make_ask(1)
    labels = brgc_label(cst)
    # identical rows: y says nothing, so H(C_i|Y) = H(C_i) = 1 per level while
    # the dependent input keeps H(C) below 2
    w = np.tile([0.25, 0.25, 0.25, 0.25], (4, 1))
    p = np.array([0.45, 0.05, 0.45, 0.05])
    unclipped = bmd_rate_unclipped(p, w, labels)
    assert unclipped == pytest.approx(entropy(p) - 2.0, abs=1e-12)
    assert unclipped < 0
    assert r_bmd(p, w, labels) == 0.0


def test_lm_rate_equals_unclipped_bmd():
    # s=1 with the product bit metric and the bit-prior cost collapses to
    # H(C) - sum H(C_i | Y) exactly
    rng = np.random.default_rng(3)
    for m in (1, 2):
        cst = make_ask(m)
        labels = brgc_label(cst)
        for _ in range(10):
            d = random_dmc(rng, cst.size, rng.integers(3, 9))
            p = rng.dirichlet(np.ones(cst.size))
            metric = product_bit_metric(p, d, labels)
            cost = bmd_cost(p, labels)
            got = lm_rate(p, d, metric, s=1.0, cost=cost)
            want = bmd_rate_unclipped(p, d, labels)
            assert got == pytest.approx(want, abs=1e-9)
    # 8-ASK on 2000 bins: the product metric falls to 1.8e-87 on the support
    cst = make_ask(2)
    labels = brgc_label(cst)
    d = gaussian_dmc(cst.points, 1.0, 2000)
    p = np.full(8, 0.125)
    got = lm_rate(p, d, product_bit_metric(p, d, labels), s=1.0, cost=bmd_cost(p, labels))
    assert got == pytest.approx(bmd_rate_unclipped(p, d, labels), abs=1e-9)


def test_gmi_matched_metric_recovers_mi():
    rng = np.random.default_rng(4)
    for _ in range(10):
        nin = int(rng.integers(2, 6))
        d = random_dmc(rng, nin, int(rng.integers(2, 7)))
        p = rng.dirichlet(np.ones(nin))
        res = gmi(p, d, d.w)
        want = mutual_information(p, d)
        assert res.value == pytest.approx(want, abs=1e-6)
        assert abs(res.s_star - 1.0) <= 1e-3


def test_gmi_matches_grid_oracle():
    rng = np.random.default_rng(5)
    d = random_dmc(rng, 4, 5)
    p = rng.dirichlet(np.ones(4))
    metric = rng.random((4, 5)) + 0.05
    res = gmi(p, d, metric)
    grid = gmi_grid_oracle(p.tolist(), d.w.tolist(), metric.tolist(), np.linspace(0, 16, 401))
    assert res.value >= grid - 1e-6
    assert res.value >= 0.0


def test_gmi_never_exceeds_mi():
    rng = np.random.default_rng(6)
    for _ in range(15):
        nin = int(rng.integers(2, 5))
        d = random_dmc(rng, nin, int(rng.integers(2, 6)))
        p = rng.dirichlet(np.ones(nin))
        metric = rng.random((nin, d.nout)) + 0.01
        assert gmi(p, d, metric).value <= mutual_information(p, d) + 1e-9


@pytest.mark.parametrize("sigma, num_bins", [(1.0, 2000), (0.8, 64)])
def test_gmi_finite_where_the_metric_underflows_at_large_s(sigma, num_bins):
    # 8-ASK with the product bit metric: q^s of its smallest values (1e-87,
    # 1e-104) underflows to 0 for s above about 4, which a linear-domain
    # normalizer turns into an infinite rate
    cst = make_ask(2)
    labels = brgc_label(cst)
    d = gaussian_dmc(cst.points, sigma, num_bins)
    p = np.full(8, 0.125)
    metric = product_bit_metric(p, d, labels)
    with np.errstate(all="raise"):
        res = gmi(p, d, metric)
    assert math.isfinite(res.value)
    assert r_bmd(p, d, labels) - 1e-9 <= res.value <= mutual_information(p, d) + 1e-9


def test_gmi_rejects_zero_metric_on_support():
    d = Dmc(w=np.array([[0.5, 0.5], [0.5, 0.5]]))
    metric = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        gmi([0.5, 0.5], d, metric)


def test_independent_levels_sum_rule():
    # when the bit levels are independent given nothing (uniform product
    # input) the bit-metric rate at s=1 equals the sum of level informations
    rng = np.random.default_rng(7)
    cst = make_ask(2)
    labels = brgc_label(cst)
    bits = labels
    for trial in range(8):
        d = random_dmc(rng, 8, 6)
        if trial < 3:
            p = np.full(8, 0.125)  # uniform -> independent uniform bits
        else:
            # product pmf with random per-level biases keeps levels independent
            biases = rng.uniform(0.2, 0.8, size=3)
            p = np.ones(8)
            for level in range(3):
                p *= np.where(bits[:, level] == 1, biases[level], 1 - biases[level])
        metric = product_bit_metric(p, d, labels)
        cost = bmd_cost(p, labels)
        got = lm_rate(p, d, metric, s=1.0, cost=cost)
        total = sum(
            table_mi_oracle(bit_joint_oracle(p.tolist(), d.w.tolist(), labels.tolist(), level))
            for level in range(3)
        )
        assert got == pytest.approx(total, abs=1e-6)


def test_sign_amplitude_joint_shape_and_mass():
    cst = make_ask(2)
    d = gaussian_dmc(cst.points, sigma=0.9, num_bins=10)
    rng = np.random.default_rng(9)
    p_sa = rng.dirichlet(np.ones(8)).reshape(2, 4)
    t = sign_amplitude_joint(p_sa, d, cst)
    assert t.shape == (2, 4, d.nout)
    assert t.sum() == pytest.approx(1.0, abs=1e-12)
    # row 0 must be the negative sign: mass of (s=-1, a) forced through -a
    xi, k = cst.points.index(-3), cst.amplitudes.index(3)
    assert t[0, k] == pytest.approx(p_sa[0, k] * d.w[xi], abs=1e-15)


def test_sign_amplitude_rates_check_a_bare_matrix_as_a_channel():
    # unchecked, row 0 = [0.5, 0.6] read I(X;Y) = -0.035 bit and H(X|Y) =
    # 2.047 bit, above H(X) = 2 bit, for the uniform p(s, a)
    cst = make_ask(1)
    w = np.full((4, 2), 0.5)
    w[0] = [0.5, 0.6]
    for rate in (sign_amplitude_joint, mi_inequality_chain):
        with pytest.raises(ValueError, match="channel"):
            rate(np.full((2, 2), 0.25), w, cst)
    # as in joint_from_input, a row of a point with no mass may sum to anything
    w[0] = 0.0
    p_sa = np.array([[0.5, 0.0], [0.25, 0.25]])  # point 0 is s = -1, a = 3
    assert mi_inequality_chain(p_sa, w, cst)["mi_xy"] == 0.0


def test_mi_inequality_chain_random():
    rng = np.random.default_rng(10)
    cst = make_ask(1)
    d = gaussian_dmc(cst.points, sigma=1.3, num_bins=12)
    for _ in range(20):
        p_sa = rng.dirichlet(np.ones(4)).reshape(2, 2)
        out = mi_inequality_chain(p_sa, d, cst)
        assert out["chain_ok"]
        assert out["mi_xy"] - out["h_a"] <= out["i_s_y_given_a"] + 1e-9
        assert out["i_s_y_given_a"] <= out["i_s_ay"] + 1e-9


def test_symmetric_input_entropy_identity():
    # for sign-symmetric inputs I(X;Y) = H(A) + 1 - H(X|Y)
    rng = np.random.default_rng(11)
    cst = make_ask(2)
    d = gaussian_dmc(cst.points, sigma=1.0, num_bins=24)
    for _ in range(10):
        p_a = rng.dirichlet(np.ones(4))
        p_x = np.concatenate([p_a[::-1], p_a]) / 2
        mi = mutual_information(p_x, d)
        want = entropy(p_a) + 1.0 - equivocation(p_x, d)
        assert mi == pytest.approx(want, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_entropy_bounds_property(k, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(k))
    h = entropy(p)
    assert -1e-12 <= h <= math.log2(k) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mi_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    nin, nout = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    d = random_dmc(rng, nin, nout)
    p = rng.dirichlet(np.ones(nin))
    mi = mutual_information(p, d)
    assert mi >= -1e-12
    assert mi <= min(entropy(p), math.log2(nout)) + 1e-9
