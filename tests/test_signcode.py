import concurrent.futures
import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from paslab import signcode, typicality
from paslab.airsolver import theorem_feasibility
from paslab.alphabets import brgc_label, make_ask
from paslab.channel import Dmc, gaussian_dmc, identity_dmc, sample_outputs
from paslab.errors import BudgetError, ConfigError
from paslab.infomeasures import entropy_raw, sign_amplitude_joint
from paslab.signcode import (
    ExperimentConfig,
    ShapingLayer,
    build_shaping_layer,
    draw_sign_code,
    run_experiment,
    sign_output_transition,
    BmdDecoder,
    SmdDecoder,
)
from paslab.typicality import LOG_SLACK, TypConfig, enumerate_b_typical

from oracle import bit_joint_oracle, jointly_typical_oracle

CST = make_ask(1)
M2 = make_ask(2)
NOISY = gaussian_dmc(np.asarray(CST.points, float), sigma=0.45, num_bins=2)


def test_sign_output_transition_entries():
    t = sign_output_transition(CST, NOISY)
    assert t.shape == (2, 2 * NOISY.nout)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
    # amplitude 1: sign bit 0 -> point -1, sign bit 1 -> point +1
    i_neg1 = CST.points.index(-1)
    i_pos1 = CST.points.index(1)
    np.testing.assert_allclose(t[0, : NOISY.nout], 0.5 * NOISY.w[i_neg1])
    np.testing.assert_allclose(t[0, NOISY.nout :], 0.5 * NOISY.w[i_pos1])
    i_neg3 = CST.points.index(-3)
    np.testing.assert_allclose(t[1, : NOISY.nout], 0.5 * NOISY.w[i_neg3])


def test_sign_output_transition_rejects_mismatched_channel():
    with pytest.raises(ValueError):
        sign_output_transition(CST, identity_dmc([0, 1]))


@pytest.mark.parametrize(
    "m,sigma,num_bins,pmf,n,eps",
    [(1, 0.45, 2, (0.7, 0.3), 6, 0.1), (1, 0.6, 3, (0.7, 0.3), 6, 0.3), (2, 0.3, 2, (0.4, 0.3, 0.2, 0.1), 4, 0.2)],
    ids=["4-ask-2-bins", "4-ask-3-bins", "8-ask-2-bins"],
)
def test_decoder_joint_matches_the_sign_output_transition(m, sigma, num_bins, pmf, n, eps):
    # the decoders read p(a, s, y) from the layer; the table and the
    # entropies of the y boxes summed from it equal those of
    # p(a) t((s, y) | a), bit for bit
    cst = make_ask(m)
    dmc = gaussian_dmc(np.asarray(cst.points, float), sigma=sigma, num_bins=num_bins)
    layer = build_shaping_layer(cst, dmc, pmf, n, eps)
    points = draw_sign_code(layer, 1)
    want = (np.asarray(pmf)[:, None] * sign_output_transition(cst, dmc)).reshape(-1, 2, dmc.nout)
    joint = layer.joint
    np.testing.assert_array_equal(joint, want)
    assert joint.flags.c_contiguous  # the margins of every box sum as want's do
    assert not joint.flags.writeable
    # the same p(s, a, y) that sign_amplitude_joint builds from p(s, a) = p(a) / 2
    p_sa = np.outer([0.5, 0.5], pmf)
    np.testing.assert_array_equal(joint, sign_amplitude_joint(p_sa, dmc, cst).transpose(1, 0, 2))
    # y, then (a, y), (s, y) and (a, s, y)
    entropies = [entropy_raw(want.sum(axis=ax) if ax else want) for ax in ((0, 1), (1,), (0,), ())]
    for test in (SmdDecoder(layer, points).test, BmdDecoder(layer, points).triple):
        assert [test.h_y] + [h for _, h in test.terms] == entropies


def test_build_layer_members_match_direct_enumeration():
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    trans = sign_output_transition(CST, NOISY)
    b = enumerate_b_typical((0.7, 0.3), trans, TypConfig(n=6, eps=0.1))
    np.testing.assert_array_equal(layer.amplitude_seqs, b.members)
    seqs = layer.amplitude_seqs
    assert seqs.dtype == np.uint8 and seqs.shape == (layer.size, 6)
    assert seqs.flags.c_contiguous and not seqs.flags.writeable
    assert layer.size == 15
    assert layer.b_set.exact


def test_build_layer_raises_on_empty_set():
    too_noisy = gaussian_dmc(np.asarray(CST.points, float), sigma=2.0, num_bins=2)
    with pytest.raises(ConfigError):
        build_shaping_layer(CST, too_noisy, (0.7, 0.3), 6, 0.3)


def test_build_layer_validates_inputs():
    with pytest.raises(ValueError):
        build_shaping_layer(CST, NOISY, (0.2, 0.3, 0.5), 6, 0.1)


def _every_sequence_layer(n, dmc=NOISY, eps=0.2):
    """A layer of every 4-ASK amplitude sequence of length n, typical or not,
    with the p(a, s, y) of p(a) = (0.7, 0.3) over the channel dmc."""
    joint = np.array([0.7, 0.3])[:, None] * sign_output_transition(CST, dmc)
    return ShapingLayer(
        constellation=CST, n=n, eps=eps,
        amplitude_seqs=np.array(list(itertools.product(range(2), repeat=n)), dtype=np.uint8),
        joint=joint.reshape(2, 2, dmc.nout),
    )


def _amplitudes_and_signs(points, cst=CST):
    """Each point index's amplitude index and sign bit (0 <-> -1, 1 <->
    +1), from the grid alone: points at or above M/2 are positive."""
    half = cst.num_amplitudes
    signs = (points >= half).astype(np.intp)
    return np.where(signs == 1, points - half, half - 1 - points), signs


def test_codebook_shapes_and_determinism():
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    points = draw_sign_code(layer, 3, seed=9)
    assert points.shape == (6, layer.size * 8)
    assert points.dtype == np.intp and points.flags.c_contiguous
    assert set(np.unique(points)) <= set(range(CST.size))
    # candidate m_a * 8 + m_s sends member m_a, for each of the 2^3 sign messages
    amplitudes, signs = _amplitudes_and_signs(points)
    np.testing.assert_array_equal(amplitudes, np.repeat(layer.amplitude_seqs.T, 8, axis=1))
    np.testing.assert_array_equal(points, draw_sign_code(layer, 3, seed=9))
    assert not np.array_equal(signs, _amplitudes_and_signs(draw_sign_code(layer, 3, seed=10))[1])


@pytest.mark.parametrize("mode", ["iid", "linear"])
def test_sign_code_peaks_near_its_points(mode):
    # the points are computed in place from the amplitudes, and a linear
    # code's redundant signs are summed as int8; summed as intp, they took
    # the peak to 1.6-1.9 times the result
    layer = _every_sequence_layer(10)
    draw_sign_code(layer, 1, mode)  # the generator's first-use allocations
    tracemalloc.start()
    try:
        points = draw_sign_code(layer, 6, mode, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (10, 2**16)
    assert peak < 1.5 * points.nbytes


def test_codebook_info_bits_enumeration():
    # the information signs of m_s are its bits, MSB first, under every m_a
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    signs = _amplitudes_and_signs(draw_sign_code(layer, 2))[1]
    info = signs[:2].T.reshape(layer.size, 4, 2)
    np.testing.assert_array_equal(info, np.broadcast_to([[0, 0], [0, 1], [1, 0], [1, 1]], info.shape))


@pytest.mark.parametrize("mode", ["iid", "linear"])
def test_sign_code_matches_an_independent_draw(mode):
    # candidate c = m_a * M_s + m_s sends layer member m_a with the bits of
    # m_s, MSB first, and then its redundant signs. iid draws them as one
    # (M_a, M_s, n2) array; linear draws one (m * n + n1, n2) generator and
    # maps (amplitude bits of m_a ++ information bits of m_s) through it
    dmc = gaussian_dmc(np.asarray(M2.points, float), sigma=0.5, num_bins=6)
    layer = build_shaping_layer(M2, dmc, (0.4, 0.3, 0.2, 0.1), 4, 0.4)
    n1, seed = 2, 4
    n2 = layer.n - n1
    amplitudes, signs = _amplitudes_and_signs(draw_sign_code(layer, n1, mode, seed), M2)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    if mode == "iid":
        drawn = rng.integers(0, 2, size=(layer.size, 2**n1, n2), dtype=np.int8).tolist()
    else:
        gen = rng.integers(0, 2, size=(M2.m * layer.n + n1, n2), dtype=np.int8).T.tolist()
    bits = brgc_label(M2)[M2.num_amplitudes :, 1:].tolist()
    columns = iter(zip(amplitudes.T.tolist(), signs.T.tolist()))
    for m_a, seq in enumerate(layer.amplitude_seqs.tolist()):
        for m_s in range(2**n1):
            info = [int(bit) for bit in format(m_s, f"0{n1}b")]
            if mode == "iid":
                redundant = drawn[m_a][m_s]
            else:
                msg = [bit for a in seq for bit in bits[a]] + info
                redundant = [sum(x * g for x, g in zip(msg, row)) % 2 for row in gen]
            assert next(columns) == (seq, info + redundant)
    assert next(columns, None) is None


def test_codebook_budget_error():
    # 2^11 amplitude sequences x 2^10 sign messages exceed the decode budget
    with pytest.raises(BudgetError, match="2048 x 1024 candidate pairs"):
        draw_sign_code(_every_sequence_layer(11), 10)


def test_codebook_rejects_bad_args():
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    for n1 in (-1, 7):
        with pytest.raises(ValueError, match=rf"n1 must be in \[0, 6\], got {n1}"):
            draw_sign_code(layer, n1)
    with pytest.raises(ValueError, match="mode must be"):
        draw_sign_code(layer, 1, mode="polar")


def test_linear_codebook_is_linear():
    # every amplitude sequence of n = 6, so the messages (amplitude bits ++
    # the information bit) are all of GF(2)^7, and the redundant signs must
    # be one GF(2) map of them: the images of the unit messages, summed
    layer = _every_sequence_layer(6)
    signs = _amplitudes_and_signs(draw_sign_code(layer, 1, mode="linear", seed=2))[1]
    amp = brgc_label(CST)[CST.num_amplitudes :, 1:][layer.amplitude_seqs].reshape(layer.size, -1)
    msg = np.concatenate([np.repeat(amp, 2, axis=0), signs[:1].T], axis=1)
    redundant = signs[1:].T
    assert len({tuple(row) for row in msg.tolist()}) == 2**7
    units = [int(np.flatnonzero((msg == unit).all(axis=1))[0]) for unit in np.eye(7, dtype=np.intp)]
    np.testing.assert_array_equal(msg @ redundant[units] % 2, redundant)
    assert redundant.any()


def _sign_bits(points, n1, m_a, m_s, cst=CST):
    """Sign bits of the message pairs (m_a, m_s), read from the code's points."""
    return _amplitudes_and_signs(points[:, m_a * 2**n1 + m_s].T, cst)[1]


@pytest.mark.parametrize("kind", ["smd", "bmd"])
def test_decode_noiseless_recovers_message(kind):
    # the identity channel hands over each sent point, and only the sent
    # candidate passes the boxes
    layer = build_shaping_layer(CST, identity_dmc(CST.points), (0.5, 0.5), 4, 0.1)
    points = draw_sign_code(layer, 2, seed=1)
    dec = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, points)
    m_a = np.repeat([0, layer.size // 2, layer.size - 1], 2)
    m_s = np.tile([0, 3], 3)
    x = np.asarray(CST.amplitudes)[layer.amplitude_seqs[m_a]] * (2 * _sign_bits(points, 2, m_a, m_s) - 1)
    y = np.searchsorted(CST.points, x)
    # the code's points are the sent words x = s * a
    np.testing.assert_array_equal(y, points[:, m_a * 4 + m_s].T)
    mask = dec.accept_mask(y)
    want = np.zeros_like(mask)
    want[np.arange(len(y)), m_a * 4 + m_s] = True
    np.testing.assert_array_equal(mask, want)


@pytest.mark.parametrize("cst", [CST, M2], ids=["4-ask", "8-ask"])
def test_decoder_label_tables_match_the_alphabet(cst):
    # smd labels each point by its (amplitude, sign); bmd by its Gray
    # amplitude bits and then its sign bit, in the axis order of p(b_1, ...,
    # b_m, s, y). Both tests read the code's points themselves
    dmc = gaussian_dmc(np.asarray(cst.points, float), sigma=0.5, num_bins=2)
    pmf = np.full(cst.num_amplitudes, 1.0 / cst.num_amplitudes)
    layer = build_shaping_layer(cst, dmc, pmf, 2, 0.5)
    points = draw_sign_code(layer, 1)
    half = cst.num_amplitudes
    gray = brgc_label(cst)[half:, 1:]  # Gray bits of ascending amplitudes
    smd, bmd = SmdDecoder(layer, points), BmdDecoder(layer, points)
    for p in range(cst.size):
        a, s = smd.test.labels[p]
        assert cst.sign_amplitude_index[s, a] == p
        amp, sign = _amplitudes_and_signs(np.array(p), cst)
        assert bmd.test.labels[p].tolist() == [*gray[amp].tolist(), int(sign)]
    np.testing.assert_array_equal(bmd.triple.labels, smd.test.labels)
    assert smd.test.x is points


def test_bmd_test_and_triple_read_one_point_array():
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    points = draw_sign_code(layer, 2, seed=1)
    dec = BmdDecoder(layer, points)
    assert dec.test.x is points and dec.triple.x is points


def test_decode_multiple_on_uninformative_channel():
    # output independent of input: every typical (a, s) pair passes its boxes,
    # so no output singles out one candidate
    flat = Dmc(np.full((4, 4), 0.25))
    layer = build_shaping_layer(CST, flat, (0.5, 0.5), 4, 0.1)
    dec = SmdDecoder(layer, draw_sign_code(layer, 2, seed=1))
    mask = dec.accept_mask(np.array([[0, 1, 2, 3], [3, 3, 0, 0]]))
    assert mask.shape == (2, layer.size * 4)
    assert mask.all()


# noisy enough that bit-level decoding accepts candidates whose triple fails
PAIRWISE = dict(
    constellation=CST,
    dmc=gaussian_dmc(np.asarray(CST.points, float), sigma=0.6, num_bins=3),
    amplitude_pmf=(0.7, 0.3), eps=0.3, n=6, gamma=0.3, decoder="bmd", trials=500, seed=1,
)


def test_triple_mask_on_rows_matches_full_symbol_test():
    cfg = ExperimentConfig(**PAIRWISE)
    layer = build_shaping_layer(CST, cfg.dmc, cfg.amplitude_pmf, cfg.n, cfg.eps)
    points = draw_sign_code(layer, cfg.n1, seed=2)
    smd = SmdDecoder(layer, points)
    bmd = BmdDecoder(layer, points)
    rng = np.random.default_rng(0)
    pairwise_only = 0
    for k in rng.integers(points.shape[1], size=50):
        y = np.array([[rng.choice(cfg.dmc.nout, p=cfg.dmc.w[x]) for x in points[:, k]]])
        full = smd.accept_mask(y)[0]
        rows = np.flatnonzero(bmd.accept_mask(y)[0])
        ys = np.repeat(y, rows.size, axis=0)
        np.testing.assert_array_equal(smd.triple_mask(ys, rows), full[rows])
        np.testing.assert_array_equal(bmd.triple_mask(ys, rows), full[rows])
        pairwise_only += int((~full[rows]).sum())
    assert pairwise_only > 0


# the golden sim-bmd-8-ask run: 8-ASK, so two amplitude bit levels
BMD_8_ASK = dict(
    constellation=M2,
    dmc=gaussian_dmc(np.asarray(M2.points, float), sigma=0.5, num_bins=6),
    amplitude_pmf=(0.4, 0.3, 0.2, 0.1), eps=0.4, n=4, gamma=0.25, decoder="bmd", trials=1000, seed=0,
)


@pytest.mark.parametrize("kind", ["smd", "bmd"])
@pytest.mark.parametrize("case", [PAIRWISE, BMD_8_ASK], ids=["m1", "m2"])
def test_accept_mask_is_joint_typicality_of_the_paper(case, kind):
    # smd: (a, s, y) jointly typical under p(a, s, y); bmd: (s, y) jointly
    # typical under p(s, y) and every (b_j, y) under p(b_j, y). The pmfs come
    # from the sign-output transition and the bit channels, and the oracle
    # checks their boxes
    cfg = ExperimentConfig(**case)
    layer = build_shaping_layer(cfg.constellation, cfg.dmc, cfg.amplitude_pmf, cfg.n, cfg.eps)
    codewords = draw_sign_code(layer, cfg.n1, seed=4)
    dec = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, codewords)
    p_asy, p_by = _reference_tables(layer, cfg.dmc, cfg.amplitude_pmf)
    bits = brgc_label(cfg.constellation)[cfg.constellation.num_amplitudes :, 1:]

    def typical(seqs, table):
        cells = {idx: float(table[idx]) for idx in np.ndindex(table.shape)}
        return jointly_typical_oracle([np.asarray(q).tolist() for q in seqs], cells, table.shape, cfg.eps)

    rng = np.random.default_rng(0)
    pairs = 300
    m_a = rng.integers(layer.size, size=pairs)
    m_s = rng.integers(2**cfg.n1, size=pairs)
    # each output sent from its own candidate, or from another half the time
    sent_a = np.where(np.arange(pairs) % 2, m_a, rng.integers(layer.size, size=pairs))
    points = cfg.constellation.sign_amplitude_index
    y = np.array([
        [rng.choice(cfg.dmc.nout, p=cfg.dmc.w[points[sb, ab]]) for sb, ab in zip(
            _sign_bits(codewords, cfg.n1, i, j, cfg.constellation), layer.amplitude_seqs[k])]
        for i, j, k in zip(m_a, m_s, sent_a)
    ])
    got = dec.accept_mask(y)[np.arange(pairs), m_a * 2**cfg.n1 + m_s]
    want = []
    for i, j, y_seq in zip(m_a, m_s, y):
        a, s = layer.amplitude_seqs[i], _sign_bits(codewords, cfg.n1, i, j, cfg.constellation)
        if kind == "smd":
            want.append(typical((a, s, y_seq), p_asy))
        else:
            want.append(typical((s, y_seq), p_asy.sum(axis=0)) and all(
                typical((bits[a, level], y_seq), p) for level, p in enumerate(p_by)
            ))
    np.testing.assert_array_equal(got, want)
    assert 0 < got.sum() < pairs


# (constellation, sigma, bins, amplitude pmf, n, eps): 81 and 1,296 outputs
ENGINE_CASES = {
    "4-ask": (CST, 0.8, 3, (0.7, 0.3), 4, 0.5),
    "8-ask": (M2, 0.5, 6, (0.4, 0.3, 0.2, 0.1), 4, 0.4),
}


@pytest.mark.parametrize("kind", ["smd", "bmd"])
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_type_engine_gives_each_candidates_pass_probability(case, kind):
    # the conditional-type engine run once on a decoder's own box list, with x
    # every candidate's point indices and t the channel rows, gives each
    # candidate's probability of passing when it is sent: brute force over
    # every y
    cst, sigma, bins, pmf, n, eps = ENGINE_CASES[case]
    dmc = gaussian_dmc(np.asarray(cst.points, float), sigma=sigma, num_bins=bins)
    layer = build_shaping_layer(cst, dmc, pmf, n, eps)
    points = draw_sign_code(layer, 1, seed=3)
    test = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, points).test
    x = points.T  # (C, n)
    y = np.array(list(itertools.product(range(dmc.nout), repeat=n)), dtype=np.intp)
    weight = np.ones((len(y), len(x)))
    for i in range(n):
        weight *= dmc.w[x[:, i]][:, y[:, i]].T
    want = (test.accept(y) * weight).sum(axis=0)
    results = typicality._type_probs(test, dmc.w)
    assert all(res.exact for res in results)
    got = np.array([res.prob for res in results])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert len(set(got.tolist())) >= 4 and 0 < got.max() < 1  # candidates differ


@pytest.mark.parametrize(
    "mode,frozen",
    [("iid", (430, 309, 164, 43, 361)), ("linear", (379, 310, 122, 53, 300))],
)
def test_experiment_bmd_pairwise_only_frozen(mode, frozen):
    # frozen draw; testing only the accepted candidates must not move any count
    st = run_experiment(ExperimentConfig(codebook_mode=mode, **PAIRWISE))
    assert st.m_a_count == 35
    assert (
        st.errors_total, st.errors_kind1, st.errors_kind2, st.both, st.bmd_pairwise_only
    ) == frozen


def test_experiment_above_mutual_information_makes_kind2_errors():
    # two output bins cap I(X;Y) at 1 bit; the code carries (log2 M_a + n1)/n = 8/6
    dmc = gaussian_dmc(np.asarray(CST.points, float), sigma=0.3, num_bins=2)
    feas = theorem_feasibility((0.5, 0.5), 0.25, dmc, brgc_label(CST))
    assert not feas["smd_ok"] and feas["mi_xy"] <= 1.0
    cfg = ExperimentConfig(
        constellation=CST, dmc=dmc, amplitude_pmf=(0.5, 0.5), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=1000, seed=1,
    )
    st = run_experiment(cfg)
    assert st.m_a_count * 2**st.n1 > 1
    assert st.rate_achieved > feas["mi_xy"]
    assert st.errors_kind2 > st.trials / 2


def test_experiment_at_feasible_point_freezes_kind2_errors():
    # H(A) + gamma = 1.38 <= I(X;Y) = 1.82, so the theorem's condition holds;
    # with M_a * M_s = 41 * 8 candidates a wrong codeword can still pass at n = 6
    dmc = gaussian_dmc(np.asarray(CST.points, float), sigma=0.3, num_bins=4)
    feas = theorem_feasibility((0.7, 0.3), 0.5, dmc, brgc_label(CST))
    assert feas["smd_ok"]
    cfg = ExperimentConfig(
        constellation=CST, dmc=dmc, amplitude_pmf=(0.7, 0.3), eps=0.3,
        n=6, gamma=0.5, decoder="smd", trials=3000, seed=1,
    )
    st = run_experiment(cfg)
    assert st.m_a_count * 2**st.n1 == 328
    assert 0 < st.rate_achieved < feas["mi_xy"]
    # frozen from the per-trial loop
    assert (st.errors_total, st.errors_kind1, st.errors_kind2, st.both) == (158, 158, 20, 20)


def _box(total, n, h, eps):
    return np.abs(-total / n - h) <= eps + LOG_SLACK


def _reference_tables(layer, dmc, p_a):
    """p(a, s, y) from the sign-output transition, and p(b_j, y) of each
    amplitude bit level from the oracle's sums, for the amplitude pmf p_a:
    built apart from the layer and the decoders."""
    cst = layer.constellation
    p_a = np.asarray(p_a, dtype=float)
    p_asy = (p_a[:, None] * sign_output_transition(cst, dmc)).reshape(-1, 2, dmc.nout)
    p_x = np.zeros(cst.size)
    p_x[cst.sign_amplitude_index] = 0.5 * p_a
    p_by = []
    for level in range(1, cst.m + 1):  # level 0 is the sign bit
        p_by.append(np.array(bit_joint_oracle(p_x.tolist(), dmc.w.tolist(), brgc_label(cst).tolist(), level)))
    return p_asy, p_by


def _all_boxes(joint, letters, n, eps):
    """Whether every nonempty subset of the axes of joint is typical, for
    each row of the letter arrays (one per axis; (R, n) or a broadcast (1, n))."""
    ok = True
    for k in range(1, joint.ndim + 1):
        for axes in itertools.combinations(range(joint.ndim), k):
            marg = joint.sum(axis=tuple(d for d in range(joint.ndim) if d not in axes))
            with np.errstate(divide="ignore"):
                log = np.log2(marg)
            h = -(marg[marg > 0] * log[marg > 0]).sum()
            ok = ok & _box(log[tuple(letters[d] for d in axes)].sum(axis=1), n, h, eps)
    return ok


def _reference(kind, layer, points, dmc, p_a):
    """One output's (candidates,) acceptances by every box of decoder kind on
    its own, from tables built apart from the decoder, each candidate's
    amplitudes read from the layer and its signs from the code's points."""
    n, eps = layer.n, layer.eps
    p_asy, p_by = _reference_tables(layer, dmc, p_a)
    a = np.repeat(layer.amplitude_seqs.astype(np.intp), points.shape[1] // layer.size, axis=0)
    cst = layer.constellation
    s = _amplitudes_and_signs(points.T, cst)[1]
    bits = brgc_label(cst)[cst.num_amplitudes :, 1:]

    def mask(y):
        y = np.asarray(y, dtype=np.intp)[None, :]
        if kind == "smd":
            return _all_boxes(p_asy, (a, s, y), n, eps)
        ok = _all_boxes(p_asy.sum(axis=0), (s, y), n, eps)
        for j, p in enumerate(p_by):
            ok = ok & _all_boxes(p, (bits[:, j][a], y), n, eps)
        return ok

    return mask


def _per_trial_reference(cfg):
    """The experiment scored one trial at a time; returns the layer, the
    code's points, the decoder, the (trials, n) outputs, the stacked masks
    and the error counts."""
    layer = build_shaping_layer(cfg.constellation, cfg.dmc, cfg.amplitude_pmf, cfg.n, cfg.eps)
    points = draw_sign_code(layer, cfg.n1, cfg.codebook_mode, cfg.seed)
    dec = (SmdDecoder if cfg.decoder == "smd" else BmdDecoder)(layer, points)
    reference = _reference(cfg.decoder, layer, points, cfg.dmc, cfg.amplitude_pmf)
    triple = _reference("smd", layer, points, cfg.dmc, cfg.amplitude_pmf)
    cdf_rows = np.cumsum(cfg.dmc.w, axis=1)
    outputs, masks = [], []
    counts = dict.fromkeys(("err", "k1", "k2", "both", "pairwise_only"), 0)
    for t in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, t]))
        m_a = int(rng.integers(layer.size))
        m_s = int(rng.integers(2**cfg.n1))
        k = m_a * 2**cfg.n1 + m_s
        u = rng.random(cfg.n)
        y = (cdf_rows[points[:, k]] < u[:, None]).sum(axis=1)
        np.minimum(y, cfg.dmc.nout - 1, out=y)
        mask = reference(y)
        kind1 = not mask[k]
        kind2 = bool(mask.sum() - int(mask[k]) > 0)
        counts["err"] += int(kind1 or kind2)
        counts["k1"] += int(kind1)
        counts["k2"] += int(kind2)
        counts["both"] += int(kind1 and kind2)
        if cfg.decoder == "bmd":
            counts["pairwise_only"] += int((~triple(y)[mask]).sum())
        outputs.append(y)
        masks.append(mask)
    return layer, points, dec, np.array(outputs), np.array(masks), counts


BLOCK_CASES = {
    f"m{cst.m}-{kind}-{mode}": dict(
        constellation=cst,
        dmc=gaussian_dmc(np.asarray(cst.points, float), sigma=0.5, num_bins=bins),
        amplitude_pmf=pmf, eps=eps, n=n, gamma=0.5, decoder=kind, trials=300, seed=11,
        codebook_mode=mode,
    )
    for cst, pmf, bins, eps, n in (
        (CST, (0.7, 0.3), 2, 0.1, 6),
        (M2, (0.4, 0.3, 0.2, 0.1), 2, 0.2, 4),
    )
    for kind in ("smd", "bmd")
    for mode in ("iid", "linear")
}
BLOCK_CASES["bmd-pairwise-only"] = {**PAIRWISE, "gamma": 0.5}
# each of the 2-bin channel's 4 outputs split into 375 equal letters: 1500^6
# output sequences overflow an int64 key, and outputs seldom repeat
BLOCK_CASES["wide-output"] = {
    **BLOCK_CASES["m1-smd-iid"], "dmc": Dmc(np.repeat(NOISY.w, 375, axis=1) / 375)
}


def _outputs_by_point(cdf_rows, x, u):
    """The channel outputs by one searchsorted per transmitted point."""
    y = np.empty(x.shape, dtype=np.intp)
    for point in np.unique(x):
        at = x == point
        y[at] = np.searchsorted(cdf_rows[point], u[at], side="left")
    return np.minimum(y, cdf_rows.shape[1] - 1)


@pytest.mark.parametrize("nout", [1, 2, 3, 4, 2002])
def test_channel_outputs_match_a_per_point_search(nout):
    rng = np.random.default_rng(nout)
    w = rng.dirichlet(np.ones(nout), size=5)
    w[1, 1::2] = 0.0  # zero-width bins: repeated cdf values
    w[2] = 0.0
    w[2, nout // 2] = 1.0  # one bin holds all: zeros, then ones
    w[3, 1:] = 0.0  # all mass in the first letter
    w /= w.sum(axis=1, keepdims=True)
    cdf_rows = np.cumsum(w, axis=1)
    x = rng.integers(0, 5, size=(400, 6))
    u = rng.random(x.shape)
    # u exactly on an entry of its own row, on 0, and on 1 (at or above the
    # row's last entry, which float sums may leave below 1)
    on = rng.random(x.shape) < 0.5
    u[on] = cdf_rows[x[on], rng.integers(0, nout, size=on.sum())]
    u[:, 0], u[:, 1] = 0.0, 1.0
    assert np.isin(u, cdf_rows).mean() > 0.4
    y = sample_outputs(cdf_rows, x, u)
    np.testing.assert_array_equal(y, _outputs_by_point(cdf_rows, x, u))
    assert y.shape == x.shape and y.min() >= 0 and y.max() <= nout - 1


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_scoring_matches_per_trial_loop(case, monkeypatch):
    cfg = ExperimentConfig(**BLOCK_CASES[case])
    layer, points, dec, y, masks, counts = _per_trial_reference(cfg)
    distinct = len(np.unique(y, axis=0))
    assert (distinct > 0.9 * cfg.trials) if case == "wide-output" else (distinct < cfg.trials)
    # runs of a tail letter, which the y box rejects, among the drawn outputs
    tails = np.repeat([[0], [cfg.dmc.nout - 1]], cfg.n, axis=1)
    p_y = _reference_tables(layer, cfg.dmc, cfg.amplitude_pmf)[0].sum(axis=(0, 1))
    assert not _all_boxes(p_y, (tails,), cfg.n, cfg.eps).any()
    y = np.concatenate([y[:100], tails, y[100:]])
    reference = _reference(cfg.decoder, layer, points, cfg.dmc, cfg.amplitude_pmf)
    masks = np.concatenate([masks[:100], [reference(row) for row in tails], masks[100:]])
    block = dec.accept_mask(y)
    candidates = points.shape[1]
    assert block.shape == (cfg.trials + 2, candidates)
    np.testing.assert_array_equal(block, masks)
    np.testing.assert_array_equal(np.array([dec.accept_mask(row[None])[0] for row in y]), masks)
    assert masks.any()
    if case == "bmd-pairwise-only":
        assert counts["pairwise_only"] > 500
    cells, row_sorts = [], [0]
    accept_mask, unique = type(dec).accept_mask, np.unique

    def counted_mask(self, outputs):
        mask = accept_mask(self, outputs)
        cells.append(mask.size)
        return mask

    def counted_unique(ar, *args, **kwargs):
        row_sorts[0] += kwargs.get("axis") == 0
        return unique(ar, *args, **kwargs)

    pool_maps = [0]
    pool_map = concurrent.futures.ThreadPoolExecutor.map

    def counted_pool_map(self, *args, **kwargs):
        pool_maps[0] += 1
        return pool_map(self, *args, **kwargs)

    monkeypatch.setattr(type(dec), "accept_mask", counted_mask)
    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "map", counted_pool_map)
    # default blocks; 7 distinct outputs a block; fewer cells than
    # candidates, so one distinct output a block. Every trial fits in one
    # drawn chunk, and each distinct output is scored once
    for block_cells in (signcode.BLOCK_CELLS, 7 * candidates, candidates - 1):
        monkeypatch.setattr(signcode, "BLOCK_CELLS", block_cells)
        for threads in (1, 2, 3):
            cells.clear()
            row_sorts[0] = pool_maps[0] = 0
            st = run_experiment(cfg, threads=threads)
            assert (
                st.errors_total, st.errors_kind1, st.errors_kind2, st.both, st.bmd_pairwise_only
            ) == (counts["err"], counts["k1"], counts["k2"], counts["both"], counts["pairwise_only"])
            assert sum(cells) == distinct * candidates
            assert len(cells) == math.ceil(distinct / max(1, block_cells // candidates))
            # the integer key, unless nout^n overflows int64
            assert row_sorts[0] == (case == "wide-output")
            # the one chunk goes through the pool only if it holds several blocks
            assert pool_maps[0] == (threads > 1 and len(cells) > 1)


@pytest.mark.parametrize("kind", ["smd", "bmd"])
def test_block_mask_applies_y_independent_boxes(kind):
    # every amplitude sequence, typical or not, so the static boxes reject
    # some; the output ignores the input, so an atypical output can offset an
    # atypical amplitude sequence in the joint boxes
    blind = Dmc(np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)))
    layer = _every_sequence_layer(6, blind)
    points = draw_sign_code(layer, 1, seed=3)
    dec = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, points)
    assert not dec.test.static.all()
    y = np.random.default_rng(0).integers(blind.nout, size=(200, 6))
    reference = _reference(kind, layer, points, blind, (0.7, 0.3))
    masks = np.array([reference(row) for row in y])
    np.testing.assert_array_equal(dec.accept_mask(y), masks)
    assert masks.any()
    triple = _reference("smd", layer, points, blind, (0.7, 0.3))
    full = np.array([triple(row) for row in y[:20]])
    b, c = np.nonzero(np.ones_like(full))  # every (output, candidate) pair
    np.testing.assert_array_equal(dec.triple_mask(y[b], c), full[b, c])


@pytest.mark.parametrize("kind", ["smd", "bmd"])
def test_a_static_box_gives_one_class_one_verdict(kind):
    # eps is the class's distance on the {a} box minus LOG_SLACK: summed in
    # each member's own order, 3 of its 60 members landed one ulp outside
    pmf = (0.009448258906744656, 0.5014203717949333, 0.4009565732509738, 0.08817479604734828)
    layer = build_shaping_layer(M2, gaussian_dmc(np.asarray(M2.points, float), 0.5, 2), pmf, 6, 1.9232922824658352)
    members = layer.amplitude_seqs[(np.sort(layer.amplitude_seqs, axis=1) == [0, 0, 1, 1, 1, 3]).all(axis=1)]
    points = members.T.astype(np.intp) + M2.num_amplitudes  # every sign +1
    static = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, points).test.static
    assert len(members) == 60 and static.all()


def test_experiment_noiseless_is_error_free():
    dmc = identity_dmc(CST.points)
    for kind in ("smd", "bmd"):
        cfg = ExperimentConfig(
            constellation=CST, dmc=dmc, amplitude_pmf=(0.5, 0.5), eps=0.1,
            n=6, gamma=0.25, decoder=kind, trials=200, seed=5,
        )
        st = run_experiment(cfg)
        assert st.errors_total == 0
        assert st.errors_kind1 == 0 and st.errors_kind2 == 0
        assert st.m_a_count == 64
        assert st.n1 == 2
        assert st.rate_achieved == pytest.approx((np.log2(64) + 2) / 6)
        assert st.bmd_pairwise_only == 0


def test_experiment_error_counting_identity():
    cfg = ExperimentConfig(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=150, seed=3,
    )
    st = run_experiment(cfg)
    # frozen draw: identity errors = kind1 + kind2 - both must hold exactly
    assert (st.errors_total, st.errors_kind1, st.errors_kind2, st.both) == (102, 10, 94, 2)
    assert st.errors_total == st.errors_kind1 + st.errors_kind2 - st.both
    assert st.errors_total <= st.errors_kind1 + st.errors_kind2


def test_experiment_thread_count_invariance():
    cfg = ExperimentConfig(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=150, seed=3,
    )
    assert run_experiment(cfg, threads=1) == run_experiment(cfg, threads=3)


@pytest.mark.parametrize("case", [dict(decoder="smd", seed=3), dict(PAIRWISE, trials=200)])
def test_experiment_threads_share_blocks_identically(case, monkeypatch):
    cfg = ExperimentConfig(**{
        "constellation": CST, "dmc": NOISY, "amplitude_pmf": (0.7, 0.3), "eps": 0.1,
        "n": 6, "gamma": 0.25, "trials": 150, **case,
    })
    monkeypatch.setattr(signcode, "BLOCK_CELLS", 1000)  # 10 and 29 blocks
    runs = [run_experiment(cfg, threads=t) for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_thread_pool_width_is_capped_at_usable_cpus(monkeypatch):
    # a pool of 10**6 workers could start one thread per block; a stand-in
    # pool records its width and maps in the calling thread
    widths, maps = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            maps.append(fn)
            return map(fn, *iterables)

    cfg = ExperimentConfig(**{**PAIRWISE, "trials": 200})
    monkeypatch.setattr(signcode, "BLOCK_CELLS", 1000)  # 29 blocks
    want = run_experiment(cfg)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    started = threading.active_count()
    assert run_experiment(cfg, threads=10**6) == want
    assert threading.active_count() == started
    assert widths == [signcode._usable_cpus()] and 1 <= widths[0] <= os.cpu_count()
    assert maps  # threads > 1 uses the pool, whatever its width
    widths.clear()
    monkeypatch.setattr(signcode, "_usable_cpus", lambda: 1)
    assert run_experiment(cfg, threads=2) == want
    assert widths == [1]


def test_experiment_seed_changes_draws():
    base = dict(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=150,
    )
    a = run_experiment(ExperimentConfig(seed=3, **base))
    b = run_experiment(ExperimentConfig(seed=4, **base))
    assert (a.errors_total, a.errors_kind1) != (b.errors_total, b.errors_kind1)


def test_experiment_linear_codebook_runs():
    cfg = ExperimentConfig(
        constellation=CST, dmc=identity_dmc(CST.points), amplitude_pmf=(0.5, 0.5),
        eps=0.1, n=6, gamma=0.25, decoder="smd", trials=50, seed=5,
        codebook_mode="linear",
    )
    st = run_experiment(cfg)
    assert st.errors_total == 0


def test_experiment_config_validation():
    good = dict(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=10, seed=0,
    )
    ExperimentConfig(**good)
    for bad in (
        {"gamma": 1.0},
        {"gamma": 0.92},  # below 1, but n1 = round(0.92 * 6) = 6 leaves no redundant sign
        {"gamma": -0.1},
        {"decoder": "ml"},
        {"trials": 0},
        {"n": 0},
        {"eps": 0.0},
        {"eps": float("inf")},
        {"eps": float("nan")},
        {"seed": -1},
        {"typ_budget": 0},
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**good, **bad})
    with pytest.raises(ConfigError, match="typ_budget must be positive, got 0"):
        ExperimentConfig(**good, typ_budget=0)
    with pytest.raises(ConfigError, match="gamma 0.92 at n=6 rounds to n1=6"):
        ExperimentConfig(**{**good, "gamma": 0.92})
    assert ExperimentConfig(**{**good, "gamma": 0.9}).n1 == 5


def test_monte_carlo_layer_does_not_depend_on_the_experiment_seed():
    # at budget 100 every typical class of n=6 has more conditional types
    # than the budget allows, so the layer is a Monte Carlo estimate
    base = dict(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.25, decoder="smd", trials=10, typ_budget=100,
    )
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1, budget=100)
    assert not any(res.exact for res in layer.b_set.class_probs)
    sizes = {run_experiment(ExperimentConfig(seed=seed, **base)).m_a_count for seed in (0, 1, 9)}
    assert sizes == {layer.size}


def test_gamma_realized_rounding():
    cfg = ExperimentConfig(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.3, decoder="smd", trials=10, seed=0,
    )
    assert cfg.n1 == 2  # floor(1.8 + 0.5)
    assert cfg.gamma_realized == pytest.approx(2 / 6)
