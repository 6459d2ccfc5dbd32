import itertools
import math
import os
import threading

import numpy as np
import pytest

from paslab import signcode
from paslab.airsolver import theorem_feasibility
from paslab.alphabets import brgc_label, make_ask
from paslab.channel import Dmc, bit_channel, gaussian_dmc, identity_dmc
from paslab.errors import BudgetError, ConfigError
from paslab.infomeasures import entropy_raw
from paslab.signcode import (
    ExperimentConfig,
    ShapingLayer,
    build_shaping_layer,
    draw_sign_codebook,
    layer_amplitude_bits,
    run_experiment,
    sign_output_transition,
    BmdDecoder,
    SmdDecoder,
)
from paslab.typicality import LOG_SLACK, TypConfig, enumerate_b_typical, is_jointly_typical

CST = make_ask(1)
M2 = make_ask(2)
NOISY = gaussian_dmc(np.asarray(CST.points, float), sigma=0.45, num_bins=2)


def test_sign_output_transition_entries():
    t = sign_output_transition(CST, NOISY)
    assert t.shape == (2, 2 * NOISY.nout)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
    # amplitude 1: sign bit 0 -> point -1, sign bit 1 -> point +1
    i_neg1 = CST.point_index(-1)
    i_pos1 = CST.point_index(1)
    np.testing.assert_allclose(t[0, : NOISY.nout], 0.5 * NOISY.w[i_neg1])
    np.testing.assert_allclose(t[0, NOISY.nout :], 0.5 * NOISY.w[i_pos1])
    i_neg3 = CST.point_index(-3)
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
    # the decoders take p(a, s, y) from sign_amplitude_joint; the table and
    # the entropies of the y boxes summed from it equal those of
    # p(a) t((s, y) | a), bit for bit
    cst = make_ask(m)
    dmc = gaussian_dmc(np.asarray(cst.points, float), sigma=sigma, num_bins=num_bins)
    layer = build_shaping_layer(cst, dmc, pmf, n, eps)
    codebook = draw_sign_codebook(layer.size, 1, n - 1, seed=0)
    want = (layer.amplitude_pmf[:, None] * sign_output_transition(cst, dmc)).reshape(-1, 2, dmc.nout)
    joint = signcode._joint_asy(layer, dmc)
    np.testing.assert_array_equal(joint, want)
    assert joint.flags.c_contiguous  # the margins of every box sum as want's do
    # y, then (a, y), (s, y) and (a, s, y)
    entropies = [entropy_raw(want.sum(axis=ax) if ax else want) for ax in ((0, 1), (1,), (0,), ())]
    for test in (SmdDecoder(layer, codebook, dmc).test, BmdDecoder(layer, codebook, dmc).triple):
        assert [test.h_y] + [h for _, _, h in test.terms] == entropies


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


def test_codebook_shapes_and_determinism():
    cb = draw_sign_codebook(5, 3, 4, seed=9)
    assert cb.n == 7 and cb.n1 == 3 and cb.n2 == 4
    assert cb.info_bits.shape == (8, 3)
    assert cb.redundant_bits.shape == (5, 8, 4)
    assert set(np.unique(cb.redundant_bits)) <= {0, 1}
    cb2 = draw_sign_codebook(5, 3, 4, seed=9)
    np.testing.assert_array_equal(cb.redundant_bits, cb2.redundant_bits)
    cb3 = draw_sign_codebook(5, 3, 4, seed=10)
    assert not np.array_equal(cb.redundant_bits, cb3.redundant_bits)


def test_codebook_info_bits_enumeration():
    cb = draw_sign_codebook(2, 2, 1, seed=0)
    np.testing.assert_array_equal(cb.info_bits, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_codebook_sign_sequence_mapping():
    # candidate c = m_a * M_s + m_s sends the information bits of m_s, then
    # the redundant bits of (m_a, m_s)
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    cb = draw_sign_codebook(layer.size, 2, 4, seed=4)
    cand = signcode._Candidates(layer, cb)
    assert cand.s_pos.shape == (6, layer.size * 4)
    for m_a, m_s in ((0, 0), (2, 1), (layer.size - 1, 3)):
        c = m_a * cb.num_sign_messages + m_s
        np.testing.assert_array_equal(cand.s_pos[:2, c], cb.info_bits[m_s])
        np.testing.assert_array_equal(cand.s_pos[2:, c], cb.redundant_bits[m_a, m_s])
        np.testing.assert_array_equal(cand.a_pos[:, c], layer.amplitude_seqs[m_a])


def test_codebook_budget_error():
    with pytest.raises(BudgetError):
        draw_sign_codebook(2000, 10, 2)


def test_codebook_rejects_bad_args():
    with pytest.raises(ValueError):
        draw_sign_codebook(4, -1, 2)
    with pytest.raises(ValueError):
        draw_sign_codebook(4, 1, 2, mode="polar")
    with pytest.raises(ValueError):
        draw_sign_codebook(4, 1, 2, mode="linear")  # missing amplitude bits


def test_linear_codebook_is_linear():
    amp_bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int8)
    cb = draw_sign_codebook(4, 1, 5, mode="linear", seed=2, amplitude_bits=amp_bits)
    red = cb.redundant_bits
    # message bits (amp ++ info) add over GF(2): (11,1) = (01,0) + (10,1) + (00,0)
    np.testing.assert_array_equal(red[3, 1], red[1, 0] ^ red[2, 1] ^ red[0, 0])
    np.testing.assert_array_equal(red[0, 0], (np.zeros(5, dtype=np.int8)))


def test_layer_amplitude_bits_roundtrip():
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    rows = layer_amplitude_bits(layer)
    assert rows.shape == (layer.size, CST.m * 6)
    bits = layer.label_map.amplitude_bit_matrix
    for row, seq in zip(rows, layer.amplitude_seqs):
        np.testing.assert_array_equal(row, [bits[a, 0] for a in seq])


def _noiseless_setup():
    dmc = identity_dmc(CST.points)
    layer = build_shaping_layer(CST, dmc, (0.5, 0.5), 4, 0.1)
    codebook = draw_sign_codebook(layer.size, 2, 2, seed=1)
    return dmc, layer, codebook


def _sign_bits(codebook, m_a, m_s):
    """Sign bits of the message pairs (m_a, m_s), read from the codebook:
    the information bits, then the redundant bits."""
    return np.concatenate([codebook.info_bits[m_s], codebook.redundant_bits[m_a, m_s]], axis=-1)


@pytest.mark.parametrize("kind", ["smd", "bmd"])
def test_decode_noiseless_recovers_message(kind):
    # the identity channel hands over each sent point, and only the sent
    # candidate passes the boxes
    dmc, layer, codebook = _noiseless_setup()
    dec = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, codebook, dmc)
    m_a = np.repeat([0, layer.size // 2, layer.size - 1], 2)
    m_s = np.tile([0, 3], 3)
    x = np.asarray(CST.amplitudes)[layer.amplitude_seqs[m_a]] * (2 * _sign_bits(codebook, m_a, m_s) - 1)
    y = np.searchsorted(CST.points, x)
    mask = dec.accept_mask(y)
    want = np.zeros_like(mask)
    want[np.arange(len(y)), m_a * codebook.num_sign_messages + m_s] = True
    np.testing.assert_array_equal(mask, want)


def test_decode_multiple_on_uninformative_channel():
    # output independent of input: every typical (a, s) pair passes its boxes,
    # so no output singles out one candidate
    flat = Dmc(np.full((4, 4), 0.25))
    layer = build_shaping_layer(CST, flat, (0.5, 0.5), 4, 0.1)
    codebook = draw_sign_codebook(layer.size, 2, 2, seed=1)
    dec = SmdDecoder(layer, codebook, flat)
    mask = dec.accept_mask(np.array([[0, 1, 2, 3], [3, 3, 0, 0]]))
    assert mask.shape == (2, layer.size * codebook.num_sign_messages)
    assert mask.all()


@pytest.mark.parametrize(
    "m_a_count,n2",
    [(16, 4), (1, 4), (15, 3), (15, 5)],
    ids=["m_a-16", "m_a-1", "n2-3", "n2-5"],
)
@pytest.mark.parametrize("decoder", [SmdDecoder, BmdDecoder], ids=["smd", "bmd"])
def test_decoder_rejects_codebook_of_another_layer(decoder, m_a_count, n2):
    layer = build_shaping_layer(CST, NOISY, (0.7, 0.3), 6, 0.1)
    assert (layer.size, layer.n) == (15, 6)
    codebook = draw_sign_codebook(m_a_count, 2, n2, seed=0)
    shapes = rf"shape \({m_a_count}, 4, {n2}\).*want \(15, 4, 4\)"
    with pytest.raises(ValueError, match=shapes):
        decoder(layer, codebook, NOISY)


# noisy enough that bit-level decoding accepts candidates whose triple fails
PAIRWISE = dict(
    constellation=CST,
    dmc=gaussian_dmc(np.asarray(CST.points, float), sigma=0.6, num_bins=3),
    amplitude_pmf=(0.7, 0.3), eps=0.3, n=6, gamma=0.3, decoder="bmd", trials=500, seed=1,
)


def test_triple_mask_on_rows_matches_full_symbol_test():
    cfg = ExperimentConfig(**PAIRWISE)
    layer = build_shaping_layer(CST, cfg.dmc, cfg.amplitude_pmf, cfg.n, cfg.eps)
    codebook = draw_sign_codebook(layer.size, cfg.n1, cfg.n - cfg.n1, seed=2)
    smd = SmdDecoder(layer, codebook, cfg.dmc)
    bmd = BmdDecoder(layer, codebook, cfg.dmc)
    cand = smd.cand
    points = CST.sign_amplitude_index[cand.s_pos, cand.a_pos].T  # (candidates, n)
    rng = np.random.default_rng(0)
    pairwise_only = 0
    for k in rng.integers(cand.count, size=50):
        y = np.array([[rng.choice(cfg.dmc.nout, p=cfg.dmc.w[x]) for x in points[k]]])
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
    # from the sign-output transition and the bit channels
    cfg = ExperimentConfig(**case)
    layer = build_shaping_layer(cfg.constellation, cfg.dmc, cfg.amplitude_pmf, cfg.n, cfg.eps)
    codebook = draw_sign_codebook(layer.size, cfg.n1, cfg.n - cfg.n1, seed=4)
    dec = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, codebook, cfg.dmc)
    p_asy, p_by = _reference_tables(layer, cfg.dmc)
    bits = layer.label_map.amplitude_bit_matrix
    typ = TypConfig(n=cfg.n, eps=cfg.eps)
    rng = np.random.default_rng(0)
    pairs = 300
    m_a = rng.integers(layer.size, size=pairs)
    m_s = rng.integers(codebook.num_sign_messages, size=pairs)
    # each output sent from its own candidate, or from another half the time
    sent_a = np.where(np.arange(pairs) % 2, m_a, rng.integers(layer.size, size=pairs))
    points = cfg.constellation.sign_amplitude_index
    y = np.array([
        [rng.choice(cfg.dmc.nout, p=cfg.dmc.w[points[sb, ab]]) for sb, ab in zip(
            _sign_bits(codebook, i, j), layer.amplitude_seqs[k])]
        for i, j, k in zip(m_a, m_s, sent_a)
    ])
    got = dec.accept_mask(y)[np.arange(pairs), m_a * codebook.num_sign_messages + m_s]
    want = []
    for i, j, y_seq in zip(m_a, m_s, y):
        a, s = layer.amplitude_seqs[i], _sign_bits(codebook, i, j)
        if kind == "smd":
            want.append(is_jointly_typical((a, s, y_seq), p_asy, typ))
        else:
            want.append(is_jointly_typical((s, y_seq), p_asy.sum(axis=0), typ) and all(
                is_jointly_typical((bits[a, level], y_seq), p, typ) for level, p in enumerate(p_by)
            ))
    np.testing.assert_array_equal(got, want)
    assert 0 < got.sum() < pairs


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


def _reference_tables(layer, dmc):
    """p(a, s, y) from the sign-output transition, and p(b_j, y) of each
    amplitude bit level from its bit channel: built apart from the decoders."""
    cst = layer.constellation
    p_asy = (layer.amplitude_pmf[:, None] * sign_output_transition(cst, dmc)).reshape(-1, 2, dmc.nout)
    p_x = np.zeros(cst.size)
    p_x[cst.sign_amplitude_index] = 0.5 * layer.amplitude_pmf
    p_by = []
    for level in range(1, cst.m + 1):  # level 0 is the sign bit
        prior, trans = bit_channel(dmc, layer.label_map, p_x, level)
        p_by.append(prior[:, None] * trans)
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


def _reference(dec, dmc):
    """One output's (candidates,) acceptances by every box on its own, from
    tables built apart from the decoder and each candidate's letters read
    from the codebook."""
    layer, codebook, n, eps = dec.layer, dec.codebook, dec.layer.n, dec.eps
    p_asy, p_by = _reference_tables(layer, dmc)
    m_a, m_s = np.divmod(np.arange(layer.size * codebook.num_sign_messages), codebook.num_sign_messages)
    a = layer.amplitude_seqs[m_a].astype(np.intp)
    s = _sign_bits(codebook, m_a, m_s).astype(np.intp)
    bits = layer.label_map.amplitude_bit_matrix

    def mask(y):
        y = np.asarray(y, dtype=np.intp)[None, :]
        if isinstance(dec, SmdDecoder):
            return _all_boxes(p_asy, (a, s, y), n, eps)
        ok = _all_boxes(p_asy.sum(axis=0), (s, y), n, eps)
        for j, p in enumerate(p_by):
            ok = ok & _all_boxes(p, (bits[:, j][a], y), n, eps)
        return ok

    return mask


def _per_trial_reference(cfg):
    """The experiment scored one trial at a time; returns the decoder, the
    (trials, n) outputs, the stacked masks and the error counts."""
    layer = build_shaping_layer(cfg.constellation, cfg.dmc, cfg.amplitude_pmf, cfg.n, cfg.eps)
    amp_bits = layer_amplitude_bits(layer) if cfg.codebook_mode == "linear" else None
    codebook = draw_sign_codebook(
        layer.size, cfg.n1, cfg.n - cfg.n1, mode=cfg.codebook_mode, seed=cfg.seed,
        amplitude_bits=amp_bits,
    )
    dec = (SmdDecoder if cfg.decoder == "smd" else BmdDecoder)(layer, codebook, cfg.dmc)
    reference = _reference(dec, cfg.dmc)
    triple = _reference(SmdDecoder(layer, codebook, cfg.dmc), cfg.dmc)
    cand = dec.cand
    points = cfg.constellation.sign_amplitude_index[cand.s_pos, cand.a_pos].T
    cdf_rows = np.cumsum(cfg.dmc.w, axis=1)
    outputs, masks = [], []
    counts = dict.fromkeys(("err", "k1", "k2", "both", "pairwise_only"), 0)
    for t in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, t]))
        m_a = int(rng.integers(cand.m_a_count))
        m_s = int(rng.integers(cand.m_s_count))
        k = m_a * cand.m_s_count + m_s
        u = rng.random(cfg.n)
        y = (cdf_rows[points[k]] < u[:, None]).sum(axis=1)
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
    return dec, np.array(outputs), np.array(masks), counts


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


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_scoring_matches_per_trial_loop(case, monkeypatch):
    cfg = ExperimentConfig(**BLOCK_CASES[case])
    dec, y, masks, counts = _per_trial_reference(cfg)
    distinct = len(np.unique(y, axis=0))
    assert (distinct > 0.9 * cfg.trials) if case == "wide-output" else (distinct < cfg.trials)
    # runs of a tail letter, which the y box rejects, among the drawn outputs
    tails = np.repeat([[0], [cfg.dmc.nout - 1]], cfg.n, axis=1)
    p_y = _reference_tables(dec.layer, cfg.dmc)[0].sum(axis=(0, 1))
    assert not _all_boxes(p_y, (tails,), cfg.n, cfg.eps).any()
    y = np.concatenate([y[:100], tails, y[100:]])
    reference = _reference(dec, cfg.dmc)
    masks = np.concatenate([masks[:100], [reference(row) for row in tails], masks[100:]])
    block = dec.accept_mask(y)
    assert block.shape == (cfg.trials + 2, dec.cand.count)
    np.testing.assert_array_equal(block, masks)
    np.testing.assert_array_equal(np.array([dec.accept_mask(row[None])[0] for row in y]), masks)
    assert masks.any()
    if case == "bmd-pairwise-only":
        assert counts["pairwise_only"] > 500
    candidates = dec.cand.count
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
    pool_map = signcode.ThreadPoolExecutor.map

    def counted_pool_map(self, *args, **kwargs):
        pool_maps[0] += 1
        return pool_map(self, *args, **kwargs)

    monkeypatch.setattr(type(dec), "accept_mask", counted_mask)
    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(signcode.ThreadPoolExecutor, "map", counted_pool_map)
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
    layer = ShapingLayer(
        constellation=CST, label_map=brgc_label(CST), amplitude_pmf=np.array([0.7, 0.3]),
        n=6, eps=0.2, amplitude_seqs=np.array(list(itertools.product(range(2), repeat=6)), dtype=np.uint8),
    )
    codebook = draw_sign_codebook(layer.size, 1, 5, seed=3)
    dec = (SmdDecoder if kind == "smd" else BmdDecoder)(layer, codebook, blind)
    assert not dec.test.static.all()
    y = np.random.default_rng(0).integers(blind.nout, size=(200, 6))
    reference = _reference(dec, blind)
    masks = np.array([reference(row) for row in y])
    np.testing.assert_array_equal(dec.accept_mask(y), masks)
    assert masks.any()
    triple = _reference(SmdDecoder(layer, codebook, blind), blind)
    full = np.array([triple(row) for row in y[:20]])
    b, c = np.nonzero(np.ones_like(full))  # every (output, candidate) pair
    np.testing.assert_array_equal(dec.triple_mask(y[b], c), full[b, c])


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
    monkeypatch.setattr(signcode, "ThreadPoolExecutor", RecordingPool)
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
    assert not any(res.exact for res in layer.b_set.class_probs.values())
    sizes = {run_experiment(ExperimentConfig(seed=seed, **base)).m_a_count for seed in (0, 1, 9)}
    assert sizes == {layer.size}


def test_gamma_realized_rounding():
    cfg = ExperimentConfig(
        constellation=CST, dmc=NOISY, amplitude_pmf=(0.7, 0.3), eps=0.1,
        n=6, gamma=0.3, decoder="smd", trials=10, seed=0,
    )
    assert cfg.n1 == 2  # floor(1.8 + 0.5)
    assert cfg.gamma_realized == pytest.approx(2 / 6)
