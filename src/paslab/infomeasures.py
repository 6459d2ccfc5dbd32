"""Entropies, mutual information, and mismatched-decoding rates on finite tables.

All logs are base 2, 0*log(0) terms are dropped, and expectations skip
zero-probability (x, y) cells. Channel arguments accept either a Dmc or a
bare matrix; `joint_from_input` checks a bare one as a channel for the input
it meets, and every rate starts from the joint it returns. Labels are the
(M, m+1) bit table of `alphabets.brgc_label`: each bit-level quantity is a
margin of the joint `label_joint` indexes by those bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .alphabets import AskConstellation
from .channel import ROW_TOL, Dmc
from .optim import brent_max

PMF_TOL = 1e-12
S_RANGE = (0.0, 16.0)
S_XTOL = 1e-6


def check_pmf(p) -> np.ndarray:
    """Validate and return a probability vector (any shape, summed over all cells)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0):
        raise ValueError("pmf entries must be non-negative")
    if not abs(arr.sum() - 1.0) <= PMF_TOL:  # a NaN sum fails too
        raise ValueError(f"pmf sums to {float(arr.sum())}, not 1")
    return arr


def log2_safe(p: np.ndarray) -> np.ndarray:
    """Elementwise log2 with -inf on zero cells, without a divide warning."""
    return np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), -np.inf)


def entropy_raw(p: np.ndarray) -> float:
    """-sum p log2 p over the positive cells of a table, without validating it."""
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0  # + 0.0 turns a point mass's -0.0 into 0.0


def entropy(p) -> float:
    """Shannon entropy in bits of a pmf of any shape."""
    return entropy_raw(check_pmf(p))


def joint_from_input(input_pmf, chan) -> np.ndarray:
    """p(x, y) = p(x) w(y|x) as an (nin, nout) table.

    w must be a channel where p meets it: finite and non-negative, and each
    row of an input with positive mass summing to 1 within ROW_TOL. A row of
    an input with no mass may sum to anything, zero included.
    """
    w = chan.w if isinstance(chan, Dmc) else np.asarray(chan, dtype=float)
    if w.ndim != 2:
        raise ValueError("channel must be a 2-D row-stochastic matrix")
    p = check_pmf(input_pmf)
    if p.shape != (w.shape[0],):
        raise ValueError("input pmf length must match channel input count")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0)):
        raise ValueError("channel transition probabilities must be finite and non-negative")
    if np.any((p > 0) & (np.abs(w.sum(axis=1) - 1.0) > ROW_TOL)):
        raise ValueError("each channel row of an input with positive mass must sum to 1")
    return p[:, None] * w


def mutual_information(input_pmf, chan) -> float:
    """I(X;Y) in bits per channel use."""
    j = joint_from_input(input_pmf, chan)
    px = j.sum(axis=1)
    py = j.sum(axis=0)
    return entropy_raw(px) + entropy_raw(py) - entropy_raw(j)


def equivocation(input_pmf, chan) -> float:
    """H(X|Y) in bits."""
    j = joint_from_input(input_pmf, chan)
    return entropy_raw(j) - entropy_raw(j.sum(axis=0))


def label_joint(joint: np.ndarray, labels) -> np.ndarray:
    """A joint table with axis 0 replaced by its labels' bits.

    labels is a (K, L) 0/1 table that maps the K rows of axis 0 one-to-one
    onto L-bit words, as `alphabets.brgc_label` and
    `ShapingLayer.amplitude_bits` do. Returns the (2,)*L + joint.shape[1:]
    table whose cell (c_1, ..., c_L, ...) is joint[k, ...] for the row k
    labelled c.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[0] != joint.shape[0]:
        raise ValueError("the label table needs one row per entry of the joint's axis 0")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("the label table must hold 0/1 bits only")
    words = labels.astype(np.intp) @ (1 << np.arange(labels.shape[1]))
    if np.bincount(words, minlength=1).max() > 1:
        raise ValueError("the label table gives two rows of the joint's axis 0 the same word")
    out = np.zeros((2,) * labels.shape[1] + joint.shape[1:])
    out[tuple(labels.T)] = joint
    return out


def _level_margins(joint: np.ndarray, labels: np.ndarray) -> list:
    """p(c_i, ...) of every label level i: the margins of `label_joint`."""
    labelled = label_joint(joint, labels)
    levels = range(labels.shape[1])
    return [labelled.sum(axis=tuple(d for d in levels if d != i)) for i in levels]


def bmd_rate_unclipped(input_pmf, chan, labels: np.ndarray) -> float:
    """H(C) - sum_i H(C_i|Y), with H(C_i|Y) = H(C_i, Y) - H(Y); may be
    negative for bad channels."""
    joint = joint_from_input(input_pmf, chan)
    h_y = entropy_raw(joint.sum(axis=0))
    h_c = entropy_raw(check_pmf(input_pmf))  # labels are a bijection onto inputs
    margins = _level_margins(joint, labels)
    return h_c - sum(entropy_raw(cy) - h_y for cy in margins)


def r_bmd(input_pmf, chan, labels: np.ndarray) -> float:
    """Binary-level decoding rate, clipped at zero."""
    return max(0.0, bmd_rate_unclipped(input_pmf, chan, labels))


def product_bit_metric(input_pmf, chan, labels: np.ndarray) -> np.ndarray:
    """Symbol metric q(x,y) = prod_i p(y | c_i(x)); the row p(y | c_i) of a
    bit value of prior zero is left at zero."""
    joint = joint_from_input(input_pmf, chan)
    q = np.ones_like(joint)
    for col, cy in zip(labels.T, _level_margins(joint, labels)):
        prior = cy.sum(axis=1, keepdims=True)
        q *= np.divide(cy, prior, out=np.zeros_like(cy), where=prior > 0)[col]
    return q


def bmd_cost(input_pmf, labels: np.ndarray) -> np.ndarray:
    """Decoding cost r(x) = prod_i p(c_i(x)) / p(x); needs full input support."""
    p = check_pmf(input_pmf)
    if np.any(p == 0):
        raise ValueError("bmd_cost needs a full-support input pmf")
    r = np.ones_like(p)
    for col, prior in zip(labels.T, _level_margins(p, labels)):
        r *= prior[col]
    return r / p


def _check_metric(joint: np.ndarray, metric: np.ndarray):
    if metric.shape != joint.shape:
        raise ValueError("metric must have the channel's (nin, nout) shape")
    if np.any(metric < 0):
        raise ValueError("metric values must be non-negative")
    if np.any((joint > 0) & (metric == 0)):
        raise ValueError("metric is zero on a point with positive probability")


def _generalized_rate(joint, metric, s, cost=None) -> float:
    """E[log2(q^s r / sum_x' p(x') q^s r)] over the support of p(x,y).

    Works with log2 q^s throughout and takes the normalizer as a max-shifted
    log-sum-exp over x, so a q^s that would underflow (q near 1e-87 at s 4)
    cannot leave a zero denominator. q^0 is 1, zero metric cells included.
    """
    log_qs = s * log2_safe(metric) if s != 0 else np.zeros_like(metric)
    log_r = np.zeros(joint.shape[0]) if cost is None else log2_safe(cost)
    terms = log_qs + (log2_safe(joint.sum(axis=1)) + log_r)[:, None]
    peak = terms.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0  # an output no input reaches: the sum is 0
    with np.errstate(divide="ignore", under="ignore"):  # terms far below the peak add nothing
        log2_den = peak + np.log2(np.exp2(terms - peak).sum(axis=0))
    x, y = np.nonzero(joint > 0)
    return float((joint[x, y] * (log_qs[x, y] + log_r[x] - log2_den[y])).sum())


class GmiResult(NamedTuple):
    value: float
    s_star: float


def gmi(input_pmf, chan, metric) -> GmiResult:
    """Generalized mutual information, maximized over the metric exponent s.

    The generalized rate is concave in s (s E[log q] minus a log-sum-exp of
    functions affine in s), so one bounded Brent search on s in [0, 16]
    finds its maximum; s = 1 is probed explicitly and wins ties. The value is
    clipped below at zero.
    """
    joint = joint_from_input(input_pmf, chan)
    q = np.asarray(metric, dtype=float)
    _check_metric(joint, q)

    def f(s):
        return _generalized_rate(joint, q, s)

    s_star, value = brent_max(f, S_RANGE[0], S_RANGE[1], S_XTOL)
    v_one = f(1.0)
    if v_one >= value:
        s_star, value = 1.0, v_one
    return GmiResult(value=max(0.0, value), s_star=float(s_star))


def lm_rate(input_pmf, chan, metric, s: float, cost) -> float:
    """Mismatched-decoding rate with metric exponent s and input cost r(x)."""
    joint = joint_from_input(input_pmf, chan)
    q = np.asarray(metric, dtype=float)
    _check_metric(joint, q)
    r = np.asarray(cost, dtype=float)
    if r.shape != (joint.shape[0],):
        raise ValueError("cost must have one value per channel input")
    if np.any(r < 0) or np.any((joint.sum(axis=1) > 0) & (r == 0)):
        raise ValueError("cost must be positive on the input support")
    return _generalized_rate(joint, q, s, cost=r)


def sign_amplitude_joint(p_sa, chan, constellation: AskConstellation) -> np.ndarray:
    """Arrange p(s, a, y) as a (2, 2^m, nout) tensor from a sign x amplitude pmf.

    Row 0 of p_sa is the -1 sign, row 1 the +1 sign, columns follow ascending
    amplitudes. It is p(x, y) of the input p_sa scattered onto the points,
    so `joint_from_input` checks the channel.
    """
    p = check_pmf(p_sa)
    na = constellation.num_amplitudes
    if p.shape != (2, na):
        raise ValueError(f"p_sa must be 2 x {na} for this constellation")
    index = constellation.sign_amplitude_index
    p_x = np.zeros(constellation.size)
    p_x[index] = p
    return joint_from_input(p_x, chan)[index]


def mi_inequality_chain(p_sa, chan, constellation: AskConstellation) -> dict:
    """Decompose I(X;Y) across the sign/amplitude split and check the chain
    I(X;Y) - H(A) <= I(S;Y|A) <= I(S;AY)."""
    t = sign_amplitude_joint(p_sa, chan, constellation)
    h_say = entropy_raw(t)
    h_sa = entropy_raw(t.sum(axis=2))
    h_ay = entropy_raw(t.sum(axis=0))
    h_a = entropy_raw(t.sum(axis=(0, 2)))
    h_s = entropy_raw(t.sum(axis=(1, 2)))
    h_y = entropy_raw(t.sum(axis=(0, 1)))
    mi_xy = h_sa + h_y - h_say
    out = {
        "mi_xy": mi_xy,
        "h_a": h_a,
        "h_s": h_s,
        "h_x_given_y": h_say - h_y,
        "i_a_y": h_a + h_y - h_ay,
        "i_s_y_given_a": (h_sa - h_a) - (h_say - h_ay),
        "i_s_ay": h_s + h_ay - h_say,
    }
    tol = 1e-9
    out["chain_ok"] = (
        mi_xy - h_a <= out["i_s_y_given_a"] + tol
        and out["i_s_y_given_a"] <= out["i_s_ay"] + tol
    )
    return out
