"""Random sign-coding experiment: shaped amplitudes carry the message, signs
carry redundancy (plus an optional gamma * n information-sign budget), and
decoding is a joint-typicality search.

Each decoder is a list of weak-typicality boxes, margins of one pmf table
whose last axis is the output y, and one builder (`_BoxTest`) turns a table
and its list into the test. Both decoders read p(a, s, y) from the shaping
layer, which forms it once from the product p(a) t((s, y) | a) that its
B-typical test is built on:
- symbol-metric (`smd`): every nonempty subset of (a, s, y) under p(a, s, y);
- bit-metric (`bmd`): {s}, {y}, {s, y} and, for each amplitude bit level j,
  {b_j} and {b_j, y} under p(b_1, ..., b_m, s, y), which is p(a, s, y) with
  its amplitude axis relabelled by the Gray amplitude bits. Its
  `triple_mask` applies the symbol-metric list, to count pairwise-only
  acceptances.

Seed discipline: the sign code draws from SeedSequence([seed, 0]). Trial t
draws exactly what numpy's default_rng(SeedSequence([seed, 1, t])) gives
through .integers(M_a), .integers(M_s) and .random(n), but `streams.draw`
computes them for DRAW_CHUNK trials at once. It relies on numpy's
SeedSequence mixing, PCG64 with the XSL-RR output, 32-bit Lemire bounded
integers and 53-bit doubles; tests/test_streams.py fails if a numpy release
changes any of them. A trial's acceptances depend only on its output, so
each distinct output of a drawn chunk is scored once, against every
candidate, in blocks of about BLOCK_CELLS (output, candidate) cells, and
`--threads` maps over the blocks of a chunk that holds more than one, on no
more threads than the process has usable CPUs. Since every trial keeps its
own stream and the counts are integer sums, results do not depend on the
chunk or block size or on the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import streams
from .alphabets import AskConstellation, brgc_label
from .channel import Dmc
from .errors import BudgetError, ConfigError
from .infomeasures import check_pmf, entropy_raw, log2_safe
from .typicality import (
    DEFAULT_BUDGET,
    BTypicalSet,
    TypConfig,
    enumerate_b_typical,
    in_box,
)

DECODE_BUDGET = 1_000_000
SIGN_CODE_MODES = ("iid", "linear")  # how the redundant signs are drawn; see draw_sign_code
_MODE_NAMES = " or ".join(map(repr, SIGN_CODE_MODES))  # "'iid' or 'linear'", for error messages
# (output, candidate) cells scored at once; bounds a block's working set, since
# the candidate count can reach DECODE_BUDGET
BLOCK_CELLS = 1 << 18
# trials drawn per vectorised pass of streams.draw, rounded to a multiple of
# the block size: the pass has a fixed cost, and a repeated output is scored
# once per chunk, so a large chunk pays for both over many trials
DRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class ShapingLayer:
    """One-to-one message map onto the conditioned typical amplitude set.

    amplitude_seqs is the read-only (M_a, n) array of the conditioned typical
    set's members (uint8 amplitude indices, in lexicographic order), so row
    m_a is message m_a's amplitude sequence. joint is p(a, s, y), the
    (2^m, 2, nout) table p(a) t((s, y) | a) of the set's test with uniform
    signs. Both decoders read the two: the bit-level one reads the members
    and the table's amplitude axis through the Gray amplitude bits.
    """

    constellation: AskConstellation
    n: int
    eps: float
    amplitude_seqs: np.ndarray = field(repr=False)
    joint: np.ndarray = field(repr=False)
    b_set: BTypicalSet = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.amplitude_seqs)

    @property
    def amplitude_bits(self) -> np.ndarray:
        """(2^m, m) Gray amplitude bits, row k those of amplitudes[k]."""
        return brgc_label(self.constellation)[self.constellation.num_amplitudes :, 1:]


def sign_output_transition(constellation: AskConstellation, dmc: Dmc) -> np.ndarray:
    """p((s, y) | a) with uniform signs, flattened as v = s_bit * nout + y."""
    if dmc.nin != constellation.size:
        raise ValueError("channel inputs must match the constellation points")
    t = 0.5 * dmc.w[constellation.sign_amplitude_index.T]  # (a, s, y)
    return t.reshape(constellation.num_amplitudes, 2 * dmc.nout)


def build_shaping_layer(
    constellation: AskConstellation,
    dmc: Dmc,
    amplitude_pmf,
    n: int,
    eps: float,
    budget: int = DEFAULT_BUDGET,
) -> ShapingLayer:
    """Enumerate the conditioned typical set of shaped amplitudes."""
    p_a = check_pmf(amplitude_pmf)
    if p_a.shape != (constellation.num_amplitudes,):
        raise ValueError("amplitude_pmf must cover the amplitude alphabet")
    cfg = TypConfig(n=n, eps=eps, budget=budget)
    trans = sign_output_transition(constellation, dmc)
    b_set = enumerate_b_typical(p_a, trans, cfg)
    if b_set.count == 0:
        raise ConfigError(
            f"no amplitude sequence survives the conditioned typicality test "
            f"(n={n}, eps={eps}); widen eps or change n"
        )
    joint = (p_a[:, None] * trans).reshape(constellation.num_amplitudes, 2, dmc.nout)
    joint.flags.writeable = False
    return ShapingLayer(
        constellation=constellation, n=n, eps=eps, amplitude_seqs=b_set.members, joint=joint, b_set=b_set
    )


@dataclass(frozen=True)
class SignCode:
    """The random sign code over a shaping layer, as every candidate's letters.

    Column c of the (n, C) intp arrays is candidate c = m_a * M_s + m_s, with
    M_s = 2^n1: its amplitudes are layer member m_a, and its sign bits (0 <->
    -1, 1 <-> +1) are the n1 bits of m_s, MSB first, then the n - n1
    redundant signs drawn for the pair.
    """

    layer: ShapingLayer
    n1: int
    amplitudes: np.ndarray = field(repr=False)  # (n, C)
    signs: np.ndarray = field(repr=False)  # (n, C)


def draw_sign_code(layer: ShapingLayer, n1: int, mode: str = "iid", seed: int = 0) -> SignCode:
    """Draw the redundant signs of every (m_a, m_s) message pair.

    iid mode draws each redundant sign fair-coin; linear mode applies a fixed
    random GF(2) map to (amplitude bits of m_a ++ information bits of m_s).
    """
    if mode not in SIGN_CODE_MODES:
        raise ValueError(f"mode must be {_MODE_NAMES}, got {mode}")
    if not 0 <= n1 <= layer.n:
        raise ValueError(f"n1 must be in [0, {layer.n}], got {n1}")
    m_a_count, m_s_count, n2 = layer.size, 2**n1, layer.n - n1
    if m_a_count * m_s_count > DECODE_BUDGET:
        raise BudgetError(
            f"{m_a_count} x {m_s_count} candidate pairs exceed the decode budget",
            needed=m_a_count * m_s_count,
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    info = (np.arange(m_s_count)[:, None] >> np.arange(n1 - 1, -1, -1)) & 1  # (M_s, n1)
    if mode == "iid":
        redundant = rng.integers(0, 2, size=(m_a_count, m_s_count, n2), dtype=np.int8)
    else:
        amp = layer.amplitude_bits[layer.amplitude_seqs].reshape(m_a_count, -1)
        k = amp.shape[1]
        gen = rng.integers(0, 2, size=(k + n1, n2), dtype=np.int8)
        # (amplitude bits of m_a ++ information bits of m_s) @ gen over GF(2)
        redundant = ((amp @ gen[:k].astype(np.intp))[:, None] + info @ gen[k:]) % 2
    signs = np.empty((layer.n, m_a_count * m_s_count), dtype=np.intp)
    signs[:n1] = np.tile(info.T, m_a_count)
    signs[n1:] = redundant.reshape(-1, n2).T
    return SignCode(
        layer=layer,
        n1=n1,
        amplitudes=np.repeat(layer.amplitude_seqs.T.astype(np.intp), m_s_count, axis=1),
        signs=signs,
    )


class _BoxTest:
    """The joint-typicality boxes of one decoder over every candidate.

    joint is a pmf table whose last axis is the output y. Each box is the
    margin of joint on a sorted tuple of its axes, and letters holds every
    candidate's (n, C) letters on each axis but y. Every box sums its log
    table over positions, adding one position at a time: a box without y
    once per candidate, into the static candidate mask; the y box once per
    output; every other box once per (output, candidate), as
    table[codes[i], y[i]].
    """

    def __init__(self, joint: np.ndarray, boxes, letters, eps: float):
        y_axis = joint.ndim - 1
        self.n, self.eps = letters[0].shape[0], eps
        self.static = np.ones(letters[0].shape[1], dtype=bool)  # (C,)
        self.terms = []  # [(table (K, nout), codes (n, C), entropy)]
        for axes in boxes:
            drop = tuple(d for d in range(joint.ndim) if d not in axes)
            marg = joint.sum(axis=drop) if drop else joint
            log, h = log2_safe(marg), entropy_raw(marg)
            if axes == (y_axis,):
                self.log_y, self.h_y = log, h
                continue
            letter_axes = [d for d in axes if d != y_axis]
            codes = letters[letter_axes[0]]
            for d in letter_axes[1:]:  # the row-major index into the margin
                codes = codes * joint.shape[d] + letters[d]
            if y_axis in axes:
                self.terms.append((log.reshape(-1, joint.shape[y_axis]), codes, h))
            else:
                self.static &= in_box(log.ravel()[codes].sum(axis=0), self.n, h, eps)

    def _y_box(self, y: np.ndarray) -> np.ndarray:
        return in_box(self.log_y[y].sum(axis=1), self.n, self.h_y, self.eps)

    def accept(self, y: np.ndarray) -> np.ndarray:
        """(B, C) acceptances of every candidate for a (B, n) block of outputs."""
        ok = self.static[:, None] & self._y_box(y)  # (C, B): row gathers are the fast ones
        for table, codes, h in self.terms:
            total = np.take(table[:, y[:, 0]], codes[0], axis=0)
            for i in range(1, self.n):
                total += np.take(table[:, y[:, i]], codes[i], axis=0)
            ok &= in_box(total, self.n, h, self.eps)
        return ok.T

    def pairs(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(P,) acceptances of candidate rows[p] for output y[p] of a (P, n)
        block, summed in the same order as `accept`."""
        ok = self.static[rows] & self._y_box(y)
        for table, codes, h in self.terms:
            total = table[codes[0, rows], y[:, 0]]
            for i in range(1, self.n):
                total += table[codes[i, rows], y[:, i]]
            ok &= in_box(total, self.n, h, self.eps)
        return ok


# every nonempty subset of the axes (a, s, y) of p(a, s, y)
_SMD_BOXES = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


class SmdDecoder:
    """Accepts (m_a, m_s) iff the amplitude, sign and output sequences are
    jointly typical as a triple: the box of every subset of (a, s, y) holds."""

    def __init__(self, code: SignCode):
        self.code, self.eps = code, code.layer.eps
        self.test = _BoxTest(code.layer.joint, _SMD_BOXES, (code.amplitudes, code.signs), self.eps)

    def accept_mask(self, y: np.ndarray) -> np.ndarray:
        """(B, C) acceptances for a (B, n) block of outputs."""
        return self.test.accept(y)

    def triple_mask(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The same test on candidate rows[p] for output y[p] only."""
        return self.test.pairs(y, rows)


class BmdDecoder:
    """Accepts (m_a, m_s) iff (s, y) and every (b_j, y) pair is jointly
    typical: the boxes of {s}, {y}, {s, y}, and of {b_j} and {b_j, y} for
    every amplitude bit level j."""

    def __init__(self, code: SignCode):
        self.code, self.eps = code, code.layer.eps
        t = code.layer.joint
        bits = code.layer.amplitude_bits  # (2^m, m)
        m = bits.shape[1]
        # p(b_1, ..., b_m, s, y): the amplitude axis relabelled by its bits
        joint = np.zeros((2,) * m + t.shape[1:])
        joint[tuple(bits.T)] = t
        s, y = m, m + 1
        boxes = [(s,), (y,), (s, y)] + [box for j in range(m) for box in ((j,), (j, y))]
        letters = [*bits.T.astype(np.intp)[:, code.amplitudes], code.signs]
        self.test = _BoxTest(joint, boxes, letters, self.eps)
        # the symbol-level test, to log pairwise-only acceptances
        self.triple = _BoxTest(t, _SMD_BOXES, (code.amplitudes, code.signs), self.eps)

    def accept_mask(self, y: np.ndarray) -> np.ndarray:
        """(B, C) acceptances for a (B, n) block of outputs."""
        return self.test.accept(y)

    def triple_mask(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The symbol-level test on candidate rows[p] for output y[p], to log
        pairwise-only acceptances."""
        return self.triple.pairs(y, rows)


@dataclass(frozen=True)
class ExperimentConfig:
    constellation: AskConstellation
    dmc: Dmc
    amplitude_pmf: tuple
    eps: float
    n: int
    gamma: float
    decoder: str  # "smd" | "bmd"
    trials: int
    seed: int
    codebook_mode: str = "iid"
    typ_budget: int = None  # the typicality budget; None is DEFAULT_BUDGET

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.decoder not in ("smd", "bmd"):
            raise ConfigError(f"decoder must be 'smd' or 'bmd', got {self.decoder}")
        if self.codebook_mode not in SIGN_CODE_MODES:
            raise ConfigError(f"codebook_mode must be {_MODE_NAMES}, got {self.codebook_mode}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0 < self.eps < math.inf:  # NaN fails too
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.typ_budget is not None and self.typ_budget < 1:
            raise ConfigError(f"typ_budget must be positive, got {self.typ_budget}")
        if self.n1 == self.n:
            raise ConfigError(
                f"gamma {self.gamma} at n={self.n} rounds to n1={self.n1} information signs, "
                f"leaving no redundant sign; lower gamma or raise n"
            )

    @property
    def n1(self) -> int:
        return int(math.floor(self.gamma * self.n + 0.5))

    @property
    def gamma_realized(self) -> float:
        return self.n1 / self.n


@dataclass(frozen=True)
class TrialStats:
    """Aggregated experiment outcome; errors_total = kind1 + kind2 - both."""

    trials: int
    errors_total: int
    errors_kind1: int  # transmitted tuple failed the typicality test
    errors_kind2: int  # some other tuple passed it
    both: int
    rate_achieved: float
    n: int
    eps: float
    gamma: float
    gamma_realized: float
    n1: int
    m_a_count: int
    seed: int
    decoder: str
    bmd_pairwise_only: int = 0  # accepted bit-level candidates with atypical triple

    def to_dict(self) -> dict:
        return asdict(self)


def _channel_outputs(cdf_rows: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Output letter per entry of x: the number of its cdf row's entries below u,
    capped at the last letter (a cdf row is non-decreasing, so a sorted search)."""
    y = np.empty(x.shape, dtype=np.intp)
    for point in np.unique(x):
        at = x == point
        y[at] = np.searchsorted(cdf_rows[point], u[at], side="left")
    return np.minimum(y, cdf_rows.shape[1] - 1)


def _distinct_outputs(y: np.ndarray, nout: int):
    """The distinct rows of a (T, n) output block in lexicographic order, and
    the trial order that groups the trials by row: row r's trials are
    order[bounds[r]:bounds[r + 1]]."""
    n = y.shape[1]
    if nout**n <= np.iinfo(np.int64).max:  # the row read as a base-nout integer
        key = y @ nout ** np.arange(n - 1, -1, -1, dtype=np.int64)
    else:
        key = np.unique(y, axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(key, kind="stable")
    firsts = np.flatnonzero(np.diff(key[order], prepend=-1))  # keys are >= 0
    return y[order[firsts]], order, np.append(firsts, key.size)


def _score_block(decoder, log_pairwise, y, counts, sent):
    """[errors, kind1, kind2, both, pairwise-only] over the trials that
    received a block of distinct outputs y (D, n): counts[r] trials received
    y[r], and sent holds their sent candidates, grouped by output in row order."""
    mask = decoder.accept_mask(y)  # (D, C)
    received = np.repeat(np.arange(len(y)), counts)
    hit = mask[received, sent]
    kind1 = ~hit
    kind2 = mask.sum(axis=1)[received] - hit > 0
    pairwise_only = 0
    if log_pairwise:
        r, c = np.nonzero(mask)
        if r.size:
            pairwise_only = int(counts[r][~decoder.triple_mask(y[r], c)].sum())
    return np.array(
        [(kind1 | kind2).sum(), kind1.sum(), kind2.sum(), (kind1 & kind2).sum(), pairwise_only]
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, threads: int = 1) -> TrialStats:
    """Monte Carlo decode-error experiment over the random sign code."""
    layer = build_shaping_layer(
        config.constellation,
        config.dmc,
        np.asarray(config.amplitude_pmf, dtype=float),
        config.n,
        config.eps,
        DEFAULT_BUDGET if config.typ_budget is None else config.typ_budget,
    )
    n1, m_s_count = config.n1, 2**config.n1
    code = draw_sign_code(layer, n1, config.codebook_mode, config.seed)
    decoder = (SmdDecoder if config.decoder == "smd" else BmdDecoder)(code)
    # candidate -> transmitted point index per position
    point_idx = np.ascontiguousarray(config.constellation.sign_amplitude_index[code.signs, code.amplitudes].T)
    cdf_rows = np.cumsum(config.dmc.w, axis=1)
    log_pairwise = config.decoder == "bmd"

    size = max(1, BLOCK_CELLS // len(point_idx))
    chunk = max(1, DRAW_CHUNK // size) * size  # whole blocks
    score = partial(_score_block, decoder, log_pairwise)
    parts = []
    # a pool may start a thread for each block it maps: no wider than the CPUs
    width = min(threads, _usable_cpus())
    with ThreadPoolExecutor(max_workers=width) if threads > 1 else nullcontext() as pool:
        for start in range(0, config.trials, chunk):
            # each trial's sent message pair and channel uniforms, from its own stream
            trials = range(start, min(start + chunk, config.trials))
            ints, u = streams.draw(config.seed, trials, (layer.size, m_s_count), config.n)
            sent = ints[:, 0] * m_s_count + ints[:, 1]
            y = _channel_outputs(cdf_rows, point_idx[sent], u)
            rows, order, bounds = _distinct_outputs(y, config.dmc.nout)
            sent = sent[order]
            starts = range(0, len(rows), size)
            edges = [bounds[r : r + size + 1] for r in starts]
            # a chunk of one block gains nothing from the pool but its hand-off
            mapper = pool.map if pool and len(starts) > 1 else map
            parts += mapper(
                score, [rows[r : r + size] for r in starts], [np.diff(e) for e in edges],
                [sent[e[0] : e[-1]] for e in edges],
            )
    err, k1, k2, both, pairwise_only = (int(v) for v in np.sum(parts, axis=0))
    rate = (math.log2(layer.size) + n1) / config.n
    return TrialStats(
        trials=config.trials,
        errors_total=err,
        errors_kind1=k1,
        errors_kind2=k2,
        both=both,
        rate_achieved=rate,
        n=config.n,
        eps=config.eps,
        gamma=config.gamma,
        gamma_realized=config.gamma_realized,
        n1=n1,
        m_a_count=layer.size,
        seed=config.seed,
        decoder=config.decoder,
        bmd_pairwise_only=pairwise_only,
    )
