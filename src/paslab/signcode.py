"""Random sign-coding experiment: shaped amplitudes carry the message, signs
carry redundancy (plus an optional gamma * n information-sign budget), and
decoding is a joint-typicality search.

A candidate is its channel inputs: the code is one (n, C) array of point
indices, which the experiment samples outputs from and every decoder test
scores. Each decoder is a list of weak-typicality boxes, margins of one pmf
table whose last axis is the output y, and one label table of the letters
each point puts on the other axes; `decoder_test` makes each `BoxTest`.
Both read p(a, s, y) from the shaping layer, which forms it once from the
product p(a) t((s, y) | a) that its B-typical test is built on:
- symbol-metric (`smd`): every nonempty subset of (a, s, y) under p(a, s,
  y), a point labelled by its (amplitude, sign);
- bit-metric (`bmd`): {s}, {y}, {s, y} and, for each amplitude bit level j,
  {b_j} and {b_j, y} under p(b_1, ..., b_m, s, y), which
  `infomeasures.label_joint` makes of p(a, s, y) and the Gray amplitude
  bits, a point labelled by its Gray label, sign bit last. Its `triple_mask`
  applies the symbol-metric test, to count pairwise-only acceptances.

Seed discipline: the sign code draws from SeedSequence([seed, 0]). Trial t
draws exactly what numpy's default_rng(SeedSequence([seed, 1, t])) gives
through .integers(M_a), .integers(M_s) and .random(n), but `streams.draw`
computes them for DRAW_CHUNK trials at once. It relies on numpy's
SeedSequence mixing, PCG64 with the XSL-RR output, 32-bit Lemire bounded
integers and 53-bit doubles; tests/test_streams.py fails if a numpy release
changes any of them. `channel.sample_outputs` turns a trial's uniforms into
its outputs. A trial's acceptances depend only on its output, so
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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import streams
from .alphabets import AskConstellation, brgc_label
from .channel import Dmc, sample_outputs
from .errors import BudgetError, ConfigError
from .infomeasures import check_pmf, label_joint
from .typicality import (
    DEFAULT_BUDGET,
    BoxTest,
    BTypicalSet,
    TypConfig,
    enumerate_b_typical,
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
    signs. The sign code reads the members, and both decoders the table,
    the bit-level one as `label_joint(joint, amplitude_bits)`.
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


def draw_sign_code(layer: ShapingLayer, n1: int, mode: str = "iid", seed: int = 0) -> np.ndarray:
    """The random sign code over a shaping layer, as every candidate's channel
    inputs: the (n, C) intp point indices x = s * a.

    Column c is candidate c = m_a * M_s + m_s, with M_s = 2^n1: its
    amplitudes are layer member m_a, and its sign bits (0 <-> -1, 1 <-> +1)
    are the n1 bits of m_s, MSB first, then the n - n1 redundant signs drawn
    for the pair. iid mode draws each redundant sign fair-coin; linear mode
    applies a fixed random GF(2) map to (amplitude bits of m_a ++
    information bits of m_s).
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
        amp_part = (amp @ gen[:k].astype(np.intp) % 2).astype(np.int8)
        redundant = amp_part[:, None] ^ (info @ gen[k:] % 2).astype(np.int8)  # int8, as iid's
    signs = np.empty((layer.n, m_a_count * m_s_count), dtype=np.int8)
    signs[:n1].reshape(n1, m_a_count, m_s_count)[...] = info.T[:, None, :]
    signs[n1:] = redundant.reshape(-1, n2).T
    # in place, so the peak stays near the result: point half + a for sign
    # bit 1 and, as `sign_amplitude_index` has it, half - 1 - a for sign bit 0
    half = layer.constellation.num_amplitudes
    points = np.empty(signs.shape, dtype=np.intp)
    points.reshape(layer.n, m_a_count, m_s_count)[...] = layer.amplitude_seqs.T[:, :, None]
    points += half
    return np.subtract(2 * half - 1, points, out=points, where=signs == 0)


# every nonempty subset of the axes (a, s, y) of p(a, s, y)
_SMD_BOXES = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def decoder_test(layer: ShapingLayer, kind: str, points: np.ndarray) -> BoxTest:
    """The test of decoder kind ("smd" or "bmd") on the candidates' (n, C)
    points: its joint, box list and label table, as the module docstring
    lists them."""
    cst = layer.constellation
    if kind == "smd":  # each point's (amplitude, sign), the inverse of `sign_amplitude_index`
        signs, amplitudes = np.divmod(np.argsort(cst.sign_amplitude_index, axis=None), cst.num_amplitudes)
        return BoxTest(layer.joint, _SMD_BOXES, np.stack([amplitudes, signs], axis=1), points, layer.eps)
    bits = layer.amplitude_bits  # (2^m, m)
    m = bits.shape[1]
    s, y = m, m + 1
    boxes = [(s,), (y,), (s, y)] + [box for j in range(m) for box in ((j,), (j, y))]
    # p(b_1, ..., b_m, s, y) through each point's Gray label, sign bit last:
    # the reflection gives x and -x the same amplitude bits
    labels = np.roll(brgc_label(cst), -1, axis=1)
    return BoxTest(label_joint(layer.joint, bits), boxes, labels, points, layer.eps)


class SmdDecoder:
    """The smd `decoder_test` of the candidates, as the three methods that
    `perfbench/spans.py` wraps by name in this class's own body. Both
    classes go once those spans time `decoder_test` instead (ROADMAP item 1)."""

    def __init__(self, layer: ShapingLayer, points: np.ndarray):
        self.test = decoder_test(layer, "smd", points)

    def accept_mask(self, y: np.ndarray) -> np.ndarray:
        return self.test.accept(y)  # (B, C) acceptances for a (B, n) block of outputs

    def triple_mask(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self.test.pairs(y, rows)  # the test on candidate rows[p] for output y[p] only


class BmdDecoder:
    """The bmd `decoder_test` of the candidates, with the smd one as its
    `triple_mask` to count pairwise-only acceptances; kept, like
    `SmdDecoder`, for the methods that `perfbench/spans.py` wraps."""

    def __init__(self, layer: ShapingLayer, points: np.ndarray):
        self.test, self.triple = decoder_test(layer, "bmd", points), decoder_test(layer, "smd", points)

    def accept_mask(self, y: np.ndarray) -> np.ndarray:
        return self.test.accept(y)

    def triple_mask(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
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
    points = draw_sign_code(layer, n1, config.codebook_mode, config.seed)
    decoder = (SmdDecoder if config.decoder == "smd" else BmdDecoder)(layer, points)
    cdf_rows = np.cumsum(config.dmc.w, axis=1)
    log_pairwise = config.decoder == "bmd"

    size = max(1, BLOCK_CELLS // points.shape[1])
    chunk = max(1, DRAW_CHUNK // size) * size  # whole blocks
    score = partial(_score_block, decoder, log_pairwise)
    parts = []
    pooling = nullcontext()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # imports logging: only where used

        # a pool may start a thread for each block it maps: no wider than the CPUs
        pooling = ThreadPoolExecutor(max_workers=min(threads, _usable_cpus()))
    with pooling as pool:
        for start in range(0, config.trials, chunk):
            # each trial's sent message pair and channel uniforms, from its own stream
            trials = range(start, min(start + chunk, config.trials))
            ints, u = streams.draw(config.seed, trials, (layer.size, m_s_count), config.n)
            sent = ints[:, 0] * m_s_count + ints[:, 1]
            y = sample_outputs(cdf_rows, points.T[sent], u)
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
