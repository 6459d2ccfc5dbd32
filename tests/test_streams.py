"""`streams.draw` against numpy itself: trial t's draws must equal what
default_rng(SeedSequence([seed, 1, t])) gives through .integers(bound) for
each bound and then .random(n). A numpy release that changes SeedSequence,
PCG64, its bounded integers or its doubles fails here."""

import itertools
import math

import numpy as np
import pytest

from paslab import signcode, streams
from paslab.alphabets import make_ask
from paslab.channel import gaussian_dmc
from paslab.errors import ConfigError
from paslab.signcode import ExperimentConfig, run_experiment
from test_signcode import _per_trial_reference

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**63 + 2**40 + 7]
BOUNDS = [1, 2, 40, 999_983, 2**31 + 1]
NS = [1, 6, 17]
TRIALS = range(37, 101)  # does not start at 0


def _numpy_draws(seed, trials, bounds, n):
    """One numpy Generator per trial, as the experiment defines its streams."""
    ints = np.empty((len(trials), len(bounds)), dtype=np.int64)
    u = np.empty((len(trials), n))
    for j, t in enumerate(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, t]))
        ints[j] = [rng.integers(bound) for bound in bounds]
        u[j] = rng.random(n)
    return ints, u


def _assert_draws_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])  # bit for bit: no tolerance


@pytest.fixture
def fallback_trials(monkeypatch):
    """The number of trials redone by the per-trial Generator code."""
    count = [0]
    per_trial = streams.per_trial

    def counted(seed, trials, bounds, n):
        count[0] += len(trials)
        return per_trial(seed, trials, bounds, n)

    monkeypatch.setattr(streams, "per_trial", counted)
    return count


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_matches_numpy(seed, n):
    for bounds in [*itertools.product(BOUNDS, repeat=2), (40, 8, 3), (1, 2, 1, 40), ()]:
        _assert_draws_equal(streams.draw(seed, TRIALS, bounds, n), _numpy_draws(seed, TRIALS, bounds, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_across_a_chunk_boundary(seed):
    chunk = signcode.DRAW_CHUNK
    trials = range(chunk - 40, chunk + 24)
    _assert_draws_equal(streams.draw(seed, trials, (40, 8), 6), _numpy_draws(seed, trials, (40, 8), 6))


def test_rejected_draws_take_the_fallback(fallback_trials):
    # at 2^31 + 1, Lemire rejects about half the 32-bit draws
    bounds = (2**31 + 1, 3)
    _assert_draws_equal(streams.draw(7, TRIALS, bounds, 6), _numpy_draws(7, TRIALS, bounds, 6))
    assert 0 < fallback_trials[0] < len(TRIALS)


def test_small_bounds_never_take_the_fallback(fallback_trials):
    # rejection needs a low product word below (2^32 - M) mod M = 16 of 2^32
    streams.draw(0, range(5000), (40, 8), 6)
    assert fallback_trials[0] == 0


@pytest.mark.parametrize(
    "trials, bounds",
    [(range(5), (2**32, 3)), (range(5), (3, 2**40)), (range(2**32 - 2, 2**32 + 2), (40, 8))],
    ids=["bound-2^32", "bound-2^40", "trial-2^32"],
)
def test_out_of_range_draws_are_per_trial(fallback_trials, trials, bounds):
    _assert_draws_equal(streams.draw(3, trials, bounds, 4), _numpy_draws(3, trials, bounds, 4))
    assert fallback_trials[0] == len(trials)


def test_draw_honours_the_range_step():
    for trials in (range(0, 10, 2), range(40, 3, -7), range(5, 5)):
        _assert_draws_equal(streams.draw(0, trials, (3, 5), 2), _numpy_draws(0, trials, (3, 5), 2))


def test_negative_trial_raises_as_per_trial_does():
    for draws in (streams.draw, streams.per_trial):
        with pytest.raises(ValueError, match="non-negative"):
            draws(0, range(-2, 3), (3, 5), 2)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 + 2**40 + 7, 2**64 + 3, 2**96 + 5])
def test_pool_state_matches_seed_sequence(seed):
    # the seed's words and 1 are mixed once as ints; the trial word t lands in
    # the pool for seeds of one or two words and mixes in after it for three
    # or more, where every pool word is still an int until t enters
    t = np.array([0, 1, 37, 2**31, 2**32 - 1], dtype=np.uint32)
    got = streams._pool_state(streams._words(seed) + [1], t)
    want = np.array([np.random.SeedSequence([seed, 1, int(v)]).generate_state(8) for v in t]).T
    assert got.dtype == np.uint32
    np.testing.assert_array_equal(got, want)


MASK64 = 2**64 - 1
# 128-bit values whose words reach the carries of one LCG step: the low word's
# product and sum, the high word of lo * MULT_lo, and the 2^128 wrap
LOW_SUM_WRAPS = (MASK64 * pow(streams.PCG_MULT & MASK64, -1, 2**64)) & MASK64  # lo * MULT_lo = 2^64 - 1
WORDS = {
    "zero": 0,
    "one": 1,
    "lo-max": MASK64,
    "hi-max": MASK64 << 64,
    "all-ones": 2**128 - 1,
    "lo-top-bit": 2**63,
    "low-sum-wraps": (3 << 64) | LOW_SUM_WRAPS,
    "random": 0x9E3779B97F4A7C15F39CC0605CEDC834,
}


def _as_words(values):
    """(hi, lo) uint64 arrays of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


def _as_ints(hi, lo):
    return [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]


@pytest.mark.parametrize("state", WORDS.values(), ids=WORDS.keys())
def test_lcg_step_matches_python_ints(state):
    # any 128-bit inc, odd or not; "one" on state "low-sum-wraps" carries at exactly 2^64
    incs = list(WORDS.values())
    got = streams._mul_add(*_as_words([state] * len(incs)), *_as_words(incs))
    assert _as_ints(*got) == [(state * streams.PCG_MULT + inc) % 2**128 for inc in incs]


@pytest.mark.parametrize("seq", WORDS.values(), ids=WORDS.keys())
def test_seeding_matches_python_ints(seq):
    # numpy's pcg64_set_seed: inc = 2 * seq + 1, state = (inc + init) * MULT + inc
    inits = list(WORDS.values())
    state_hi, state_lo, inc_hi, inc_lo = streams._seed(*_as_words(inits), *_as_words([seq] * len(inits)))
    inc = (2 * seq + 1) % 2**128
    assert _as_ints(inc_hi, inc_lo) == [inc] * len(inits)
    assert _as_ints(state_hi, state_lo) == [((inc + init) * streams.PCG_MULT + inc) % 2**128 for init in inits]


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        streams.draw(-1, range(3), (4, 2), 2)


CST = make_ask(1)
EXPERIMENT = dict(
    constellation=CST, dmc=gaussian_dmc(np.asarray(CST.points, float), sigma=0.45, num_bins=2),
    amplitude_pmf=(0.7, 0.3), eps=0.1, n=6, gamma=0.5, decoder="smd", trials=300, seed=11,
)


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        ExperimentConfig(**{**EXPERIMENT, "seed": -1})


@pytest.mark.parametrize("chunk", [signcode.DRAW_CHUNK, 64], ids=["default-chunk", "chunk-64"])
def test_one_trial_blocks_draw_once_per_chunk(monkeypatch, chunk):
    cfg = ExperimentConfig(**EXPERIMENT)
    want = run_experiment(cfg)
    outputs = _per_trial_reference(cfg)[3]
    passes, scored = [], []
    draw, accept_mask = streams.draw, signcode.SmdDecoder.accept_mask

    def counted_draw(seed, trials, bounds, n):
        passes.append(trials)
        return draw(seed, trials, bounds, n)

    def counted_mask(self, y):
        scored.append(y)
        return accept_mask(self, y)

    monkeypatch.setattr(streams, "draw", counted_draw)
    monkeypatch.setattr(signcode.SmdDecoder, "accept_mask", counted_mask)
    monkeypatch.setattr(signcode, "DRAW_CHUNK", chunk)
    monkeypatch.setattr(signcode, "BLOCK_CELLS", 1)  # below C: one distinct output a block
    assert run_experiment(cfg) == want
    assert len(passes) == math.ceil(cfg.trials / chunk)
    assert [t for trials in passes for t in trials] == list(range(cfg.trials))
    # each chunk's distinct outputs, each scored once, in lexicographic order
    distinct = [np.unique(outputs[i : i + chunk], axis=0) for i in range(0, cfg.trials, chunk)]
    assert all(len(y) == 1 for y in scored)
    np.testing.assert_array_equal(np.concatenate(scored), np.concatenate(distinct))
    assert len(scored) < cfg.trials


def test_chunks_hold_whole_blocks(monkeypatch):
    cfg = ExperimentConfig(**EXPERIMENT)
    want = run_experiment(cfg)
    passes = []
    draw = streams.draw

    def counted_draw(seed, trials, bounds, n):
        passes.append(len(trials))
        return draw(seed, trials, bounds, n)

    monkeypatch.setattr(streams, "draw", counted_draw)
    monkeypatch.setattr(signcode, "DRAW_CHUNK", 64)
    monkeypatch.setattr(signcode, "BLOCK_CELLS", 7 * want.m_a_count * 2**cfg.n1)  # 7 trials a block
    for threads in (1, 3):
        passes.clear()
        assert run_experiment(cfg, threads=threads) == want
        assert passes == [63, 63, 63, 63, 48]  # 64 rounded down to 9 blocks of 7
