"""The per-trial random streams of the sign-coding experiment, many trials at once.

Trial t of a run seeded with `seed` draws from

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, t]))
    [rng.integers(bound) for bound in bounds], rng.random(n)

`draw` returns exactly these values for a range of trials without building a
Generator per trial. It redoes numpy's algorithms as array arithmetic over
trials:

- SeedSequence: the entropy words [words(seed)..., 1, t] are hash-mixed into
  a 4-word pool and expanded by `generate_state(4, np.uint64)`;
- PCG64 (O'Neill, HMC-CS-2014-0905): 128-bit LCG seeded as
  inc = 2 * seq + 1, state = (inc + init) * MULT + inc, each output one LCG
  step followed by the XSL-RR output function. A trial's state and inc are
  two uint64 words (hi, lo); a step's low products lo * MULT_lo and
  hi * MULT_lo + lo * MULT_hi wrap natively in 64 bits, and only the high
  word of lo * MULT_lo is summed from 32-bit halves;
- `integers(M)` for 1 < M < 2^32: Lemire's 32-bit bounded integers
  (ACM TOMACS 2019) on one 32-bit half of an output, the low half first and
  the buffered high half next; M = 1 draws nothing;
- `random`: (x >> 11) * 2^-53 on whole 64-bit outputs.

Lemire rejects a draw when its low product word is below (2^32 - M) mod M,
with probability under M / 2^32; those trials, and any case outside the
ranges above or with a trial number outside [0, 2^32), are redone by
`per_trial`, the plain per-trial Generator code (which raises ValueError on a
negative one).
tests/test_streams.py compares both against numpy itself.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
# numpy SeedSequence constants (pool of 4 uint32 words)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's default 128-bit LCG multiplier, and its 64-bit and low 32-bit words
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
MULT_HI, MULT_LO = np.uint64(PCG_MULT >> 64), np.uint64(PCG_MULT & 0xFFFFFFFFFFFFFFFF)
MULT_LO_HI, MULT_LO_LO = MULT_LO >> 32, MULT_LO & MASK32


def per_trial(seed: int, trials, bounds: tuple, n: int):
    """(len(trials), len(bounds)) integer draws and (len(trials), n)
    uniforms of the trials numbered in `trials`, one Generator per trial."""
    ints = np.empty((len(trials), len(bounds)), dtype=np.int64)
    u = np.empty((len(trials), n))
    for j, t in enumerate(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, t]))
        ints[j] = [rng.integers(bound) for bound in bounds]
        u[j] = rng.random(n)
    return ints, u


def _words(value: int) -> list:
    """value as 32-bit words, least significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words


def _pool_state(head: list, t: np.ndarray) -> np.ndarray:
    """SeedSequence(head + [t]).generate_state(8) as (8, T) uint32, from the
    trial-independent 32-bit entropy words head and the (T,) uint32 trial
    words t, one column per trial. Words that do not depend on t (head, the
    zero padding and every mix of those alone) are Python ints, mixed once;
    array arithmetic starts where t enters."""
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * MULT_A) & MASK32
        value = _wrap(value * hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _wrap(_wrap(MIX_MULT_L * x) - _wrap(MIX_MULT_R * y))
        return result ^ (result >> 16)

    entropy = [*head, t]
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, len(entropy)):
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = INIT_B
    state = []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = (hash_const * MULT_B) & MASK32
        value = _wrap(value * hash_const)
        state.append(value ^ (value >> 16))
    return np.array(state)


def _wrap(value):
    """value mod 2^32: a Python int is reduced, a uint32 array has wrapped already."""
    return value & MASK32 if isinstance(value, int) else value


def _mul_add(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * PCG_MULT + (inc_hi, inc_lo) mod 2^128 on uint64 word arrays."""
    lo_lo, lo_hi = lo & MASK32, lo >> 32
    # the high word of lo * MULT_LO from 32-bit halves; neither sum exceeds 2^64 - 1
    mid = lo_hi * MULT_LO_LO + (lo_lo * MULT_LO_LO >> 32)
    low_mid = lo_lo * MULT_LO_HI + (mid & MASK32)
    new_lo = lo * MULT_LO + inc_lo  # carries into new_hi iff it wrapped below inc_lo
    new_hi = hi * MULT_LO + lo * MULT_HI + lo_hi * MULT_LO_HI + (mid >> 32) + (low_mid >> 32)
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


def _seed(init_hi, init_lo, seq_hi, seq_lo):
    """numpy's pcg64_set_seed on uint64 words: inc = 2 * seq + 1 and
    state = (inc + init) * PCG_MULT + inc, as (state_hi, state_lo, inc_hi, inc_lo)."""
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    lo = inc_lo + init_lo
    return *_mul_add(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo


def _xsl_rr(hi, lo, out):
    """PCG64's 64-bit output of the states (hi, lo), written into out."""
    np.bitwise_xor(hi, lo, out=out)
    rot = hi >> 58
    np.bitwise_or(out >> rot, out << ((64 - rot) & 63), out=out)


def draw(seed: int, trials: range, bounds: tuple, n: int):
    """`per_trial(seed, trials, bounds, n)`, computed for all trials at once."""
    seed, bounds = int(seed), tuple(int(bound) for bound in bounds)
    ends = (trials[0], trials[-1]) if trials else ()  # trials is a range of any step
    if not all(0 <= t <= MASK32 for t in ends) or not all(1 <= b <= MASK32 for b in bounds):
        return per_trial(seed, trials, bounds, n)
    t = np.arange(trials.start, trials.stop, trials.step).astype(np.uint32)
    words = _pool_state(_words(seed) + [1], t).astype(np.uint64)
    # generate_state(4, uint64) = [init_hi, init_lo, seq_hi, seq_lo], low 32 bits first
    hi, lo, inc_hi, inc_lo = _seed(*(words[0::2] | (words[1::2] << 32)))

    drawn = [k for k, bound in enumerate(bounds) if bound > 1]
    skip = (len(drawn) + 1) // 2  # outputs whose 32-bit halves the bounded draws take
    outputs = np.empty((skip + n, len(t)), dtype=np.uint64)
    for row in outputs:
        hi, lo = _mul_add(hi, lo, inc_hi, inc_lo)
        _xsl_rr(hi, lo, row)
    ints = np.zeros((len(t), len(bounds)), dtype=np.int64)
    rejected = np.zeros(len(t), dtype=bool)
    halves = [half for out in outputs[:skip] for half in (out & MASK32, out >> 32)]
    for k, half in zip(drawn, halves):
        product = half * np.uint64(bounds[k])
        rejected |= (product & MASK32) < (2**32 - bounds[k]) % bounds[k]
        ints[:, k] = product >> 32
    u = (outputs[skip:].T >> 11) * (1.0 / 9007199254740992.0)
    if rejected.any():
        redo = np.flatnonzero(rejected)
        ints[redo], u[redo] = per_trial(seed, [trials[j] for j in redo], bounds, n)
    return ints, u
