"""Weak typicality at desk scale: typical sets, joint tests, and the
conditioned subset whose members stay jointly typical with high probability.

A single sequence is any sequence of alphabet indices. An enumerated set
holds its members as one C-contiguous (N, n) array of letter indices, uint8
for alphabets of at most 256 letters, one member per row in lexicographic
order; an empty set has shape (0, n). Every membership test, here and in
the sign-coding decoders, is `in_box`: the empirical log-probability rate
against entropy with a 1e-12 slack so boundary compositions do not flap with
float noise. Cardinality/probability bounds that only hold for large n are
reported with an applicability flag instead of being asserted.

Both sides of typicality follow Csiszar and Korner's method of types, and
neither scans a sequence grid. Typicality and p(u) are shared by every
sequence of a composition class, so a set is listed, and its masses and
probability checks summed and checked, one class at a time. The probability
that the channel output stays jointly typical with an input u depends on u
only through its composition, and on an output v only through the
conditional type of v given u (how many positions holding each input letter
carry each output letter): its exact value is a sum over conditional types,
each weighted by the number of output sequences it holds. It is exact while
those types fit the budget and a Monte Carlo estimate above it; either way a
function of u's type class alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BudgetError
from .infomeasures import check_pmf, entropy, log2_safe

LOG_SLACK = 1e-12
DEFAULT_BUDGET = 10_000_000
MC_SAMPLES = 100_000
CHUNK = 1 << 16


@dataclass(frozen=True)
class TypConfig:
    """Block length, tolerance and the work budget: the most composition
    classes an enumeration may visit and the most members it may list, and
    the most conditional types an exact conditional probability may visit."""

    n: int
    eps: float
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"block length must be >= 1, got {self.n}")
        if not 0 < self.eps < math.inf:  # NaN fails too
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")


def _log2_prob(seq, pmf) -> float:
    """log2 p(seq) under an iid pmf; -inf when a symbol has probability 0."""
    idx = np.asarray(seq, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("sequence must be non-empty")
    return float(log2_safe(np.asarray(pmf, dtype=float))[idx].sum())


def empirical_rate(seq, pmf) -> float:
    """-(1/n) log2 p(seq) under an iid pmf; inf when a symbol has probability 0."""
    return -_log2_prob(seq, pmf) / np.size(seq)


def in_box(log2_sum, n: int, h: float, eps: float):
    """The weak-typicality box |-log2_sum / n - h| <= eps (+ boundary slack) on
    the log2 p of sequences of n letters, elementwise; -inf and NaN are out."""
    with np.errstate(invalid="ignore"):
        return np.abs(-log2_sum / n - h) <= eps + LOG_SLACK


def is_typical(seq, pmf, config: TypConfig) -> bool:
    """Weak typicality of one sequence against the entropy of pmf."""
    return bool(in_box(_log2_prob(seq, pmf), np.size(seq), entropy(pmf), config.eps))


class SetBounds(NamedTuple):
    """Certified checks for one enumerated typical set."""

    upper_ok: bool  # |A| <= 2^{n(H+eps)}
    lower_ok: bool  # |A| >= (1-eps) 2^{n(H-eps)}
    lower_applicable: bool  # total typical mass >= 1-eps ("n large enough" proxy)
    member_prob_ok: bool  # every member within [2^{-n(H+eps)}, 2^{-n(H-eps)}]
    typical_prob: float


def _bounds_ok(count: int, probs: np.ndarray, n: int, h: float, eps: float) -> tuple:
    """The upper_ok, lower_ok and member_prob_ok checks of SetBounds on a set of
    count sequences with distinct probabilities probs."""
    lo = 2.0 ** (-n * (h + eps)) * (1 - LOG_SLACK)
    hi = 2.0 ** (-n * (h - eps)) * (1 + LOG_SLACK)
    return (
        count <= 2.0 ** (n * (h + eps)) * (1 + LOG_SLACK),
        count >= (1 - eps) * 2.0 ** (n * (h - eps)) * (1 - LOG_SLACK),
        bool(np.all(probs >= lo) and np.all(probs <= hi)),
    )


@dataclass(frozen=True)
class TypicalSet:
    """The typical set of an iid pmf: members is a read-only (N, n) index
    array, one member per row in lexicographic order; class_firsts the
    read-only (C, n) first member of each composition class (its letters
    sorted), classes in the order their first members come, with their sizes
    class_sizes and the p(u) class_prob of their members; member_class the
    class of every member."""

    pmf: np.ndarray
    config: TypConfig
    h: float
    members: np.ndarray = field(repr=False)
    bounds: SetBounds
    class_firsts: np.ndarray = field(repr=False)
    member_class: np.ndarray = field(repr=False)
    class_sizes: np.ndarray = field(repr=False)
    class_prob: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.members)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only, so a frozen set cannot be edited through it."""
    a.flags.writeable = False
    return a


def _block_types(support: list, m: int, scores: np.ndarray):
    """Yield (letters, count, score) arrays over the compositions of m letters
    from support, at most CHUNK at a time.

    Each composition is drawn once, as its sorted multiset of m letters, a
    row of letters; rows come in lexicographic order. count is the number of
    sequences that share it, m! / prod_v k_v! for its letter counts k_v;
    score is the sum of scores[v] over its letters.
    """
    draws = itertools.combinations_with_replacement(support, m)
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(draws, CHUNK)), dtype=np.intp)
        if flat.size == 0:
            return
        letters = flat.reshape(-1, m)
        # after j + 1 letters, count is that prefix's multinomial, an
        # integer; count * (j + 1) is at most m times the final count, so
        # float64 holds every step exactly
        count = np.ones(len(letters))
        run = np.ones(len(letters))
        for j in range(1, m):
            run = np.where(letters[:, j] == letters[:, j - 1], run + 1, 1.0)
            count = count * (j + 1) / run
        yield letters, count, scores[letters].sum(axis=1)


def _class_members(firsts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sequences of the classes with first members (letters sorted) firsts
    and sizes sizes, class after class and each in lexicographic order, as the
    columns of an (n, N) array. A prefix expansion over each class's distinct
    letters, O(N n) however wide the alphabet: each row of remaining holds the
    counts of its class's letters that a prefix has left to place, and size
    its number of completions, which fill a run of columns."""
    classes, n = firsts.shape
    starts = np.ones(firsts.shape, dtype=bool)  # the first place of each distinct letter
    starts[:, 1:] = firsts[:, 1:] != firsts[:, :-1]
    at = np.cumsum(starts, axis=1) - 1  # the place of each letter in its class's row
    w = int(at.max(initial=0)) + 1
    letters = np.zeros((classes, w), dtype=firsts.dtype)
    letters[np.nonzero(starts)[0], at[starts]] = firsts[starts]
    remaining = np.bincount((at + w * np.arange(classes)[:, None]).ravel(), minlength=classes * w)
    remaining = remaining.reshape(classes, w).astype(np.min_scalar_type(n))
    cls, size = np.arange(classes), sizes
    out = np.empty((n, int(sizes.sum())), dtype=firsts.dtype)
    for j in range(n - 1):
        flat = np.flatnonzero(remaining)
        prefix, at = np.divmod(flat, w)
        # the letter comes next in (its count) of every (n - j) orderings of what remains
        size = size[prefix] * remaining.ravel()[flat] // (n - j)
        remaining = remaining[prefix]
        remaining.ravel()[np.arange(prefix.size) * w + at] -= 1
        cls = cls[prefix]
        out[j] = np.repeat(letters[cls, at], size)
    out[n - 1] = letters[cls, np.flatnonzero(remaining) % w]  # one letter is left to each prefix
    return out


def enumerate_typical(pmf, config: TypConfig) -> TypicalSet:
    """List the typical set in lexicographic order, with bounds. Typicality
    and p(u) are decided once per composition class of the s letters with
    p > 0, and only the typical classes' members are listed. The budget bounds
    the C(n + s - 1, s - 1) classes, checked before any is drawn, and the
    members (BudgetError carries their count, exact below 2^53)."""
    p = check_pmf(pmf)
    if p.ndim != 1:
        raise ValueError(f"pmf must be a vector, got shape {p.shape}")
    h = entropy(p)
    n, eps, budget = config.n, config.eps, config.budget
    support = np.flatnonzero(p > 0)
    classes = math.comb(n + support.size - 1, support.size - 1)
    if classes > budget:
        raise BudgetError(f"enumeration visits {classes} composition classes, budget is {budget}", needed=classes)
    dtype = np.min_scalar_type(p.size - 1)  # uint8 up to 256 letters
    log2p = log2_safe(p)
    firsts, sizes, scores = [], [], []  # the typical classes' sorted letters, sizes and log2 p(u)
    for letters, count, score in _block_types(support.tolist(), n, log2p):
        keep = in_box(score, n, h, eps)
        firsts.append(letters[keep].astype(dtype))
        sizes.append(count[keep])
        scores.append(score[keep])
    firsts, sizes = np.concatenate(firsts), np.concatenate(sizes)
    listed = int(sizes.sum())
    if listed > budget:
        raise BudgetError(f"enumeration lists {listed} typical sequences, budget is {budget}", needed=listed)
    sizes = sizes.astype(np.int64)
    # Python's float power (libm pow), which numpy's vectorised power does not
    # match bit for bit on every host
    class_prob = np.array([2.0 ** x for x in np.concatenate(scores).tolist()])
    columns = _class_members(firsts, sizes)
    order = np.lexsort(columns[::-1])
    typical_prob = math.fsum((sizes * class_prob).tolist())
    upper_ok, lower_ok, prob_ok = _bounds_ok(listed, class_prob, n, h, eps)
    bounds = SetBounds(upper_ok, lower_ok, typical_prob >= 1 - eps, prob_ok, typical_prob)
    member_class = np.repeat(np.arange(len(firsts)), sizes)[order]
    per_class = [_frozen(a) for a in (firsts, member_class, sizes, class_prob)]
    return TypicalSet(p, config, h, _frozen(columns.T[order]), bounds, *per_class)


def _subset_stats(seqs: dict, joint: np.ndarray) -> list:
    """(log2 probability, entropy) for every nonempty margin of a joint pmf.

    seqs maps axis -> index sequence; margins marginalize the other axes.
    """
    ndim = joint.ndim
    out = []
    for mask in range(1, 2**ndim):
        axes = [d for d in range(ndim) if mask & (1 << d)]
        drop = tuple(d for d in range(ndim) if d not in axes)
        marg = joint.sum(axis=drop) if drop else joint
        idx = np.ravel_multi_index(tuple(np.asarray(seqs[d], dtype=np.intp) for d in axes), marg.shape)
        out.append((_log2_prob(idx, marg.ravel()), entropy(marg)))
    return out


def is_jointly_typical(seqs, joint_pmf, config: TypConfig) -> bool:
    """Joint typicality of k aligned sequences: every nonempty subset of
    coordinates must satisfy its own rate/entropy box."""
    joint = check_pmf(joint_pmf)
    seq_list = [np.asarray(s, dtype=np.intp) for s in seqs]
    if len(seq_list) != joint.ndim:
        raise ValueError(f"need {joint.ndim} sequences for this joint pmf")
    lens = {s.size for s in seq_list}
    if len(lens) != 1 or lens.pop() != config.n:
        raise ValueError("all sequences must have length config.n")
    stats = _subset_stats(dict(enumerate(seq_list)), joint)
    return all(in_box(log2_sum, config.n, h, config.eps) for log2_sum, h in stats)


class CondProbResult(NamedTuple):
    prob: float
    exact: bool  # False for a Monte Carlo estimate


def _check_transition(transition, size: int) -> np.ndarray:
    """Validate and return a size x |V| row-stochastic transition matrix."""
    t = np.asarray(transition, dtype=float)
    # NaN fails the sign test and an infinity the row sums
    shape_ok = t.ndim == 2 and t.shape[0] == size
    if not (shape_ok and np.all(t >= 0) and np.all(np.abs(t.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError(f"transition must be {size} rows of finite non-negative entries, each summing to 1")
    return t


def _type_count(u: np.ndarray, t: np.ndarray) -> int:
    """The number of conditional types of V given u that _conditional_types
    visits: prod over input letters a of C(n_a + s_a - 1, s_a - 1), with n_a
    the positions of u holding a and s_a the outputs with t(v|a) > 0."""
    support = (t > 0).sum(axis=1).tolist()
    counts = np.bincount(u, minlength=len(t)).tolist()
    return math.prod(math.comb(m + s - 1, s - 1) for m, s in zip(counts, support))


def _outer_types(blocks, count, score):
    """Yield every combination of one composition per block, as (count,
    score) with count the product and score the sum over the blocks after
    the given prefix, at most CHUNK combinations at a time. blocks holds the
    _block_types arguments of each block, whose compositions are drawn afresh
    for every slice of the prefix."""
    if not blocks:
        yield count, score
        return
    for _, b_count, b_score in _block_types(*blocks[0]):
        step = max(1, CHUNK // len(b_count))
        for i in range(0, len(count), step):
            yield from _outer_types(
                blocks[1:],
                (count[i:i + step, None] * b_count).ravel(),
                (score[i:i + step, None] + b_score).reshape(-1, 3),
            )


def _conditional_types(u, t, joint, lut_v):
    """Iterate (count, score) arrays over the conditional types of V given u,
    at most CHUNK types at a time.

    A conditional type fixes, for every letter a of u, how many of the
    positions holding a carry each output letter. Its count is the number of
    output sequences with that type; the columns of its score are the log2
    of prod t(v_i|u_i), of prod p_V(v_i) and of prod p(u_i, v_i), which every
    sequence of the type shares. Outputs with t(v|a) = 0 are left out of a's
    block: their sequences have weight 0.
    """
    scores = np.stack(np.broadcast_arrays(log2_safe(t), lut_v, log2_safe(joint)), axis=-1)  # (|U|, |V|, 3)
    blocks = [
        (np.flatnonzero(t[a] > 0).tolist(), m, scores[a])
        for a, m in enumerate(np.bincount(u, minlength=len(t)).tolist())
        if m
    ]
    return _outer_types(blocks, np.ones(1), np.zeros((1, 3)))


def conditional_typical_prob(
    u_seq, input_pmf, transition, config: TypConfig
) -> CondProbResult:
    """Pr{(u, V) jointly typical | U = u} with V drawn per-symbol from the
    transition rows.

    While the conditional types of V given u fit the budget (their count is
    _type_count) the result is exact: a sum over the types that pass the V
    and (U, V) rate boxes, each weighted by its multinomial count times the
    probability t(v|u) its sequences share. Above the budget it is a Monte
    Carlo estimate of MC_SAMPLES draws, seeded by the composition of u and
    drawn over u sorted. Either way the result is a function of u's type
    class: every permutation of u gives the same value, bit for bit.
    """
    p_u = check_pmf(input_pmf)
    t = _check_transition(transition, p_u.size)
    u = np.asarray(u_seq, dtype=np.intp)
    if u.size != config.n:
        raise ValueError("u_seq must have length config.n")
    n, kv = config.n, t.shape[1]
    joint = p_u[:, None] * t
    p_v = joint.sum(axis=0)
    h_u, h_v, h_uv = entropy(p_u), entropy(p_v), entropy(joint)
    eps = config.eps

    if not in_box(_log2_prob(u, p_u), n, h_u, eps):
        return CondProbResult(prob=0.0, exact=True)

    lut_v = log2_safe(p_v)  # per V symbol

    if _type_count(u, t) <= config.budget:
        total = 0.0
        for count, score in _conditional_types(u, t, joint, lut_v):
            lt, lv, luv = score.T
            ok = in_box(lv, n, h_v, eps) & in_box(luv, n, h_uv, eps)
            if ok.any():
                total += float((count[ok] * np.exp2(lt[ok])).sum())
        return CondProbResult(prob=min(total, 1.0), exact=True)

    rng = np.random.default_rng(np.random.SeedSequence(np.bincount(u, minlength=p_u.size).tolist()))
    u = np.sort(u)
    lut_uv = log2_safe(joint)[u]  # (n, kv): row i scores position i
    cdf = np.cumsum(t[u], axis=1)  # (n, kv)
    hits = 0
    rows = np.arange(n)
    for start in range(0, MC_SAMPLES, CHUNK):
        draws = rng.random((min(CHUNK, MC_SAMPLES - start), n))
        v = np.empty(draws.shape, dtype=np.intp)
        for i in range(n):
            v[:, i] = np.searchsorted(cdf[i], draws[:, i], side="right")
        np.minimum(v, kv - 1, out=v)  # guard against cdf tails just under 1.0
        ok = in_box(lut_v[v].sum(axis=1), n, h_v, eps) & in_box(lut_uv[rows, v].sum(axis=1), n, h_uv, eps)
        hits += int(ok.sum())
    return CondProbResult(prob=hits / MC_SAMPLES, exact=False)


@dataclass(frozen=True)
class BTypicalSet:
    """Typical input sequences that stay jointly typical with probability
    at least 1 - eps under the transition.

    Pr{(u, V) jointly typical | u} depends on u only through its composition:
    permuting u permutes the positions of V and leaves every empirical rate
    unchanged. So there is one result per composition class of base_set, the
    typical set of U (which holds the config and H(U)): class_probs is the
    tuple of CondProbResult computed on each class's first member, in
    base_set's class order, and class_kept says which classes are kept.
    members is a read-only (N, n) index array of the kept sequences, in
    lexicographic order, and member_class the class in base_set of each, so
    member i's probability is class_probs[member_class[i]].
    """

    members: np.ndarray = field(repr=False)
    base_set: TypicalSet = field(repr=False)
    class_probs: tuple = field(repr=False)
    class_kept: np.ndarray = field(repr=False)
    member_class: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def exact(self) -> bool:
        return all(res.exact for res in self.class_probs)


def enumerate_b_typical(input_pmf, transition, config: TypConfig) -> BTypicalSet:
    """Filter the typical set of U by the conditional joint-typicality test.

    The transition is checked first, so a bad one fails even when the typical
    set is empty. The test probability is computed once per composition
    class, on the class's first member in lexicographic order, and whether to
    keep the class is decided once on it, for every member of the class.
    """
    p_u = check_pmf(input_pmf)
    transition = _check_transition(transition, p_u.size)
    base = enumerate_typical(p_u, config)
    class_probs = tuple(conditional_typical_prob(u, p_u, transition, config) for u in base.class_firsts)
    class_kept = np.array([res.prob for res in class_probs]) >= 1.0 - config.eps - LOG_SLACK
    keep = class_kept[base.member_class]
    return BTypicalSet(
        members=_frozen(base.members[keep]),
        base_set=base,
        class_probs=class_probs,
        class_kept=_frozen(class_kept),
        member_class=_frozen(base.member_class[keep]),
    )


def lemma1_report(b_set: BTypicalSet) -> dict:
    """Measured member-probability bounds, complement mass and cardinality
    bounds for a conditioned typical set.

    The complement-mass <= eps claim and the cardinality lower bound only hold
    for n large enough; `large_n_proxy` (joint typical mass >= 1 - eps^2, the
    quantity the proofs actually need) gates those two checks.

    Every figure is a sum or a check over the composition classes of
    b_set.base_set, never over members: a class's members share its size,
    its p(u) and its conditional probability from b_set.class_probs, so
    rejected members are not tested again.
    """
    base, kept = b_set.base_set, b_set.class_kept
    n, eps, h = base.config.n, base.config.eps, base.h
    mass = base.class_sizes * base.class_prob  # each class's share of the typical mass
    count = int(base.class_sizes[kept].sum())
    upper_ok, lower_ok, p1_ok = _bounds_ok(count, base.class_prob[kept], n, h, eps)
    b_mass = math.fsum(mass[kept].tolist())
    p2_mass = 1.0 - b_mass
    class_cp = np.array([res.prob for res in b_set.class_probs])
    joint_mass = math.fsum((mass * class_cp).tolist())
    return {
        "p1_ok": p1_ok,
        "p2_mass": p2_mass,
        "p2_ok": bool(p2_mass <= eps + LOG_SLACK),
        "p3_upper_ok": upper_ok,
        "p3_lower_ok": lower_ok,
        "large_n_proxy": joint_mass >= 1.0 - eps**2,
        "joint_typical_mass": joint_mass,
        "b_mass": b_mass,
        "b_count": count,
    }
