"""Weak typicality at desk scale: typical sets, joint tests, and the
conditioned subset whose members stay jointly typical with high probability.

A single sequence is any array of letter indices, integers in [0, k), read
flat and scored as its composition class: its letters sorted into the
class's first member and summed as the class scan sums them, so every
permutation gets its class's verdict bit for bit. An enumerated set holds
its members as one C-contiguous (N, n) array of letter indices, uint8 for
alphabets of at most 256 letters, one member per row in lexicographic order;
an empty set has shape (0, n). Every membership test, here and in the
sign-coding decoders, is `in_box`: the empirical log-probability rate
against entropy with a 1e-12 slack so boundary compositions do not flap with
float noise. Every joint test is a `BoxTest`, a list of such boxes on the
margins of one joint pmf: `is_jointly_typical`, `conditional_typical_prob`
and both sign-coding decoders. Cardinality and probability bounds that only
hold for large n are reported with an applicability flag instead of being
asserted.

Both sides of typicality follow Csiszar and Korner's method of types, and
neither scans a sequence grid. Typicality and p(u) are shared by every
sequence of a composition class, so both are decided, and a set's masses and
checks summed, one class at a time; its members are listed in order, with no
sort, by one prefix expansion over prefix compositions.

A BoxTest sees an output only through its conditional type given the input
(how many positions holding each input letter carry each output letter), so
a candidate's pass probability is a sum over conditional types of
|T(v|u)| prod_i t(v_i|u_i). A type is decided on log sums, as every box is,
and weighed by products of table entries, its count times its t(v|u): no
exp2 rounds the weight, so the sum is the same bits whatever SIMD kernels
numpy dispatches to. One engine, `_type_probs`, takes that sum for every
candidate of a test in one pass: each block (the compositions of m outputs
that an input letter reaches, for a count m that a candidate gives it) of
at most CHUNK compositions is drawn once and shared by all candidates, a
larger one afresh on each pass over it; a candidate's blocks are combined
CHUNK types at a time, and the score columns of the types are stored as the
rows of one (J, R) array, so small pieces of many candidates are scored
together. Each piece's mass is summed alone, so a candidate's value does
not depend on the others it is scored with. A candidate whose types exceed
the budget gets a Monte Carlo estimate instead, drawn by
`channel.sample_outputs`. `enumerate_b_typical` runs the engine once over
the first members of all typical classes; `conditional_typical_prob` is its
one-candidate call. Either way the result is a function of u's type class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ROW_TOL, sample_outputs
from .errors import BudgetError
from .infomeasures import check_pmf, entropy, entropy_raw, log2_safe

LOG_SLACK = 1e-12
DEFAULT_BUDGET = 10_000_000
MC_SAMPLES = 100_000
CHUNK = 1 << 16
_MC_BLOCK = 1 << 14  # Monte Carlo outputs drawn and scored at once
_LIST_BLOCK = 16  # member columns listed before one transposing write


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


def _letters(seq, k: int, name: str = "the sequence", n: int | None = None) -> np.ndarray:
    """seq flattened into intp indices; ValueError unless it is one or more
    integers in [0, k), and n of them when n is given."""
    a = np.asarray(seq)
    whole = a.dtype.kind in "biu" or (a.dtype.kind == "f" and np.all(a == np.trunc(a)))  # NaN is not
    if not (whole and a.size and np.all((a >= 0) & (a < k))):
        raise ValueError(f"letters of {name} must be one or more integers in [0, {k})")
    if n is not None and a.size != n:
        raise ValueError(f"{name} must have length config.n")
    return a.astype(np.intp).reshape(-1)


def _class_score(seq, p: np.ndarray, n: int | None = None, name: str = "the sequence") -> tuple:
    """(first, log2 p(first)): the letters of seq (_letters) sorted into the
    first member of their composition class, scored as `enumerate_typical`
    scores the class, so every permutation of seq gets its class's bits;
    -inf when a letter has probability 0."""
    first = np.sort(_letters(seq, p.size, name, n))
    return first, float(log2_safe(p)[first[None, :]].sum(axis=1)[0])


def empirical_rate(seq, pmf) -> float:
    """-(1/n) log2 p(seq) under an iid pmf; inf when a symbol has probability 0."""
    first, score = _class_score(seq, check_pmf(pmf))
    return -score / first.size


def in_box(log2_sum, n: int, h: float, eps: float):
    """The weak-typicality box |-log2_sum / n - h| <= eps (+ boundary slack) on
    the log2 p of sequences of n letters, elementwise; -inf and NaN are out."""
    with np.errstate(invalid="ignore"):
        return np.abs(-log2_sum / n - h) <= eps + LOG_SLACK


def is_typical(seq, pmf, config: TypConfig) -> bool:
    """Weak typicality of one sequence of config.n letters against the entropy of pmf."""
    p = check_pmf(pmf)
    return bool(in_box(_class_score(seq, p, config.n)[1], config.n, entropy(p), config.eps))


class SetBounds(NamedTuple):
    """Certified checks for one enumerated typical set."""

    upper_ok: bool  # |A| <= 2^{n(H+eps)}
    lower_ok: bool  # |A| >= (1-eps) 2^{n(H-eps)}
    lower_applicable: bool  # total typical mass >= 1-eps ("n large enough" proxy)
    member_prob_ok: bool  # every member within [2^{-n(H+eps)}, 2^{-n(H-eps)}]
    typical_prob: float


def _bounds_ok(count: int, probs: np.ndarray, n: int, h: float, eps: float) -> tuple:
    """The upper_ok, lower_ok and member_prob_ok checks of SetBounds on a set of
    count sequences with distinct probabilities probs. A bound 2^x past the
    largest float is inf, where Python's power raises OverflowError."""

    def exp2(x: float) -> float:
        return 2.0 ** x if x < 1024 else math.inf

    lo = exp2(-n * (h + eps)) * (1 - LOG_SLACK)
    hi = exp2(-n * (h - eps)) * (1 + LOG_SLACK)
    return (
        count <= exp2(n * (h + eps)) * (1 + LOG_SLACK),
        eps >= 1 or count >= (1 - eps) * exp2(n * (h - eps)) * (1 - LOG_SLACK),  # 0 * inf is NaN
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
        # float64 holds every step exactly below 2^53. A count past the
        # largest float is inf, which no budget admits
        count = np.ones(len(letters))
        run = np.ones(len(letters))
        with np.errstate(over="ignore"):
            for j in range(1, m):
                run = np.where(letters[:, j] == letters[:, j - 1], run + 1, 1.0)
                count = count * (j + 1) / run
        yield letters, count, scores[letters].sum(axis=1)


def _prefix_members(firsts: np.ndarray, support: np.ndarray) -> tuple:
    """The members of the classes with first members firsts (C, n), in one
    C-contiguous (N, n) array in lexicographic order, and each one's class.
    g(c), the class completions of a prefix composition c (support letter
    counts below some class's), is 1 at a class and the sum of g(c + e_v) one
    level up; prefixes expand level by level, children in letter order under
    their parents, so column j repeats each child's letter over its g."""
    (_, n), s, letters = firsts.shape, support.size, support.astype(firsts.dtype)
    states = (firsts[:, :, None] == support).sum(axis=1, dtype=np.min_scalar_type(n))
    tables, g = [], [np.ones(len(states), dtype=np.int64)]
    for _ in range(n):  # level n down to the root
        up, v = np.nonzero(states)
        down = states[up] - np.eye(s, dtype=states.dtype)[v]
        keys = down.view(np.dtype((np.void, down.itemsize * s))).ravel().tolist()
        index = dict(zip(dict.fromkeys(keys), itertools.count()))  # each composition once, unsorted
        child = np.full((len(index), s), len(states), dtype=np.min_scalar_type(len(states)))
        child[np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys)), v] = up
        g.insert(0, np.append(g[0], 0)[child].sum(axis=1))  # a missing child is the appended 0
        tables.insert(0, child)
        states = np.frombuffer(b"".join(index), dtype=states.dtype).reshape(-1, s)
    out = np.empty((int(g[0].sum()), n), dtype=firsts.dtype)
    block = np.empty((min(n, _LIST_BLOCK), len(out)), dtype=firsts.dtype)
    nodes = np.arange(len(g[0]))  # the root, if any class is
    for j, table in enumerate(tables):
        child = np.take(table, nodes, axis=0)
        flat = np.flatnonzero(child != len(g[j + 1]))
        nodes = np.take(child, flat)
        block[j % _LIST_BLOCK] = np.repeat(np.take(letters, flat % s), np.take(g[j + 1], nodes))
        if j % _LIST_BLOCK == _LIST_BLOCK - 1 or j == n - 1:
            out[:, j - j % _LIST_BLOCK : j + 1] = block[: j % _LIST_BLOCK + 1].T
    return out, nodes.astype(np.intp)  # level n's compositions are the classes, in order


def enumerate_typical(pmf, config: TypConfig) -> TypicalSet:
    """List the typical set in lexicographic order, with bounds. Typicality
    and p(u) are decided once per composition class of the s letters with
    p > 0, and only the typical classes' members are listed, by
    `_prefix_members`. The budget bounds the C(n + s - 1, s - 1) classes,
    checked before any is drawn, and the members (BudgetError carries their
    count, exact below 2^53 and inf once a class size overflows a float,
    past about n = 1030 for two letters)."""
    p = check_pmf(pmf)
    if p.ndim != 1:
        raise ValueError(f"pmf must be a vector, got shape {p.shape}")
    h = entropy(p)
    n, eps, budget = config.n, config.eps, config.budget
    support = np.flatnonzero(p > 0)
    classes = math.comb(n + support.size - 1, support.size - 1)
    if classes > budget:
        raise BudgetError(f"enumeration visits {classes} composition classes, budget is {budget}", needed=classes)
    log2p = log2_safe(p)
    firsts, sizes, scores = [], [], []  # the typical classes' sorted letters, sizes and log2 p(u)
    for letters, count, score in _block_types(support.tolist(), n, log2p):
        keep = in_box(score, n, h, eps)
        firsts.append(letters[keep].astype(np.min_scalar_type(p.size - 1)))
        sizes.append(count[keep])
        scores.append(score[keep])
    firsts, sizes = np.concatenate(firsts), np.concatenate(sizes)
    listed = sizes.sum()
    if listed > budget:
        needed = int(listed) if listed < math.inf else math.inf
        raise BudgetError(f"enumeration lists {needed} typical sequences, budget is {budget}", needed=needed)
    sizes = sizes.astype(np.int64)
    # Python's float power (libm pow), which numpy's vectorised power does not
    # match bit for bit on every host
    class_prob = np.array([2.0 ** x for x in np.concatenate(scores).tolist()])
    members, member_class = _prefix_members(firsts, support)
    typical_prob = math.fsum((sizes * class_prob).tolist())
    upper_ok, lower_ok, prob_ok = _bounds_ok(len(members), class_prob, n, h, eps)
    bounds = SetBounds(upper_ok, lower_ok, typical_prob >= 1 - eps, prob_ok, typical_prob)
    per_class = (firsts, member_class, sizes, class_prob)
    return TypicalSet(p, config, h, _frozen(members), bounds, *map(_frozen, per_class))


class BoxTest:
    """The joint-typicality boxes of one test over every candidate: each
    sign-coding decoder, `is_jointly_typical` and `conditional_typical_prob`
    are one box list each.

    joint is a pmf table whose last axis is the output y, and each box, the
    y box (y,) among them, is the margin of joint on a sorted tuple of its
    axes. x holds every candidate's (n, C) input letters in [0, K), and
    labels the (K, joint.ndim - 1) letters that each input letter puts on
    the axes but y, through which each box's log table is gathered once into
    a (K,) or (K, nout) table. Every box sums its table over positions, one
    position at a time: a box without y once per candidate, into the static
    candidate mask, its positions in the order of their words (the labels
    on the box's axes), so candidates whose words are permutations of each
    other get one verdict; the y box once per output; every other box once
    per (output, candidate), as table[x[i], y[i]].
    """

    def __init__(self, joint: np.ndarray, boxes, labels: np.ndarray, x: np.ndarray, eps: float):
        y_axis = joint.ndim - 1
        if (y_axis,) not in boxes:
            raise ValueError(f"the box list must hold the output box ({y_axis},)")
        self.x, self.labels, self.n, self.eps = x, labels, x.shape[0], eps
        self.static = np.ones(x.shape[1], dtype=bool)  # (C,)
        self.terms = []  # [(table (K, nout), entropy)]
        for axes in boxes:
            drop = tuple(d for d in range(joint.ndim) if d not in axes)
            marg = joint.sum(axis=drop) if drop else joint
            log, h = log2_safe(marg), entropy_raw(marg)
            if axes == (y_axis,):
                self.log_y, self.h_y = log, h
                continue
            words = tuple(labels[:, d] for d in axes if d != y_axis)
            if y_axis in axes:
                self.terms.append((log[words], h))
            else:  # each candidate's cells summed in sorted order
                cells = np.sort(np.ravel_multi_index(words, marg.shape)[x], axis=0)
                self.static &= in_box(log.ravel()[cells].sum(axis=0), self.n, h, eps)

    def _y_box(self, y: np.ndarray) -> np.ndarray:
        return in_box(self.log_y[y].sum(axis=1), self.n, self.h_y, self.eps)

    def accept(self, y: np.ndarray) -> np.ndarray:
        """(B, C) acceptances of every candidate for a (B, n) block of outputs."""
        ok = self.static[:, None] & self._y_box(y)  # (C, B): row gathers are the fast ones
        for table, h in self.terms:
            total = np.take(table[:, y[:, 0]], self.x[0], axis=0)
            for i in range(1, self.n):
                total += np.take(table[:, y[:, i]], self.x[i], axis=0)
            ok &= in_box(total, self.n, h, self.eps)
        return ok.T

    def pairs(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(P,) acceptances of candidate rows[p] for output y[p] of a (P, n)
        block, summed in the same order as `accept`."""
        ok = self.static[rows] & self._y_box(y)
        for table, h in self.terms:
            total = table[self.x[0, rows], y[:, 0]]
            for i in range(1, self.n):
                total += table[self.x[i, rows], y[:, i]]
            ok &= in_box(total, self.n, h, self.eps)
        return ok


def is_jointly_typical(seqs, joint_pmf, config: TypConfig) -> bool:
    """Joint typicality of k aligned sequences: every nonempty subset of
    coordinates must satisfy its own rate/entropy box.

    The cells of the joint that the sequences pick, sorted so that a
    permutation of the whole tuple keeps the verdict, are the one candidate
    of a BoxTest over every nonempty subset of the joint's axes; the output
    is a unit axis appended to the joint, whose box always holds."""
    joint = check_pmf(joint_pmf)
    k, seqs = joint.ndim, tuple(seqs)
    if len(seqs) != k:
        raise ValueError(f"need {k} sequences for this joint pmf")
    letters = [_letters(s, joint.shape[d], f"sequence {d}", config.n) for d, s in enumerate(seqs)]
    boxes = [tuple(d for d in range(k) if mask >> d & 1) for mask in range(1, 2**k)] + [(k,)]
    labels = np.indices(joint.shape).reshape(k, -1).T
    x = np.sort(np.ravel_multi_index(letters, joint.shape))[:, None]
    test = BoxTest(joint[..., None], boxes, labels, x, config.eps)
    return bool(test.accept(np.zeros((1, config.n), dtype=np.intp))[0, 0])


class CondProbResult(NamedTuple):
    prob: float
    exact: bool  # False for a Monte Carlo estimate


def _check_transition(transition, size: int) -> np.ndarray:
    """Validate and return a size x |V| row-stochastic transition matrix."""
    t = np.asarray(transition, dtype=float)
    # NaN fails the sign test and an infinity the row sums
    shape_ok = t.ndim == 2 and t.shape[0] == size
    if not (shape_ok and np.all(t >= 0) and np.all(np.abs(t.sum(axis=1) - 1.0) <= ROW_TOL)):
        raise ValueError(f"transition must be {size} rows of finite non-negative entries, each summing to 1")
    return t


def _letter_blocks(x: np.ndarray, k: int) -> list:
    """Each candidate's blocks of conditional types: the (letter a, count m)
    of every letter in [0, k) that its column of the (n, C) inputs x holds,
    in letter order."""
    counts = np.bincount((x + k * np.arange(x.shape[1])).ravel(), minlength=k * x.shape[1])
    return [[(a, m) for a, m in enumerate(row) if m] for row in counts.reshape(-1, k).tolist()]


def _type_count(blocks, outputs: list) -> int:
    """The conditional types of one candidate's blocks: prod of
    C(m + s - 1, s - 1) over its (a, m), s = outputs[a] the outputs a reaches."""
    return math.prod(math.comb(m + outputs[a] - 1, outputs[a] - 1) for a, m in blocks)


def _combine(draw, blocks, mass, score):
    """Yield every combination of one composition per block after the given
    prefix, as (mass, score) with mass the product and score the (J, R) sum
    of the blocks' masses and scores, at most CHUNK combinations at a time.
    blocks holds each block's (letter, count) key, whose (mass, score)
    chunks draw gives again for every slice of the prefix."""
    if not blocks:
        yield mass, score
        return
    for b_mass, b_score in draw(*blocks[0]):
        step = max(1, CHUNK // len(b_mass))
        for i in range(0, len(mass), step):
            yield from _combine(
                draw,
                blocks[1:],
                (mass[i:i + step, None] * b_mass).ravel(),
                (score[:, i:i + step, None] + b_score[:, None]).reshape(len(score), -1),
            )


def _type_pieces(test: BoxTest, t: np.ndarray, blocks: list, cands):
    """Yield (c, mass, score) over the conditional types of every candidate c
    in cands, in order, at most CHUNK types at a time, the outputs drawn by
    the rows of t given test.x[:, c]. Each (letter a, count m) of blocks[c]
    is a block, the compositions of m outputs that a reaches (t(v|a) > 0),
    drawn by _block_types: its mass is its count times the product of t(v|a)
    over its letters, and its score rows the test's y-box table and each
    y-box term's table at a, summed over its letters. A block of at most
    CHUNK compositions is drawn once per call and shared by every candidate;
    a larger one is drawn afresh on every pass over it."""
    scores = np.stack([np.broadcast_to(test.log_y, t.shape), *(tab for tab, _ in test.terms)], axis=-1)
    reach = [np.flatnonzero(row > 0).tolist() for row in t]
    cache = {}

    def draw(a, m):
        if (a, m) not in cache:
            types = (  # C order: score rows are contiguous
                (count * t[a, letters].prod(axis=1), np.ascontiguousarray(score.T))
                for letters, count, score in _block_types(reach[a], m, scores[a])
            )
            if math.comb(m + len(reach[a]) - 1, len(reach[a]) - 1) > CHUNK:
                return types
            cache[a, m] = list(types)
        return cache[a, m]

    for c in cands:
        (a, m), *rest = blocks[c]
        for mass, score in draw(a, m):
            for piece in _combine(draw, rest, mass, score):
                yield c, *piece


def _pass_mass(test: BoxTest, pieces: list) -> list:
    """The pass mass of each (c, mass, score) piece of _type_pieces: its mass
    summed over the types whose score rows pass every y box at the test's
    own entropy. The pieces are scored together as one (J, R) array, and
    each piece's mass is summed alone."""
    mass, score = pieces[0][1:] if len(pieces) == 1 else (
        np.concatenate([p[1] for p in pieces]), np.concatenate([p[2] for p in pieces], axis=1))
    ok = in_box(score[0], test.n, test.h_y, test.eps)
    for row, (_, h) in zip(score[1:], test.terms):
        ok &= in_box(row, test.n, h, test.eps)
    mass = np.where(ok, mass, 0.0)
    ends = np.cumsum([len(p[1]) for p in pieces]).tolist()
    return [float(mass[lo:hi].sum()) for lo, hi in zip([0, *ends], ends)]


def _batches(pieces):
    """Yield consecutive (c, mass, score) pieces in lists of at most CHUNK
    types in all; a piece is never split."""
    batch, rows = [], 0
    for piece in pieces:
        if batch and rows + len(piece[1]) > CHUNK:
            yield batch
            batch, rows = [], 0
        batch.append(piece)
        rows += len(piece[1])
    if batch:
        yield batch


def _mc_prob(test: BoxTest, t: np.ndarray, c: int) -> float:
    """Candidate c's pass rate over MC_SAMPLES outputs drawn by the rows of t
    given its inputs, seeded by their composition, drawn by
    `channel.sample_outputs` and counted by the test's `pairs`."""
    u = test.x[:, c]
    rng = np.random.default_rng(np.random.SeedSequence(np.bincount(u, minlength=len(t)).tolist()))
    cdf, inputs = np.cumsum(t, axis=1), np.broadcast_to(u, (_MC_BLOCK, test.n))
    hits = 0
    for start in range(0, MC_SAMPLES, _MC_BLOCK):
        draws = rng.random((min(_MC_BLOCK, MC_SAMPLES - start), test.n))
        hits += int(test.pairs(sample_outputs(cdf, inputs[: len(draws)], draws), np.full(len(draws), c)).sum())
    return hits / MC_SAMPLES


def _type_probs(test: BoxTest, t: np.ndarray, budget=math.inf) -> tuple:
    """Pr{candidate c of test passes} for every candidate c, as a
    CondProbResult each, with the outputs drawn by the rows of t given the
    inputs test.x[:, c]; 0 where c fails a box without y.

    While a candidate's conditional types fit the budget (_type_count) its
    probability is exact: the pass mass of its types. Every such candidate's
    types are scored in one pass, small pieces of many candidates together
    in up to CHUNK types, each piece summed alone and a candidate's pieces
    added in order, so no candidate's value depends on the others. Above the
    budget it is a Monte Carlo estimate (_mc_prob)."""
    blocks, outputs = _letter_blocks(test.x, len(t)), (t > 0).sum(axis=1).tolist()
    exact = np.array([not test.static[c] or _type_count(b, outputs) <= budget for c, b in enumerate(blocks)], bool)
    totals = [0.0] * len(blocks)
    for batch in _batches(_type_pieces(test, t, blocks, np.flatnonzero(exact & test.static))):
        for (c, _, _), mass in zip(batch, _pass_mass(test, batch)):
            totals[c] += mass
    return tuple(
        CondProbResult(min(total, 1.0), True) if ok else CondProbResult(_mc_prob(test, t, c), False)
        for c, (total, ok) in enumerate(zip(totals, exact.tolist()))
    )


def _class_probs(p_u: np.ndarray, t: np.ndarray, x: np.ndarray, config: TypConfig) -> tuple:
    """_type_probs of the V and (U, V) boxes over p(u, v), of checked factors,
    with x the (n, C) sorted input letters of C classes, each its own label."""
    test = BoxTest(p_u[:, None] * t, ((1,), (0, 1)), np.arange(p_u.size)[:, None], x, config.eps)
    return _type_probs(test, t, config.budget)


def conditional_typical_prob(
    u_seq, input_pmf, transition, config: TypConfig
) -> CondProbResult:
    """Pr{(u, V) jointly typical | U = u} with V drawn per-symbol from the
    transition rows: 0 for an atypical u, else the one-candidate call of the
    engine that `enumerate_b_typical` runs on every class at once, with u
    sorted its candidate (_type_probs: exact while the conditional types fit
    the budget, a Monte Carlo estimate above it). Either way it is a function
    of u's type class: u is sorted before its typicality is decided too, so
    at every eps each permutation of u gives its class's value in
    `enumerate_b_typical`, bit for bit.
    """
    p_u = check_pmf(input_pmf)
    t = _check_transition(transition, p_u.size)
    first, score = _class_score(u_seq, p_u, config.n, "u_seq")
    if not in_box(score, config.n, entropy(p_u), config.eps):
        return CondProbResult(prob=0.0, exact=True)
    return _class_probs(p_u, t, first[:, None], config)[0]


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
    class, on the class's first member in lexicographic order, all classes in
    one pass of the conditional-type engine (each class's value is the one
    `conditional_typical_prob` gives it alone), and whether to keep the class
    is decided once on it, for every member of the class.
    """
    p_u = check_pmf(input_pmf)
    transition = _check_transition(transition, p_u.size)
    base = enumerate_typical(p_u, config)
    class_probs = _class_probs(p_u, transition, base.class_firsts.T.astype(np.intp), config)
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
