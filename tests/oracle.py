"""Independent brute-force reference implementations for the test suite.

Everything here is pure Python over math/itertools, written from the defining
formulas, so agreement with the library is meaningful. Slow on purpose; only
use on instances with |alphabet|^n small.
"""

import itertools
import math

SLACK = 1e-12


def entropy_oracle(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def joint_oracle(px, w):
    """Joint pmf table p(x, y) as nested lists."""
    return [[px[x] * w[x][y] for y in range(len(w[0]))] for x in range(len(px))]


def mi_oracle(px, w):
    joint = joint_oracle(px, w)
    py = [sum(row[y] for row in joint) for y in range(len(joint[0]))]
    total = 0.0
    for x, row in enumerate(joint):
        for y, pxy in enumerate(row):
            if pxy > 0:
                total += pxy * math.log2(pxy / (px[x] * py[y]))
    return total


def equivocation_oracle(px, w):
    """H(X|Y) by direct summation."""
    joint = joint_oracle(px, w)
    py = [sum(row[y] for row in joint) for y in range(len(joint[0]))]
    total = 0.0
    for x, row in enumerate(joint):
        for y, pxy in enumerate(row):
            if pxy > 0:
                total -= pxy * math.log2(pxy / py[y])
    return total


def seq_prob(seq, pmf):
    return math.prod(pmf[s] for s in seq)


def seq_rate(seq, pmf):
    pr = seq_prob(seq, pmf)
    if pr == 0:
        return math.inf
    return -math.log2(pr) / len(seq)


def typical_set_oracle(pmf, n, eps):
    """All typical sequences by full product enumeration."""
    h = entropy_oracle(pmf)
    members = []
    mass = 0.0
    for seq in itertools.product(range(len(pmf)), repeat=n):
        if abs(seq_rate(seq, pmf) - h) <= eps + SLACK:
            members.append(seq)
            mass += seq_prob(seq, pmf)
    return members, mass


def typical_count_by_composition(pmf, n, eps):
    """Typical-set size and mass via composition classes.

    Independent of the sequence scan: iterates over symbol-count vectors,
    weighs each class by the multinomial coefficient.
    """
    h = entropy_oracle(pmf)
    k = len(pmf)
    count = 0
    mass = 0.0

    def comps(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for c in range(remaining + 1):
            for rest in comps(remaining - c, slots - 1):
                yield (c,) + rest

    for comp in comps(n, k):
        if any(c > 0 and pmf[i] == 0 for i, c in enumerate(comp)):
            continue
        logp = sum(c * math.log2(pmf[i]) for i, c in enumerate(comp) if c > 0)
        if abs(-logp / n - h) <= eps + SLACK:
            size = math.factorial(n)
            for c in comp:
                size //= math.factorial(c)
            count += size
            mass += size * 2.0**logp
    return count, mass


def subset_marginal(joint, axes, shape):
    """Marginal table over the given axes of a flat-indexed joint pmf."""
    ndim = len(shape)
    out = {}
    for idx in itertools.product(*(range(s) for s in shape)):
        key = tuple(idx[a] for a in axes)
        out[key] = out.get(key, 0.0) + joint[idx]
    return out


def jointly_typical_oracle(seqs, joint, shape, eps):
    """Check every nonempty subset box directly. joint is a dict idx->prob."""
    n = len(seqs[0])
    ndim = len(shape)
    for r in range(1, ndim + 1):
        for axes in itertools.combinations(range(ndim), r):
            marg = subset_marginal(joint, axes, shape)
            h = entropy_oracle([v for v in marg.values() if v > 0])
            logp = 0.0
            dead = False
            for i in range(n):
                key = tuple(seqs[a][i] for a in axes)
                p = marg.get(key, 0.0)
                if p == 0:
                    dead = True
                    break
                logp += math.log2(p)
            if dead or abs(-logp / n - h) > eps + SLACK:
                return False
    return True


def cond_typical_prob_oracle(u, pmf, trans, eps):
    """Pr{(u, V) jointly typical | u} by full enumeration over V^n."""
    n = len(u)
    kv = len(trans[0])
    joint = {}
    for a in range(len(pmf)):
        for b in range(kv):
            joint[(a, b)] = pmf[a] * trans[a][b]
    shape = (len(pmf), kv)
    total = 0.0
    for v in itertools.product(range(kv), repeat=n):
        w = math.prod(trans[u[i]][v[i]] for i in range(n))
        if w == 0:
            continue
        if jointly_typical_oracle((u, v), joint, shape, eps):
            total += w
    return total


def b_typical_oracle(pmf, trans, n, eps):
    """Conditioned typical set by double enumeration."""
    members, _ = typical_set_oracle(pmf, n, eps)
    out = []
    for u in members:
        pr = cond_typical_prob_oracle(u, pmf, trans, eps)
        if pr >= 1 - eps - SLACK:
            out.append((u, pr))
    return out


def member_probs_ok_oracle(members, pmf, n, eps):
    """Whether every member's probability lies in [2^{-n(H+eps)}, 2^{-n(H-eps)}],
    each bound widened by the relative slack SLACK."""
    h = entropy_oracle(pmf)
    lo = 2.0 ** (-n * (h + eps)) * (1 - SLACK)
    hi = 2.0 ** (-n * (h - eps)) * (1 + SLACK)
    return all(lo <= seq_prob(u, pmf) <= hi for u in members)


def lemma1_oracle(pmf, trans, n, eps):
    """The conditioned typical set's probability check, masses and count, one
    member at a time: every typical u is weighed by its own probability and
    its own conditional probability."""
    members, _ = typical_set_oracle(pmf, n, eps)
    cond = [cond_typical_prob_oracle(u, pmf, trans, eps) for u in members]
    kept = [u for u, pr in zip(members, cond) if pr >= 1 - eps - SLACK]
    b_mass = math.fsum(seq_prob(u, pmf) for u in kept)
    return {
        "p1_ok": member_probs_ok_oracle(kept, pmf, n, eps),
        "b_mass": b_mass,
        "p2_mass": 1.0 - b_mass,
        "joint_typical_mass": math.fsum(seq_prob(u, pmf) * pr for u, pr in zip(members, cond)),
        "b_count": len(kept),
    }


def bit_joint_oracle(px, w, bit_matrix, level):
    """p(c_level, y) as two lists, by adding p(x) w(y|x) into row c_level(x)."""
    ny = len(w[0])
    joint = [[0.0] * ny for _ in range(2)]
    for x, p in enumerate(px):
        for y in range(ny):
            joint[bit_matrix[x][level]][y] += p * w[x][y]
    return joint


def table_mi_oracle(joint):
    """I between the row and the column index of a joint pmf table."""
    rows = [sum(row) for row in joint]
    cols = [sum(col) for col in zip(*joint)]
    cells = [v for row in joint for v in row]
    return entropy_oracle(rows) + entropy_oracle(cols) - entropy_oracle(cells)


def bmd_unclipped_oracle(px, w, bit_matrix):
    """H(C) - sum_i H(C_i|Y) from the defining sums."""
    m1 = len(bit_matrix[0])
    h_c = entropy_oracle([p for p in px if p > 0])
    total = h_c
    ny = len(w[0])
    for lvl in range(m1):
        joint = bit_joint_oracle(px, w, bit_matrix, lvl)
        py = [joint[0][y] + joint[1][y] for y in range(ny)]
        h_cy = 0.0
        for b in range(2):
            for y in range(ny):
                if joint[b][y] > 0:
                    h_cy -= joint[b][y] * math.log2(joint[b][y] / py[y])
        total -= h_cy
    return total


def gmi_grid_oracle(px, w, metric, s_grid):
    """max over the grid of the generalized rate, direct formula."""
    ny = len(w[0])
    best = -math.inf
    for s in s_grid:
        total = 0.0
        for x, p in enumerate(px):
            for y in range(ny):
                pxy = p * w[x][y]
                if pxy == 0:
                    continue
                den = sum(px[xp] * metric[xp][y] ** s for xp in range(len(px)))
                total += pxy * math.log2(metric[x][y] ** s / den)
        best = max(best, total)
    return best


def capacity_grid_oracle(amplitudes, snr_db, sigma_maker, p1_grid, delta_grid):
    """Lower bound on 4-ASK capacity: grid over (inner amplitude mass, scale).

    amplitudes is the positive half (1, 3); the full constellation is the
    mirror image. sigma_maker(scaled_points) -> channel rows for unit noise.
    Power normalized to 10^(snr/10) under the evaluated input.
    """
    power = 10.0 ** (snr_db / 10.0)
    a1, a2 = amplitudes
    best = -math.inf
    for p1 in p1_grid:
        pa = [p1, 1 - p1]
        px = [pa[1] / 2, pa[0] / 2, pa[0] / 2, pa[1] / 2]
        for d in delta_grid:
            pts = [-d * a2, -d * a1, d * a1, d * a2]
            e = sum(p * x * x for p, x in zip(px, pts))
            if e > power * (1 + 1e-9):
                continue
            w = sigma_maker(pts)
            best = max(best, mi_oracle(px, w))
    return best


def mb_weights_oracle(amplitudes, lam):
    raw = [math.exp(-lam * a * a) for a in amplitudes]
    z = sum(raw)
    return [r / z for r in raw]


INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_max(f, a: float, b: float, xtol: float, max_iter: int = 200):
    """Golden-section maximization of a unimodal f on [a, b].

    Returns (x_best, f(x_best)) over all probed points, ties going to the
    larger x, so a non-unimodal f still yields the best sample seen.
    """
    h = b - a
    c, d = a + INVPHI2 * h, a + INVPHI * h
    yc, yd = f(c), f(d)
    best = max((yc, c), (yd, d))
    it = 0
    while h > xtol and it < max_iter:
        if yc >= yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + INVPHI * h
            yd = f(d)
        best = max(best, (yc, c), (yd, d))
        it += 1
    return best[1], best[0]
