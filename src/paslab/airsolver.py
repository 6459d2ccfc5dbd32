"""Capacity and rate-split solver for shaped ASK over quantized AWGN.

Convention: noise variance 1, power budget P = 10^(snr_db/10), and SNR is
measured against the distribution under evaluation, so every candidate input
uses the budget exactly. Implemented as an outer 1-D search over the
constellation scale and an inner power-constrained Blahut-Arimoto solve at
fixed scale (Lagrange multiplier on E[X^2], bisected to meet the budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabets import AskConstellation, brgc_label
from .channel import AwgnSpec, Dmc, gaussian_dmc
from .errors import ConvergenceError
from .infomeasures import entropy, equivocation, mutual_information, r_bmd
from .optim import bisect_until, golden_max

LN2 = math.log(2.0)
BA_TOL = 1e-9  # duality-gap stop, nats
BA_MAX_ITER = 200_000
NEWTON_EVERY = 16  # iterations between Newton refinement attempts
LAM_XTOL = 1e-10
E_RTOL = 1e-12  # power-budget feasibility slack
P_FLOOR = 1e-30  # keeps suppressed inputs recoverable across multiplier steps
BASIC_POINT_FTOL = 1e-4
SNR_XTOL_DB = 1e-3


@dataclass(frozen=True)
class AirPoint:
    """One solved operating point of the rate curves."""

    snr_db: float
    capacity: float
    p_a_star: np.ndarray  # optimal amplitude pmf, ascending amplitudes
    h_a: float
    gamma: float  # capacity - h_a, clamped to [0, 1)
    mi_uniform: float
    r_bmd_star: float


def mb_family(constellation: AskConstellation, lam: float) -> np.ndarray:
    """Maxwell-Boltzmann amplitude pmf p(a) proportional to exp(-lam * a^2)."""
    a = np.asarray(constellation.amplitudes, dtype=float)
    w = np.exp(-lam * a**2 - np.max(-lam * a**2))
    return w / w.sum()


def mirror_pmf(p_a) -> np.ndarray:
    """Symmetric symbol pmf p(x) = p(|x|)/2 over the ascending point grid."""
    p = np.asarray(p_a, dtype=float)
    return np.concatenate([p[::-1], p]) / 2.0


def fold_pmf(p_x) -> np.ndarray:
    """Amplitude marginal of a symbol pmf over the ascending point grid."""
    p = np.asarray(p_x, dtype=float)
    half = p.size // 2
    return p[half:] + p[:half][::-1]


def _ba_fixed_multiplier(w, energies, lam, p, tol=BA_TOL, max_iter=BA_MAX_ITER):
    """Ascend I(p) - lam*E[energy] on a fixed channel.

    Blahut-Arimoto multiplicative updates with periodic Newton refinement
    on the active face, accepted only on strict Lagrangian improvement.
    Stops on the duality gap max_x(c_x - lam e_x) - E_p[c - lam e] < tol
    (nats), which keeps iterating while suppressed inputs still want mass;
    a plain improvement test stalls on that plateau. Returns
    (p, mi_bits, mean_energy); p stays symmetric and floored away from zero
    so smaller multipliers can re-grow suppressed points.
    """
    # the iteration keeps p symmetric, so the problem must be exactly
    # mirror-symmetric too: quantizer edges from linspace are mirror-equal
    # only to roundoff, and across thousands of bins that leaves a genuinely
    # asymmetric gradient (~1e-8) no symmetric iterate can zero
    w = 0.5 * (w + w[::-1, ::-1])
    energies = 0.5 * (energies + energies[::-1])
    lnw = np.log(np.where(w > 0, w, 1.0))
    neg_row_ent = (w * lnw).sum(axis=1)
    drive = -lam * energies

    def step(p):
        q = p @ w
        lnq = np.log(np.where(q > 0, q, 1.0))
        c = neg_row_ent - w @ lnq  # E[ln(w/q)] per input, in nats
        cd = c + drive
        return c, cd, float(cd.max() - p @ cd)

    def clean(p):
        p = np.maximum(p, P_FLOOR)
        p = p / p.sum()
        return 0.5 * (p + p[::-1])

    def newton_polish(p, cd):
        # solve the quadratic model of the Lagrangian on the active face
        # (equality-constrained Newton with fraction-to-boundary steps);
        # multiplicative updates crawl through flat valleys and regrow
        # floored symbols at e^(gap) per step, Newton jumps both in one go
        level = float(p @ cd)
        act = (p > 1e-9) | (cd > level)
        act = act & act[::-1]
        k = int(act.sum())
        if k < 2:
            return None
        ws = w[act]
        nrs = neg_row_ent[act]
        ds = drive[act]
        ps = np.maximum(p[act], 1e-12)
        ps = ps / ps.sum()
        free = np.ones(k, dtype=bool)
        for _ in range(40 + k):
            q = ps @ ws
            qs = np.where(q > 0, q, 1.0)
            g = nrs - ws @ np.log(qs) + ds
            wf = ws[free]
            kf = int(free.sum())
            if kf < 2:
                break
            kkt = np.zeros((kf + 1, kf + 1))
            kkt[:kf, kf] = kkt[kf, :kf] = 1.0
            kkt[:kf, :kf] = -(wf / qs) @ wf.T
            rhs = np.zeros(kf + 1)
            rhs[:kf] = -g[free]
            try:
                dp = np.linalg.solve(kkt, rhs)[:kf]
            except np.linalg.LinAlgError:
                return None
            pf = ps[free]
            neg = dp < 0
            alpha = 1.0
            if neg.any():
                alpha = min(1.0, float(np.min(-pf[neg] / dp[neg])))
            if not np.isfinite(alpha) or alpha < 0:
                return None
            pf = np.maximum(pf + alpha * dp, 1e-18)
            ps[free] = pf
            if alpha < 1.0:
                # a coordinate hit zero; pin it instead of shrinking the
                # step, or one blocked symbol stalls all the others
                free[free] = pf > 2e-18
                continue
            if float(np.abs(dp).max()) < 1e-13:
                break
        cand = np.full(p.size, P_FLOOR)
        cand[act] = ps / ps.sum()
        return clean(cand)

    # soften the start: a warm start can arrive with symbols parked at the
    # floor, and regrowing 1e-30 -> O(1) against a 1e-3 nat gradient takes
    # tens of thousands of multiplicative steps
    p = 0.99 * p + 0.01 / p.size
    for it in range(max_iter):
        c, cd, gap = step(p)
        if gap < tol:
            return p, float(p @ c) / LN2, float(p @ energies)
        if it % NEWTON_EVERY == NEWTON_EVERY - 1:
            cand = newton_polish(p, cd)
            if cand is not None:
                # near the optimum the Lagrangian is flat to roundoff while
                # the gap is still above tol, so take gap halving as progress
                # too; both tests ratchet, so no cycling
                val = float(p @ cd)
                for trial in (cand, clean(0.5 * (p + cand))):
                    _, cd_t, gap_t = step(trial)
                    if float(trial @ cd_t) > val + 1e-14 or gap_t < 0.5 * gap:
                        p = trial
                        break
                else:
                    p = clean(p * np.exp(cd - cd.max()))
                continue
        p = clean(p * np.exp(cd - cd.max()))
    raise ConvergenceError(
        f"Blahut-Arimoto did not converge in {max_iter} iterations",
        last_iterate=p,
    )


def _constrained_capacity(w, energies, budget, p0=None, lam_hint=None):
    """max_p I(p) s.t. E[energy] <= budget, via multiplier bisection.

    Returns (p, mi_bits, lam). The reported iterate sits on the feasible side
    of the budget.
    """
    n = w.shape[0]
    p = np.full(n, 1.0 / n) if p0 is None else np.asarray(p0, dtype=float)
    p, mi, e = _ba_fixed_multiplier(w, energies, 0.0, p)
    ok = budget * (1.0 + E_RTOL)
    if e <= ok:
        return p, mi, 0.0
    lo = 0.0
    p_lo = p  # iterate on the infeasible (less suppressed) side: cheap to warm-start from
    hi = lam_hint if (lam_hint is not None and lam_hint > 0) else 1e-3
    p_hi, mi_hi, e_hi = _ba_fixed_multiplier(w, energies, hi, p_lo)
    doublings = 0
    while e_hi > ok and doublings < 80:
        lo, p_lo = hi, p_hi
        hi *= 2.0
        p_hi, mi_hi, e_hi = _ba_fixed_multiplier(w, energies, hi, p_lo)
        doublings += 1
    if e_hi > ok:
        raise ConvergenceError("could not bracket the power multiplier", last_iterate=p_hi)
    feasible = (p_hi, mi_hi, hi)
    while hi - lo > LAM_XTOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        p_mid, mi_mid, e_mid = _ba_fixed_multiplier(w, energies, mid, p_lo)
        if e_mid <= ok:
            hi = mid
            feasible = (p_mid, mi_mid, mid)
            if abs(e_mid - budget) <= 1e-10 * budget:
                break
        else:
            lo, p_lo = mid, p_mid
    return feasible


def _scaled_channel(points, delta, spec: AwgnSpec):
    pts = np.asarray(points, dtype=float) * delta
    return pts, gaussian_dmc(pts, 1.0, spec.num_bins, spec.clip_sigmas).w


def optimize_capacity(constellation: AskConstellation, snr_db: float, spec: AwgnSpec | None = None) -> AirPoint:
    """Solve max I(X;Y) over symmetric inputs at the given SNR.

    The outer scale search covers every way of trading constellation spread
    against amplitude shaping inside the power budget; coarse presampling
    guards the golden-section refine against flat brackets.
    """
    spec = spec or AwgnSpec()
    power = 10.0 ** (snr_db / 10.0)
    points = np.asarray(constellation.points, dtype=float)
    label = brgc_label(constellation)
    m_big = constellation.size - 1  # outermost point magnitude

    if constellation.size == 2:
        delta_star = math.sqrt(power)
        p_star = np.array([0.5, 0.5])
        pts, w = _scaled_channel(points, delta_star, spec)
        cap = mutual_information(p_star, w)
    else:
        warm = {"p": None, "lam": None}

        def g(delta: float) -> float:
            _, w = _scaled_channel(points, delta, spec)
            energies = (points * delta) ** 2
            p, mi, lam = _constrained_capacity(
                w, energies, power, p0=warm["p"], lam_hint=warm["lam"]
            )
            warm["p"], warm["lam"] = p, lam
            return mi

        d_lo = math.sqrt(power) / m_big
        d_hi = math.sqrt(power)
        grid = np.geomspace(d_lo, d_hi, 13)
        vals = [g(d) for d in grid]
        k = int(np.argmax(vals))
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        delta_star, _ = golden_max(g, lo, hi, xtol=3e-5 * d_hi)
        pts, w = _scaled_channel(points, delta_star, spec)
        energies = pts**2
        p_star, cap, _ = _constrained_capacity(
            w, energies, power, p0=warm["p"], lam_hint=warm["lam"]
        )

    p_a_star = fold_pmf(p_star)
    h_a = entropy(p_a_star)
    gamma = min(max(cap - h_a, 0.0), math.nextafter(1.0, 0.0))
    e_unif = float(np.mean(points**2))
    d_unif = math.sqrt(power / e_unif)
    _, w_unif = _scaled_channel(points, d_unif, spec)
    p_unif = np.full(constellation.size, 1.0 / constellation.size)
    mi_unif = mutual_information(p_unif, w_unif)
    return AirPoint(
        snr_db=float(snr_db),
        capacity=float(cap),
        p_a_star=p_a_star,
        h_a=float(h_a),
        gamma=float(gamma),
        mi_uniform=float(mi_unif),
        r_bmd_star=float(r_bmd(p_star, w, label)),
    )


def uniform_rate(constellation: AskConstellation, snr_db: float, spec: AwgnSpec | None = None) -> float:
    """I(X;Y) of the uniform input at its own power normalization."""
    spec = spec or AwgnSpec()
    power = 10.0 ** (snr_db / 10.0)
    points = np.asarray(constellation.points, dtype=float)
    d = math.sqrt(power / float(np.mean(points**2)))
    _, w = _scaled_channel(points, d, spec)
    p = np.full(constellation.size, 1.0 / constellation.size)
    return mutual_information(p, w)


def find_basic_point(
    constellation: AskConstellation,
    spec: AwgnSpec | None = None,
    bracket_db: tuple[float, float] = (-4.0, 6.0),
) -> tuple[float, float]:
    """SNR (dB) and rate where the capacity-achieving H(A) equals capacity.

    Bisects H(A*) - C on snr_db until within 1e-4 bit; raises ValueError when
    the bracket shows no crossing (e.g. 2-ASK, where H(A) is identically 0).
    """
    cache: dict[float, AirPoint] = {}

    def f(snr: float) -> float:
        pt = optimize_capacity(constellation, snr, spec)
        cache[snr] = pt
        return pt.h_a - pt.capacity

    snr = bisect_until(f, bracket_db[0], bracket_db[1], ftol=BASIC_POINT_FTOL)
    pt = cache.get(snr) or optimize_capacity(constellation, snr, spec)
    return float(snr), float(pt.capacity)


def gamma_split(constellation: AskConstellation, snr_db: float, spec: AwgnSpec | None = None) -> tuple[float, float]:
    """Split capacity at snr_db into (H(A*), gamma) with C = H(A*) + gamma."""
    pt = optimize_capacity(constellation, snr_db, spec)
    gamma = pt.capacity - pt.h_a
    if gamma < -BASIC_POINT_FTOL:
        raise ValueError(
            f"snr {snr_db} dB sits below the basic point (H(A*) exceeds capacity by {-gamma:.4g})"
        )
    if gamma >= 1.0:
        raise ValueError(f"sign rate gamma = {gamma:.4g} is infeasible (needs gamma < 1)")
    return float(pt.h_a), float(max(gamma, 0.0))


def shaping_gap(
    constellation: AskConstellation,
    target_rate: float,
    spec: AwgnSpec | None = None,
    bracket_db: tuple[float, float] = (-15.0, 35.0),
) -> float:
    """SNR penalty (dB) of the uniform input against capacity at target_rate."""
    max_rate = constellation.m + 1
    if not 0.0 < target_rate < max_rate - 1e-3:
        raise ValueError(f"target rate must sit inside (0, {max_rate}), got {target_rate}")

    def f_unif(snr):
        return uniform_rate(constellation, snr, spec) - target_rate

    def f_cap(snr):
        return optimize_capacity(constellation, snr, spec).capacity - target_rate

    snr_unif = bisect_until(f_unif, bracket_db[0], bracket_db[1], ftol=0.0, xtol=SNR_XTOL_DB)
    snr_cap = bisect_until(f_cap, bracket_db[0], bracket_db[1], ftol=0.0, xtol=SNR_XTOL_DB)
    return float(snr_unif - snr_cap)


def theorem_feasibility(p_a, gamma: float, dmc: Dmc, label_map) -> dict:
    """Check H(A) + gamma against the symbol-metric and bit-metric rate limits."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    p_a = np.asarray(p_a, dtype=float)
    p_x = mirror_pmf(p_a)
    h_a = entropy(p_a)
    mi = mutual_information(p_x, dmc)
    r_b = r_bmd(p_x, dmc, label_map)
    target = h_a + gamma
    out = {
        "h_a": float(h_a),
        "gamma": float(gamma),
        "rate": float(target),
        "mi_xy": float(mi),
        "r_bmd": float(r_b),
        "h_x_given_y": float(equivocation(p_x, dmc)),
        "smd_ok": bool(target <= mi + 1e-9),
        "bmd_ok": bool(target <= r_b + 1e-9),
        "smd_slack": float(mi - target),
        "bmd_slack": float(r_b - target),
    }
    return out


def air_sweep(constellation: AskConstellation, snr_grid, spec: AwgnSpec | None = None):
    """optimize_capacity over a grid; yields (snr_db, AirPoint | exception)."""
    for snr in snr_grid:
        try:
            yield snr, optimize_capacity(constellation, snr, spec)
        except (ValueError, ConvergenceError) as exc:
            yield snr, exc
