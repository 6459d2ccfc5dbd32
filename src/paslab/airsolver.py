"""Capacity and rate-split solver for shaped ASK over quantized AWGN.

Convention: noise variance 1, power budget P = 10^(snr_db/10), and SNR is
measured against the distribution under evaluation, so every candidate input
uses the budget exactly. An outer 1-D search runs over the constellation
scale delta. At each scale the amplitudes on the unit grid must carry energy
E = P/delta^2, so one Newton solve with the two equality rows sum(p) = 1 and
sum(p a^2) = E maximises I(X;Y) over the 2^m amplitude masses, and no power
multiplier is searched for. For 4-ASK the two rows pin p outright.

optimize_capacity returns the optimum alone. air_sweep, their only reader,
adds air-sweep's two comparison columns: mi_uniform from uniform_rate, and
r_bmd_star, R_BMD at (p_A*, delta*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabets import AskConstellation, brgc_label
from .channel import AwgnSpec, Dmc, gaussian_dmc
from .errors import ConvergenceError
from .infomeasures import entropy, equivocation, mutual_information, r_bmd
from .optim import bisect_until, brent_max

LN2 = math.log(2.0)
NEWTON_ITER_PER_MASS = 50  # iteration cap per amplitude: each pin or release costs a few; 64-ASK needs up to 32
NEWTON_TOL = 1e-15  # squared Newton decrement (nats): twice the gain left on the face
RELEASE_TOL = 1e-12  # gain per unit mass (nats) a pinned amplitude needs to be released
RELEASE_MASS = 1e-12  # a released mass restarts here; the residual term restores feasibility
FEAS_TOL = 1e-13  # relative constraint residual a solved face may keep
HESS_SHIFT = 1e-13  # relative diagonal shift of the KKT Hessian block
R_FLOOR = 1e-300  # output mass floor: a pinned row alone on a bin sees a huge gain, not log(0)
BASIC_POINT_FTOL = 1e-4
BASIC_POINT_BRACKET_DB = (-4.0, 6.0)
SHAPING_GAP_BRACKET_DB = (-15.0, 35.0)
SNR_XTOL_DB = 1e-3


@dataclass(frozen=True)
class AirPoint:
    """The capacity-achieving input at one SNR."""

    capacity: float
    p_a_star: np.ndarray  # optimal amplitude pmf, ascending amplitudes
    h_a: float
    gamma: float  # capacity - h_a, clamped to [0, 1)
    scale: float  # delta*: the points sit at delta* times the odd integers


def mirror_pmf(p_a) -> np.ndarray:
    """Symmetric symbol pmf p(x) = p(|x|)/2 over the ascending point grid."""
    p = np.asarray(p_a, dtype=float)
    return np.concatenate([p[::-1], p]) / 2.0


def _power(snr_db: float) -> float:
    """Power budget 10^(snr_db/10); ValueError unless it is finite and positive."""
    try:
        power = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        power = math.inf
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(f"snr {snr_db} dB gives no finite positive power budget")
    return power


def _channel(points, delta, spec: AwgnSpec) -> np.ndarray:
    return gaussian_dmc(points * delta, 1.0, spec.num_bins, spec.clip_sigmas).w


def _max_mi_at_energy(w, e, energy):
    """max I(X;Y) on channel w over symmetric inputs whose amplitude masses
    p >= 0 satisfy sum(p) = 1 and p @ e = energy; returns (p, mi_bits).

    Works on the positive-point rows with output bins y and -y merged into v:
    I = sum_j p_j c_j with c_j = sum_y w ln w - v_j . ln(r / mult), r = p @ v
    and mult the number of bins a merged bin holds. Newton runs on the face
    of unpinned masses, with the constraint residual on the KKT right-hand
    side so roundoff cannot drift off the feasible plane. A step that would
    drive a mass negative stops at the boundary and pins it to zero; once a
    face is solved, the pinned mass that most wants to grow is released.
    """
    # the solve keeps the input symmetric, so the problem must be exactly
    # mirror-symmetric too: quantizer edges from linspace are mirror-equal
    # only to roundoff, and across thousands of bins that leaves a genuinely
    # asymmetric gradient (~1e-8) no symmetric iterate can zero
    w = 0.5 * (w + w[::-1, ::-1])
    w = w[w.shape[0] // 2 :]
    neg_row_ent = (w * np.log(np.where(w > 0, w, 1.0))).sum(axis=1)
    half = w.shape[1] // 2  # an odd output count leaves the middle bin unpaired
    v = w[:, : w.shape[1] - half].copy()
    v[:, :half] += w[:, ::-1][:, :half]
    ln_mult = np.where(np.arange(v.shape[1]) < half, LN2, 0.0)
    k = e.size
    # closed-form feasible start: the uniform pmf mixed with the inner or
    # the outer vertex, whichever lies on the far side of the target energy
    vertex = np.eye(k)[0 if energy <= e.mean() else -1]
    t = min(max((energy - vertex @ e) / (e.mean() - vertex @ e), 0.0), 1.0)
    p = t / k + (1.0 - t) * vertex
    a = np.vstack([np.ones(k), e])
    b = np.array([1.0, energy])
    free = p > 0
    best = -math.inf
    for _ in range(NEWTON_ITER_PER_MASS * k):
        r = np.maximum(p @ v, R_FLOOR)
        c = neg_row_ent - v @ (np.log(r) - ln_mult)  # D(w_j || q) in nats
        idx = np.flatnonzero(free)
        if idx.size < 2:
            # a vertex: with two constraint rows it is the only feasible point
            return p, float(p @ c) / LN2
        hess = -(v[idx] / r) @ v[idx].T
        # a relative shift of the diagonal keeps the system regular when rows
        # coincide (few bins, or SNR extremes); I is flat along their
        # difference, and the long step it gets runs into the boundary
        hess += HESS_SHIFT * np.diag(np.diag(hess))
        kkt = np.zeros((idx.size + 2,) * 2)  # filled in place: np.block costs 7x
        kkt[:-2, :-2] = hess
        kkt[:-2, -2:] = a[:, idx].T
        kkt[-2:, :-2] = a[:, idx]
        res = b - a @ p
        try:
            sol = np.linalg.solve(kkt, np.concatenate([-c[idx], res]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular KKT system: {exc}") from exc
        dp, nu = sol[: idx.size], sol[idx.size :]
        if -dp @ hess @ dp < NEWTON_TOL and np.all(np.abs(res) <= FEAS_TOL * b):
            mi = float(p @ c)
            want = np.where(free, -np.inf, c + nu @ a)
            j = int(np.argmax(want))
            if want[j] <= RELEASE_TOL or mi <= best + NEWTON_TOL:
                return p, mi / LN2
            best = mi
            # restart the mass just above zero: a row that owns output bins
            # alone has unbounded slope and curvature at zero, and Newton
            # climbs such a log-shaped ridge from below without overshoot
            p[j] = RELEASE_MASS
            free[j] = True
            continue
        ratio = np.divide(-p[idx], dp, out=np.full(idx.size, np.inf), where=dp < 0)
        block = int(np.argmin(ratio))
        alpha = min(1.0, float(ratio[block]))
        p[idx] = np.maximum(p[idx] + alpha * dp, 0.0)
        if alpha < 1.0:
            # pin the blocking mass instead of shrinking the step, or one
            # blocked symbol stalls all the others
            p[idx[block]] = 0.0
            free[idx[block]] = False
    raise ConvergenceError(f"Newton solve did not converge in {NEWTON_ITER_PER_MASS * k} iterations")


def optimize_capacity(constellation: AskConstellation, snr_db: float, spec: AwgnSpec | None = None) -> AirPoint:
    """Solve max I(X;Y) over symmetric inputs at the given SNR.

    The outer scale search covers every way of trading constellation spread
    against amplitude shaping inside the power budget: a 5-point geometric
    presample picks the best scale, and a bounded Brent search between its
    neighbours refines it. At scale delta the amplitudes must carry energy
    P / delta^2 on the unit grid.
    """
    spec = spec or AwgnSpec()
    power = _power(snr_db)
    points = np.asarray(constellation.points, dtype=float)

    if constellation.size == 2:
        p_a_star = np.array([1.0])
        scale = math.sqrt(power)
        cap = mutual_information(mirror_pmf(p_a_star), _channel(points, scale, spec))
    else:
        e = np.asarray(constellation.amplitudes, dtype=float) ** 2

        def solve(delta: float):
            return _max_mi_at_energy(_channel(points, delta, spec), e, power / delta**2)

        d_lo = math.sqrt(power) / (constellation.size - 1)  # all mass on the outer amplitude
        d_hi = math.sqrt(power)  # all mass on the inner amplitude
        grid = np.geomspace(d_lo, d_hi, 5)
        vals = [solve(d)[1] for d in grid]
        k = int(np.argmax(vals))
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        scale, (p_a_star, cap) = brent_max(solve, lo, hi, xtol=3e-6 * d_hi, key=lambda r: r[1])

    h_a = entropy(p_a_star)
    gamma = min(max(cap - h_a, 0.0), math.nextafter(1.0, 0.0))
    return AirPoint(
        capacity=float(cap), p_a_star=p_a_star, h_a=float(h_a), gamma=float(gamma), scale=float(scale)
    )


def uniform_rate(constellation: AskConstellation, snr_db: float, spec: AwgnSpec | None = None) -> float:
    """I(X;Y) of the uniform input at its own power normalization."""
    spec = spec or AwgnSpec()
    power = _power(snr_db)
    points = np.asarray(constellation.points, dtype=float)
    d = math.sqrt(power / float(np.mean(points**2)))
    w = _channel(points, d, spec)
    p = np.full(constellation.size, 1.0 / constellation.size)
    return mutual_information(p, w)


def find_basic_point(constellation: AskConstellation, spec: AwgnSpec | None = None) -> tuple[float, float]:
    """SNR (dB) and rate where the capacity-achieving H(A) equals capacity.

    Bisects H(A*) - C on snr_db over BASIC_POINT_BRACKET_DB until within
    1e-4 bit; raises ValueError when the bracket shows no crossing (e.g.
    2-ASK, where H(A) is identically 0).
    """
    cache: dict[float, AirPoint] = {}

    def f(snr: float) -> float:
        pt = optimize_capacity(constellation, snr, spec)
        cache[snr] = pt
        return pt.h_a - pt.capacity

    snr = bisect_until(f, *BASIC_POINT_BRACKET_DB, ftol=BASIC_POINT_FTOL)
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
    return pt.h_a, pt.gamma


def shaping_gap(constellation: AskConstellation, target_rate: float, spec: AwgnSpec | None = None) -> float:
    """SNR penalty (dB) of the uniform input against capacity at target_rate,
    each SNR found by bisection over SHAPING_GAP_BRACKET_DB."""
    max_rate = constellation.m + 1
    if not 0.0 < target_rate < max_rate - 1e-3:
        raise ValueError(f"target rate must sit inside (0, {max_rate}), got {target_rate}")

    def f_unif(snr):
        return uniform_rate(constellation, snr, spec) - target_rate

    def f_cap(snr):
        return optimize_capacity(constellation, snr, spec).capacity - target_rate

    snr_unif = bisect_until(f_unif, *SHAPING_GAP_BRACKET_DB, ftol=0.0, xtol=SNR_XTOL_DB)
    snr_cap = bisect_until(f_cap, *SHAPING_GAP_BRACKET_DB, ftol=0.0, xtol=SNR_XTOL_DB)
    return float(snr_unif - snr_cap)


def theorem_feasibility(p_a, gamma: float, dmc: Dmc, labels: np.ndarray) -> dict:
    """Check H(A) + gamma against the symbol-metric and bit-metric rate limits."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    p_a = np.asarray(p_a, dtype=float)
    p_x = mirror_pmf(p_a)
    h_a = entropy(p_a)
    mi = mutual_information(p_x, dmc)
    r_b = r_bmd(p_x, dmc, labels)
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
    """Rate curves over a grid: yields (snr_db, row | exception) per point,
    row being (capacity, H(A*), gamma, mi_uniform, r_bmd_star). R_BMD runs on
    the optimum's channel rebuilt from the winning probe's inputs, so on the
    same channel bit for bit.
    """
    spec = spec or AwgnSpec()
    points = np.asarray(constellation.points, dtype=float)
    labels = brgc_label(constellation)
    for snr in snr_grid:
        try:
            pt = optimize_capacity(constellation, snr, spec)
            r_b = r_bmd(mirror_pmf(pt.p_a_star), _channel(points, pt.scale, spec), labels)
            row = (pt.capacity, pt.h_a, pt.gamma, uniform_rate(constellation, snr, spec), r_b)
        except (ValueError, ConvergenceError) as exc:
            row = exc
        yield snr, row
