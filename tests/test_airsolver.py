import math

import numpy as np
import pytest

import paslab.airsolver
from paslab.alphabets import brgc_label, make_ask
from paslab.airsolver import (
    _channel,
    _max_mi_at_energy,
    _power,
    air_sweep,
    find_basic_point,
    gamma_split,
    mirror_pmf,
    optimize_capacity,
    shaping_gap,
    theorem_feasibility,
    uniform_rate,
)
from paslab.channel import AwgnSpec, gaussian_dmc
from paslab.errors import ConvergenceError
from paslab.infomeasures import entropy, mutual_information, r_bmd
from paslab.optim import brent_max

from oracle import capacity_grid_oracle, golden_max, mb_weights_oracle

# coarse quantizer keeps these tests quick; accuracy tests live in acceptance
FAST = AwgnSpec(num_bins=300)


def test_mirror_fold_roundtrip():
    p_a = np.array([0.6, 0.3, 0.08, 0.02])
    p_x = mirror_pmf(p_a)
    assert p_x.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(p_x, p_x[::-1])
    assert np.allclose(p_x[4:] + p_x[:4][::-1], p_a)  # the amplitude marginal


def test_optimize_capacity_dominates_grid_oracle():
    cst = make_ask(1)
    for snr in (2.0, 7.0):
        pt = optimize_capacity(cst, snr, FAST)

        def rows(pts):
            return gaussian_dmc(pts, 1.0, FAST.num_bins, FAST.clip_sigmas).w.tolist()

        lower = capacity_grid_oracle(
            cst.amplitudes,
            snr,
            rows,
            p1_grid=np.linspace(0.25, 0.5, 26),
            delta_grid=np.linspace(0.2, 2.2, 41),
        )
        assert pt.capacity >= lower - 1e-3
        assert 0.0 <= pt.h_a <= 1.0 + 1e-12
        assert np.allclose(np.sum(pt.p_a_star), 1.0)


@pytest.mark.parametrize("m", [1, 2], ids=["m1", "m2"])
def test_optimize_capacity_mb_is_not_better(m):
    # the solver's optimum should not lose to any Maxwell-Boltzmann profile
    cst = make_ask(m)
    snr = 5.0
    pt = optimize_capacity(cst, snr, FAST)
    power = 10 ** (snr / 10)
    pts = np.asarray(cst.points, dtype=float)
    best = -1.0
    for lam in np.linspace(0.0, 1.5, 31):
        p_x = mirror_pmf(mb_weights_oracle(cst.amplitudes, lam))
        for d in np.linspace(0.3, 1.8, 31):
            if p_x @ (d * pts) ** 2 > power * (1 + 1e-9):
                continue
            w = gaussian_dmc(d * pts, 1.0, FAST.num_bins, FAST.clip_sigmas)
            best = max(best, mutual_information(p_x, w))
    assert pt.capacity >= best - 1e-3


# capacities at FAST from the Blahut-Arimoto solver with power-multiplier
# bisection that the Newton solve replaced; it stopped on a 1e-9-nat duality
# gap, so it can sit up to about 1.4e-9 bit below the optimum
BA_REFERENCE = [
    (1, -2.0, 0.35275448524899966),
    (1, 0.73, 0.5627686748093146),
    (1, 5.0, 1.0218976539456897),
    (1, 9.74, 1.5999208070639452),
    (2, 3.0, 0.7911378722903657),
    (2, 8.0, 1.4337693648853924),
    (2, 14.0, 2.3112025297262706),
    (2, 18.0, 2.777807995816061),
]


@pytest.mark.parametrize("m, snr, ref", BA_REFERENCE, ids=[f"{m}-{snr:g}" for m, snr, _ in BA_REFERENCE])
def test_capacity_matches_parent_reference(m, snr, ref):
    cap = optimize_capacity(make_ask(m), snr, FAST).capacity
    assert ref - 1e-9 <= cap <= ref + 2e-9


def _dense_scale_curve(m, snr, spec):
    """The solver's energy solve over a 49-point geometric grid of scales:
    returns the grid, I(X;Y) at each scale, and the solve itself."""
    cst = make_ask(m)
    power = _power(snr)
    points = np.asarray(cst.points, dtype=float)
    e = np.asarray(cst.amplitudes, dtype=float) ** 2

    def mi(delta):
        return _max_mi_at_energy(_channel(points, delta, spec), e, power / delta**2)[1]

    d_hi = math.sqrt(power)
    grid = np.geomspace(d_hi / (cst.size - 1), d_hi, 49)
    return grid, np.array([mi(d) for d in grid]), mi


def _dense_reference_capacity(m, snr, spec):
    """Capacity from a 49-point scale presample and a golden-section refine
    between the best point's neighbours, at the solver's energy solve."""
    grid, vals, mi = _dense_scale_curve(m, snr, spec)
    k = int(np.argmax(vals))
    return golden_max(mi, grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)], xtol=3e-6 * grid[-1])[1]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_capacity_misses_no_maximum_of_a_dense_search(m):
    # the 5-point presample must find the same peak as a 49-point one
    for snr in (-4.0, 2.0, 8.0, 14.0, 20.0, 24.0):
        cap = optimize_capacity(make_ask(m), snr, FAST).capacity
        assert cap >= _dense_reference_capacity(m, snr, FAST) - 1e-11, snr


@pytest.mark.parametrize("m, snr", [(4, 6.0), (5, 6.0), (6, 2.0)], ids=["32-ask", "64-ask", "128-ask"])
def test_presample_brackets_the_peak_of_a_multimodal_scale_curve(monkeypatch, m, snr):
    # at low SNR, I(X;Y) against the scale has several local maxima for 32- to
    # 128-ASK; the 5-point presample's bracket must hold the best point of a
    # 49-point grid, of which its own 5 points are a subset
    grid, vals, _ = _dense_scale_curve(m, snr, FAST)
    interior = vals[1:-1]
    assert np.sum((interior > vals[:-2]) & (interior >= vals[2:])) >= 2
    brackets = []

    def recording(f, lo, hi, **kwargs):
        brackets.append((lo, hi))
        return brent_max(f, lo, hi, **kwargs)

    monkeypatch.setattr(paslab.airsolver, "brent_max", recording)
    cap = optimize_capacity(make_ask(m), snr, FAST).capacity
    [(lo, hi)] = brackets
    assert lo < grid[np.argmax(vals)] < hi
    assert cap >= vals.max() - 1e-11


@pytest.mark.parametrize("snr", [10.0, 12.0])
def test_energy_solve_converges_where_it_needs_32_iterations_per_mass(snr):
    # 64-ASK at the scale 0.106 sqrt(P), a point of the 49-point grid: the
    # solve pins and releases masses for 31-32 iterations per amplitude
    cst = make_ask(5)
    power = _power(snr)
    d_hi = math.sqrt(power)
    delta = np.geomspace(d_hi / (cst.size - 1), d_hi, 49)[22]
    e = np.asarray(cst.amplitudes, dtype=float) ** 2
    p, mi = _max_mi_at_energy(_channel(np.asarray(cst.points, dtype=float), delta, FAST), e, power / delta**2)
    assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p @ e == pytest.approx(power / delta**2, rel=1e-12)
    assert 0.0 < mi < 6.0


def test_64_ask_capacity_where_the_refine_probes_a_slow_energy_solve():
    # at the default quantizer the refine probes 64-ASK at 10 dB near
    # 0.106 sqrt(P); the reference is the 13-point golden-section solver's
    cap = optimize_capacity(make_ask(5), 10.0).capacity
    assert cap >= 1.7296940037484596 - 1e-11


@pytest.mark.parametrize("m, snr", [(1, 2.0), (1, 9.74), (2, 14.0)], ids=["m1-2", "m1-9.74", "m2-14"])
def test_rates_points_build_few_channels(monkeypatch, m, snr):
    # the benchmark's rates operating points at the default quantizer: every
    # build is a probe of the scale search, and the split reads no rate that
    # only air-sweep prints
    builds, rates = [], []

    def counting(*args, **kwargs):
        builds.append(args)
        return gaussian_dmc(*args, **kwargs)

    def spy(name, f):
        def recording(*args, **kwargs):
            rates.append(name)
            return f(*args, **kwargs)

        monkeypatch.setattr(paslab.airsolver, name, recording)

    monkeypatch.setattr(paslab.airsolver, "gaussian_dmc", counting)
    spy("uniform_rate", uniform_rate)
    spy("r_bmd", r_bmd)
    gamma_split(make_ask(m), snr)
    assert 0 < len(builds) <= 19
    assert rates == []


def test_capacity_monotone_in_snr():
    cst = make_ask(1)
    caps = [optimize_capacity(cst, s, FAST).capacity for s in (-2, 1, 4, 8)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_uniform_rate_below_capacity():
    cst = make_ask(1)
    for snr in (0.0, 3.0, 6.0):
        assert uniform_rate(cst, snr, FAST) <= optimize_capacity(cst, snr, FAST).capacity + 1e-6


def test_airpoint_split_consistency():
    cst = make_ask(1)
    pt = optimize_capacity(cst, 6.0, FAST)
    assert pt.h_a == pytest.approx(entropy(pt.p_a_star), abs=1e-12)
    assert 0.0 <= pt.gamma < 1.0
    # 6 dB sits above the basic point, so the split is exact
    assert pt.capacity == pytest.approx(pt.h_a + pt.gamma, abs=1e-9)


def test_m0_special_case():
    # 2-ASK has a single amplitude: H(A) = 0, capacity all from the sign
    cst = make_ask(0)
    pt = optimize_capacity(cst, 3.0, FAST)
    assert pt.h_a == 0.0
    assert pt.p_a_star == (1.0,)
    assert 0.0 < pt.capacity < 1.0


def test_find_basic_point_coarse():
    cst = make_ask(1)
    snr, rate = find_basic_point(cst, FAST)
    # known location near 0.72 dB / 0.562 bit; loose tolerance at 300 bins
    assert abs(snr - 0.72) < 0.2
    assert abs(rate - 0.562) < 0.02


def test_find_basic_point_no_crossing():
    with pytest.raises(ValueError):
        find_basic_point(make_ask(0), FAST)


def test_gamma_split_sums_to_capacity():
    cst = make_ask(1)
    h_a, gamma = gamma_split(cst, 8.0, FAST)
    pt = optimize_capacity(cst, 8.0, FAST)
    assert h_a + gamma == pytest.approx(pt.capacity, abs=1e-12)
    with pytest.raises(ValueError):
        gamma_split(cst, -3.0, FAST)


def test_shaping_gap_positive_and_bounded():
    cst = make_ask(1)
    gap = shaping_gap(cst, 1.2, FAST)
    assert 0.0 < gap < 1.0
    with pytest.raises(ValueError):
        shaping_gap(cst, 2.5, FAST)


def test_theorem_feasibility_fields():
    cst = make_ask(1)
    d = gaussian_dmc(cst.points, sigma=0.6, num_bins=40)
    label = brgc_label(cst)
    out = theorem_feasibility(np.array([0.6, 0.4]), 0.3, d, label)
    assert set(out) >= {
        "h_a",
        "gamma",
        "rate",
        "mi_xy",
        "r_bmd",
        "smd_ok",
        "bmd_ok",
        "smd_slack",
        "bmd_slack",
    }
    assert out["rate"] == pytest.approx(out["h_a"] + 0.3, abs=1e-12)
    assert out["smd_ok"] == (out["smd_slack"] >= 0)
    with pytest.raises(ValueError):
        theorem_feasibility(np.array([0.6, 0.4]), 1.0, d, label)


def test_air_sweep_reports_failures_inline():
    cst = make_ask(1)
    out = list(air_sweep(cst, [3.0, float("nan")], FAST))
    pt = optimize_capacity(cst, 3.0, FAST)
    cap, h_a, gamma, mi_u, r_b = out[0][1]
    assert (cap, h_a, gamma) == (pt.capacity, pt.h_a, pt.gamma)
    assert mi_u == uniform_rate(cst, 3.0, FAST)
    # R_BMD at the optimum, on the channel of the optimum's scale
    w = gaussian_dmc(np.asarray(cst.points, dtype=float) * pt.scale, 1.0, FAST.num_bins, FAST.clip_sigmas)
    assert r_b == r_bmd(mirror_pmf(pt.p_a_star), w, brgc_label(cst))
    assert r_b <= cap + 1e-9
    assert isinstance(out[1][1], Exception)


def test_air_sweep_deterministic():
    cst = make_ask(1)
    a = list(air_sweep(cst, [1.0, 2.0], FAST))
    b = list(air_sweep(cst, [1.0, 2.0], FAST))
    assert a == b
