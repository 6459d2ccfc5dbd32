import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paslab.alphabets import brgc_label, make_ask
from paslab.channel import AwgnSpec, Dmc, gaussian_dmc, gaussian_rows, identity_dmc
from paslab.infomeasures import joint_from_input, label_joint, mutual_information

from oracle import bit_joint_oracle, gaussian_row_oracle, table_mi_oracle


def test_dmc_row_validation():
    with pytest.raises(ValueError):
        Dmc(w=np.array([[0.5, 0.4]]))  # row sums to 0.9
    with pytest.raises(ValueError):
        Dmc(w=np.array([[1.1, -0.1]]))


def test_dmc_rejects_nan_entries():
    # a NaN row sum passes the row-sum tolerance test, so it is caught first
    with pytest.raises(ValueError, match="finite"):
        Dmc(w=np.array([[0.5, np.nan], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        gaussian_dmc((-1.0, 1.0), sigma=0.5, num_bins=4, clip_sigmas=float("nan"))


def test_dmc_renormalizes_drift():
    w = np.array([[0.5 + 1e-14, 0.5 - 2e-14]])
    d = Dmc(w=w)
    assert abs(d.w[0].sum() - 1.0) < 1e-15


def test_identity_dmc():
    d = identity_dmc((-1, 1))
    assert np.array_equal(d.w, np.eye(2))


def test_gaussian_dmc_shapes_and_tails():
    d = gaussian_dmc((-3.0, -1.0, 1.0, 3.0), sigma=0.5, num_bins=10)
    assert d.w.shape == (4, 12)  # num_bins + 2 tails
    assert np.allclose(d.w.sum(axis=1), 1.0)
    # symmetric constellation, symmetric channel
    assert np.allclose(d.w, d.w[::-1, ::-1])
    # most mass near the transmitted point, not in the far tail
    assert d.w[0, -1] < 1e-12


def _ndtr_channel(points, sigma, num_bins, clip_sigmas, centred):
    """The quantized channel built on scipy's ndtr: cdf at each edge, upper
    tail 1 - cdf, clamp at 0 and row normalisation; edges on the grid
    centred at 0, or from linspace(min - clip, max + clip)."""
    ndtr = pytest.importorskip("scipy.special").ndtr
    pts = np.asarray(points, dtype=float)
    if centred:
        half = np.abs(pts).max() + clip_sigmas * sigma
        edges = (np.arange(num_bins + 1) - num_bins / 2) * (2.0 * half / num_bins)
    else:
        edges = np.linspace(pts.min() - clip_sigmas * sigma, pts.max() + clip_sigmas * sigma, num_bins + 1)
    cdf = ndtr((edges[None, :] - pts[:, None]) / sigma)
    w = np.empty((len(pts), num_bins + 2))
    w[:, 0] = cdf[:, 0]
    w[:, 1:-1] = np.diff(cdf, axis=1)
    w[:, -1] = 1.0 - cdf[:, -1]
    w = np.maximum(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return Dmc(w=w).w


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_gaussian_dmc_matches_ndtr_channel(m):
    # only the tail values move, by a few ulp: the zero pattern (cells whose
    # cdf underflows, or rounds to 1, at both edges) is the ndtr channel's,
    # also on the linspace grid the channel used before its edges were
    # centred. The tolerance holds only on the same grid: at sigma 0.02 the
    # edges' last-bit difference alone moves cells by 3e-13 relative
    points = make_ask(m).points
    for sigma, bins, clip in itertools.product((0.02, 0.1, 0.45, 1.0, 3.0), (2, 3, 8, 101, 2000), (0.0, 2.0, 6.0, 20.0)):
        got = gaussian_dmc(points, sigma, bins, clip).w
        want = _ndtr_channel(points, sigma, bins, clip, centred=True)
        np.testing.assert_array_equal(got == 0, want == 0)
        assert np.all(np.abs(got - want) <= 1e-13 * want + 5e-16), (sigma, bins, clip)
        np.testing.assert_array_equal(got == 0, _ndtr_channel(points, sigma, bins, clip, centred=False) == 0)


def _assert_rows_match(mags, sigma, bins, clip):
    """gaussian_rows against the math.erfc oracle on every point, each sign,
    and against the symmetrised gaussian_dmc; returns the rows."""
    w = gaussian_rows(mags, sigma, bins, clip)
    pts = np.concatenate([-mags[::-1], mags])
    full = np.vstack([w[::-1, ::-1], w])
    for row, x in zip(full, pts.tolist()):
        want = np.array(gaussian_row_oracle(x, mags[-1], sigma, bins, clip))
        # the edges are symmetric about 0: the row of -x is the row of x reversed
        mirror = np.array(gaussian_row_oracle(-x, mags[-1], sigma, bins, clip))
        np.testing.assert_array_equal(mirror, want[::-1])
        big = want >= 1e-300
        assert np.all(np.abs(row - want)[big] <= 1e-12 * want[big]), (x, bins)
        assert np.all(row[~big] < 1e-290)
    dmc = gaussian_dmc(pts, sigma, bins, clip).w
    assert np.abs(full - 0.5 * (dmc + dmc[::-1, ::-1])).max() <= 1e-15
    return w


@pytest.mark.parametrize("m", [1, 2, 3], ids=["4-ask", "8-ask", "16-ask"])
def test_gaussian_rows_match_the_erfc_oracle(m):
    # every cell within 1e-12 relative of nearer-tail math.erfc differences;
    # the symmetrised gaussian_dmc is off by up to 4.4e-5 on cells >= 1e-12,
    # from the cells that take 1 - cdf
    points = np.asarray(make_ask(m).points, dtype=float)
    for bins, scale in itertools.product((2, 7, 300, 2000), (0.05, 0.4, 1.0, 2.5)):
        pts = points * scale
        w = _assert_rows_match(pts[pts.size // 2 :], 1.0, bins, AwgnSpec.clip_sigmas)
        assert w.shape == (pts.size // 2, bins + 2) and not w.flags.writeable
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-15)


def test_gaussian_rows_hold_a_point_past_the_last_edge():
    # at clip_sigmas 0 rounding can put the outer point past the last edge, so
    # the upper tail bin holds it
    delta = 8.472295714961787
    mags = np.array([delta, 3 * delta])
    edges = (np.arange(750) - 749 / 2) * (2.0 * mags[-1] / 749)
    assert edges[-1] < mags[-1]
    w = _assert_rows_match(mags, 1.0, 749, 0.0)
    assert w[1, -1] == pytest.approx(0.5, abs=1e-3)


def test_gaussian_rows_with_an_edge_on_each_point():
    # edges at the integers -4..4: each point sits on one, no cell holds it,
    # and the cells on either side of it carry half the mass each
    w = _assert_rows_match(np.array([1.0, 3.0]), 1.0, 8, 1.0)
    for row, edge in zip(w, (5, 7)):  # cells 0..edge end at or below the point
        assert row[: edge + 1].sum() == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=20.0),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=800),
)
def test_gaussian_rows_at_zero_clip_match_the_symmetrised_channel(delta, m, bins):
    points = np.asarray(make_ask(m).points, dtype=float) * delta
    mags = points[points.size // 2 :]
    w = gaussian_rows(mags, 1.0, bins, 0.0)
    dmc = gaussian_dmc(points, 1.0, bins, 0.0).w
    assert np.abs(np.vstack([w[::-1, ::-1], w]) - 0.5 * (dmc + dmc[::-1, ::-1])).max() <= 1e-15
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-15)


def test_gaussian_rows_arg_checks():
    # a range past the largest float has no finite edges; the rate commands
    # report it as the full channel's finite check did
    with pytest.raises(ValueError, match="channel transition probabilities must be finite"):
        gaussian_rows([1.0, 3.0], 1.0, 8, 1e308)
    with pytest.raises(ValueError, match="clip_sigmas"):
        gaussian_rows([1.0, 3.0], 1.0, 8, float("nan"))
    with pytest.raises(ValueError, match="num_bins"):
        gaussian_rows([1.0, 3.0], 1.0, 1)
    for sigma in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_rows([1.0, 3.0], sigma, 8)
    for mags in ([], [0.0, 1.0], [3.0, 1.0], [1.0, 1.0], [1.0, float("nan"), 3.0], [[1.0, 3.0]]):
        with pytest.raises(ValueError, match="ascending"):
            gaussian_rows(mags, 1.0, 8)


def test_gaussian_dmc_arg_checks():
    with pytest.raises(ValueError):
        gaussian_dmc((-1, 1), sigma=0.0, num_bins=4)
    with pytest.raises(ValueError):
        gaussian_dmc((-1, 1), sigma=1.0, num_bins=1)


def test_refinement_ladder_monotone():
    # finer output quantization can only add information
    cst = make_ask(1)
    p = np.full(4, 0.25)
    last = -1.0
    for bins in (4, 8, 16, 64, 256):
        d = gaussian_dmc(cst.points, sigma=1.0, num_bins=bins)
        mi = mutual_information(p, d)
        assert mi >= last - 1e-9
        last = mi


def test_label_joint_level_prior():
    cst = make_ask(1)
    labels = brgc_label(cst)
    d = gaussian_dmc(cst.points, sigma=0.8, num_bins=16)
    p_x = np.array([0.1, 0.4, 0.4, 0.1])
    # level 1 is the first amplitude bit: 1 on |x|=1, 0 on |x|=3
    c1y = label_joint(joint_from_input(p_x, d), labels).sum(axis=0)
    want = np.array(bit_joint_oracle(p_x.tolist(), d.w.tolist(), labels.tolist(), 1))
    assert np.allclose(c1y, want, rtol=0, atol=1e-15)
    assert c1y.sum(axis=1) == pytest.approx([0.2, 0.8], abs=1e-12)


def test_label_joint_margins_match_direct_mi():
    cst = make_ask(2)
    labels = brgc_label(cst)
    d = gaussian_dmc(cst.points, sigma=1.1, num_bins=30)
    rng = np.random.default_rng(3)
    p_x = rng.dirichlet(np.ones(8))
    labelled = label_joint(joint_from_input(p_x, d), labels)
    for level in range(3):
        cy = labelled.sum(axis=tuple(k for k in range(3) if k != level))
        got = mutual_information(cy.sum(axis=1), cy / cy.sum(axis=1, keepdims=True))
        # oracle: lump x-rows by bit value
        want = table_mi_oracle(bit_joint_oracle(p_x.tolist(), d.w.tolist(), labels.tolist(), level))
        assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.integers(min_value=2, max_value=40),
)
def test_gaussian_rows_always_normalized(sigma, bins):
    d = gaussian_dmc((-1.0, 1.0), sigma=sigma, num_bins=bins)
    assert np.allclose(d.w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(d.w >= 0)
