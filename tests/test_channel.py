import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paslab.alphabets import brgc_label, make_ask
from paslab.channel import Dmc, gaussian_dmc, identity_dmc
from paslab.infomeasures import joint_from_input, label_joint, mutual_information

from oracle import bit_joint_oracle, table_mi_oracle


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
