import numpy as np
import pytest
from hypothesis import given, strategies as st

from paslab.alphabets import brgc_label, make_ask


def test_make_ask_sizes():
    for m in range(0, 7):
        cst = make_ask(m)
        assert cst.size == 2 ** (m + 1)
        assert cst.num_amplitudes == 2**m
        assert cst.points == tuple(range(-cst.size + 1, cst.size, 2))
        assert cst.amplitudes == tuple(range(1, cst.size, 2))


def test_make_ask_rejects_bad_m():
    with pytest.raises(ValueError):
        make_ask(-1)
    with pytest.raises(ValueError):
        make_ask(7)


def test_point_and_amplitude_index():
    cst = make_ask(2)
    for i, a in enumerate(cst.amplitudes):
        for row, s in enumerate((-1, 1)):
            assert cst.sign_amplitude_index[row, i] == cst.points.index(s * a)
    assert cst.sign_amplitude_index.shape == (2, cst.num_amplitudes)


def _assert_sign_amplitude_map(cst):
    # row 0 of the (s, a) -> point map is s = -1, row 1 is s = +1, and
    # together they name every point once
    pts = np.asarray(cst.points)[cst.sign_amplitude_index]
    amps = np.asarray(cst.amplitudes)
    np.testing.assert_array_equal(pts, [-amps, amps])
    assert sorted(cst.sign_amplitude_index.ravel()) == list(range(cst.size))


def test_split_compose_roundtrip():
    _assert_sign_amplitude_map(make_ask(3))


def test_sign_bit_convention():
    # sign bit 0 <-> -1, 1 <-> +1: the map's row is the label's sign bit
    for m in (0, 1, 2):
        cst = make_ask(m)
        idx = cst.sign_amplitude_index
        np.testing.assert_array_equal(brgc_label(cst)[idx, 0], [[0] * 2**m, [1] * 2**m])
        assert (np.asarray(cst.points)[idx[0]] < 0).all()


def test_brgc_label_is_a_read_only_int8_table():
    for m in range(0, 7):
        labels = brgc_label(make_ask(m))
        assert isinstance(labels, np.ndarray)
        assert labels.dtype == np.int8 and labels.shape == (2 ** (m + 1), m + 1)
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0, 0] = 1


def test_brgc_adjacent_labels_differ_in_one_bit():
    for m in (1, 2, 3):
        bm = brgc_label(make_ask(m))
        for i in range(len(bm) - 1):
            assert int(np.sum(bm[i] != bm[i + 1])) == 1


def test_brgc_labels_distinct():
    for m in (0, 1, 2, 4):
        cst = make_ask(m)
        rows = {tuple(r) for r in brgc_label(cst).tolist()}
        assert len(rows) == cst.size


def test_brgc_8ask_full_table():
    # the 8-ASK reference labeling, spelled out point by point
    cst = make_ask(2)
    labels = brgc_label(cst)
    expect = {
        -7: (0, 0, 0),
        -5: (0, 0, 1),
        -3: (0, 1, 1),
        -1: (0, 1, 0),
        1: (1, 1, 0),
        3: (1, 1, 1),
        5: (1, 0, 1),
        7: (1, 0, 0),
    }
    for x, bits in expect.items():
        assert tuple(labels[cst.points.index(x)].tolist()) == bits


def test_brgc_amplitude_bits_sign_invariant():
    # amplitude bits must not depend on the sign, so the amplitude decoder
    # can work per level; the sign bit is 1 exactly on the positive points
    for m in (1, 2, 3):
        cst = make_ask(m)
        bm = brgc_label(cst)
        np.testing.assert_array_equal(bm[:, 1:], bm[::-1, 1:])
        np.testing.assert_array_equal(bm[:, 0], np.asarray(cst.points) > 0)


def test_amplitude_bits_roundtrip():
    # rows M/2 onward, columns 1 onward, are the bits of +a_k; the rows of x
    # and -x agree there, and the rows are distinct, so the bits address
    # each amplitude
    for m in (1, 2, 3):
        cst = make_ask(m)
        labels = brgc_label(cst)
        amp_bits = labels[cst.num_amplitudes :, 1:]
        assert amp_bits.shape == (cst.num_amplitudes, m) and amp_bits.dtype == np.int8
        for k, a in enumerate(cst.amplitudes):
            for x in (a, -a):
                np.testing.assert_array_equal(amp_bits[k], labels[cst.points.index(x), 1:])
        assert len({tuple(r) for r in amp_bits.tolist()}) == cst.num_amplitudes


def test_frozen():
    cst = make_ask(1)
    with pytest.raises(AttributeError):
        cst.size = 3


@given(st.integers(min_value=0, max_value=4))
def test_points_symmetric(m):
    cst = make_ask(m)
    pts = np.asarray(cst.points)
    assert np.array_equal(pts, -pts[::-1])
    assert np.all(np.diff(pts) == 2)


@given(st.integers(min_value=0, max_value=4))
def test_split_compose_random(m):
    _assert_sign_amplitude_map(make_ask(m))
