import numpy as np
import pytest
from hypothesis import given, strategies as st

from paslab.alphabets import (
    AskConstellation,
    bit_to_sign,
    brgc_label,
    compose_point,
    make_ask,
    sign_to_bit,
    split_point,
)


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
    for i, x in enumerate(cst.points):
        assert cst.point_index(x) == i
    for i, a in enumerate(cst.amplitudes):
        assert cst.amplitude_index(a) == i
        for row, s in enumerate((-1, 1)):
            assert cst.sign_amplitude_index[row, i] == cst.point_index(s * a)
    assert cst.sign_amplitude_index.shape == (2, cst.num_amplitudes)
    with pytest.raises(ValueError):
        cst.point_index(0)


def test_split_compose_roundtrip():
    cst = make_ask(3)
    for x in cst.points:
        s, a = split_point(x)
        assert s in (-1, 1) and a in cst.amplitudes
        assert compose_point(s, a) == x
        assert s * a == x


def test_sign_bit_convention():
    # sign bit 0 <-> -1, 1 <-> +1
    assert sign_to_bit(-1) == 0
    assert sign_to_bit(1) == 1
    assert bit_to_sign(0) == -1
    assert bit_to_sign(1) == 1


def test_brgc_adjacent_labels_differ_in_one_bit():
    for m in (1, 2, 3):
        label = brgc_label(make_ask(m))
        bm = label.bit_matrix
        for i in range(len(bm) - 1):
            assert int(np.sum(bm[i] != bm[i + 1])) == 1


def test_brgc_labels_distinct():
    for m in (0, 1, 2, 4):
        label = brgc_label(make_ask(m))
        rows = {tuple(r) for r in label.bit_matrix}
        assert len(rows) == label.constellation.size


def test_brgc_8ask_full_table():
    # the 8-ASK reference labeling, spelled out point by point
    label = brgc_label(make_ask(2))
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
        i = label.constellation.point_index(x)
        assert tuple(label.bit_matrix[i]) == bits
        sign, amp_bits = label.label_of(x)
        assert sign == bit_to_sign(bits[0])
        assert amp_bits == bits[1:]
        assert label.point_of(sign, amp_bits) == x


def test_brgc_amplitude_bits_sign_invariant():
    # amplitude bits must not depend on the sign, so the amplitude decoder
    # can work per level
    for m in (1, 2, 3):
        label = brgc_label(make_ask(m))
        for x in label.constellation.points:
            sign, amp_bits = label.label_of(x)
            if x > 0:
                assert amp_bits == label.label_of(-x)[1]
            assert sign == (1 if x > 0 else -1)


def test_amplitude_bits_roundtrip():
    for m in (1, 2, 3):
        label = brgc_label(make_ask(m))
        for ai, a in enumerate(label.constellation.amplitudes):
            bits = label.bits_of_amplitude(a)
            assert label.amplitude_of_bits(bits) == a
            assert tuple(label.amplitude_bit_matrix[ai]) == bits


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


@given(st.integers(min_value=0, max_value=4), st.data())
def test_split_compose_random(m, data):
    cst = make_ask(m)
    x = data.draw(st.sampled_from(cst.points))
    s, a = split_point(x)
    assert compose_point(s, a) == x
