"""ASK constellations, sign/amplitude factorization and reflected Gray labels.

An M-ASK constellation (M = 2^(m+1)) uses the odd integer grid
{-M+1, ..., -1, +1, ..., M-1}. Every point factors as x = s * a with
sign s in {-1, +1} and amplitude a in {1, 3, ..., M-1}. Labels carry one
sign bit (convention: 0 <-> -1, 1 <-> +1) and m amplitude bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_M = 6  # 128-ASK; larger grids are outside desk scale


def _gray(k: int) -> int:
    return k ^ (k >> 1)


@dataclass(frozen=True)
class AskConstellation:
    """Odd-integer ASK grid with its sign/amplitude factorization."""

    m: int  # amplitude bits per symbol; M = 2^(m+1) points

    @property
    def size(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def points(self) -> tuple[int, ...]:
        M = self.size
        return tuple(range(-M + 1, M, 2))

    @property
    def amplitudes(self) -> tuple[int, ...]:
        return tuple(range(1, self.size, 2))

    @property
    def num_amplitudes(self) -> int:
        return 2**self.m

    def point_index(self, x: int) -> int:
        M = self.size
        if x % 2 == 0 or not -M < x < M:
            raise ValueError(f"{x} is not a point of {M}-ASK")
        return (x + M - 1) // 2

    @property
    def sign_amplitude_index(self) -> np.ndarray:
        """(2, 2^m) point indices of s * a: row 0 is s = -1, row 1 is s = +1,
        columns follow ascending amplitudes."""
        k = np.arange(self.num_amplitudes)
        return np.stack([self.num_amplitudes - 1 - k, self.num_amplitudes + k])

    def amplitude_index(self, a: int) -> int:
        if a % 2 == 0 or not 0 < a < self.size:
            raise ValueError(f"{a} is not an amplitude of {self.size}-ASK")
        return (a - 1) // 2


def make_ask(m: int) -> AskConstellation:
    """Build the 2^(m+1)-ASK constellation; m = 0 is plain BPSK."""
    if not 0 <= m <= MAX_M:
        raise ValueError(f"m must be in [0, {MAX_M}], got {m}")
    return AskConstellation(m)


def split_point(x: int) -> tuple[int, int]:
    """Factor a grid point into (sign, amplitude)."""
    if x == 0 or x % 2 == 0:
        raise ValueError(f"{x} is not an odd grid point")
    return (1 if x > 0 else -1), abs(x)


def compose_point(s: int, a: int) -> int:
    """Inverse of split_point."""
    if s not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {s}")
    if a <= 0 or a % 2 == 0:
        raise ValueError(f"amplitude must be a positive odd integer, got {a}")
    return s * a


def sign_to_bit(s: int) -> int:
    return {-1: 0, 1: 1}[s]


def bit_to_sign(b: int) -> int:
    return {0: -1, 1: 1}[b]


@dataclass(frozen=True)
class LabelMap:
    """Per-point binary labels: bit 0 is the sign bit, bits 1..m address the amplitude.

    `bits[i]` is the label of `constellation.points[i]`. The amplitude bits of x
    and -x agree, so the label splits into an independent sign level and a shared
    amplitude address.
    """

    constellation: AskConstellation
    bits: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return self.constellation.m

    @property
    def bit_matrix(self) -> np.ndarray:
        """(M, m+1) array of labels, row order = ascending points."""
        return np.array(self.bits, dtype=np.int8)

    def label_of(self, x: int) -> tuple[int, tuple[int, ...]]:
        """Return (sign, amplitude bit tuple) for a grid point."""
        row = self.bits[self.constellation.point_index(x)]
        return bit_to_sign(row[0]), row[1:]

    def point_of(self, s: int, b: tuple[int, ...]) -> int:
        return compose_point(s, self.amplitude_of_bits(b))

    def amplitude_of_bits(self, b) -> int:
        """Amplitude addressed by an m-bit tuple (the f(.) map of the bit layer)."""
        key = tuple(int(v) for v in b)
        try:
            return self._bits_to_amp[key]
        except KeyError:
            raise ValueError(f"{b} is not an m-bit amplitude address") from None

    def bits_of_amplitude(self, a: int) -> tuple[int, ...]:
        i = self.constellation.point_index(a)  # positive points carry sign bit 1
        return self.bits[i][1:]

    @property
    def amplitude_bit_matrix(self) -> np.ndarray:
        """(2^m, m) array, row k = bits of amplitudes[k]."""
        amps = self.constellation.amplitudes
        return np.array([self.bits_of_amplitude(a) for a in amps], dtype=np.int8)

    @property
    def _bits_to_amp(self) -> dict:
        amps = self.constellation.amplitudes
        return {self.bits_of_amplitude(a): a for a in amps}


def brgc_label(constellation: AskConstellation) -> LabelMap:
    """Binary reflected Gray labeling over the ascending point grid.

    Point i gets the (m+1)-bit Gray codeword of i, most significant bit first.
    The reflection property makes the leading bit the sign bit and leaves the
    trailing m bits mirror-symmetric, i.e. equal for x and -x.
    """
    M = constellation.size
    width = constellation.m + 1
    bits = tuple(
        tuple((_gray(i) >> (width - 1 - j)) & 1 for j in range(width)) for i in range(M)
    )
    return LabelMap(constellation, bits)
