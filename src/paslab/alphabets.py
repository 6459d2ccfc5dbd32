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

    @property
    def sign_amplitude_index(self) -> np.ndarray:
        """(2, 2^m) point indices of s * a: row 0 is s = -1, row 1 is s = +1,
        columns follow ascending amplitudes."""
        k = np.arange(self.num_amplitudes)
        return np.stack([self.num_amplitudes - 1 - k, self.num_amplitudes + k])


def make_ask(m: int) -> AskConstellation:
    """Build the 2^(m+1)-ASK constellation; m = 0 is plain BPSK."""
    if not 0 <= m <= MAX_M:
        raise ValueError(f"m must be in [0, {MAX_M}], got {m}")
    return AskConstellation(m)


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

    @property
    def amplitude_bit_matrix(self) -> np.ndarray:
        """(2^m, m) array, row k = bits of amplitudes[k] (the bits of +a)."""
        return self.bit_matrix[self.constellation.sign_amplitude_index[1], 1:]


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
