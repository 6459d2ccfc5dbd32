"""ASK constellations, sign/amplitude factorization and reflected Gray labels.

An M-ASK constellation (M = 2^(m+1)) uses the odd integer grid
{-M+1, ..., -1, +1, ..., M-1}. Every point factors as x = s * a with
sign s in {-1, +1} and amplitude a in {1, 3, ..., M-1}. The labels are one
read-only (M, m+1) bit table, a row per point: one sign bit (convention:
0 <-> -1, 1 <-> +1) and m amplitude bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_M = 6  # 128-ASK; larger grids are outside desk scale


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


def brgc_label(constellation: AskConstellation) -> np.ndarray:
    """Binary reflected Gray labeling over the ascending point grid, as the
    read-only (M, m+1) int8 table whose row i labels points[i].

    Point i gets the (m+1)-bit Gray codeword of i, most significant bit first.
    The reflection makes column 0 the sign bit and leaves columns 1..m equal
    for x and -x, so rows M/2 onward, columns 1 onward, are the amplitude
    bits of ascending amplitudes.
    """
    i = np.arange(constellation.size)
    labels = (((i ^ (i >> 1))[:, None] >> np.arange(constellation.m, -1, -1)) & 1).astype(np.int8)
    labels.flags.writeable = False
    return labels
