"""Discrete memoryless channels, AWGN bin quantization and bit-level subchannels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .erfc import half_erfc

ROW_TOL = 1e-12


@dataclass(frozen=True)
class AwgnSpec:
    """Quantizer settings for a real AWGN channel.

    num_bins uniform bins cover [-r, r] with r = max|x| + clip_sigmas*sigma,
    on a grid centred at 0 (edges (i - num_bins/2) * 2r/num_bins, so edge
    num_bins - i is exactly minus edge i); two extra unbounded tail bins catch
    the rest, so the output alphabet has num_bins + 2 letters.
    """

    num_bins: int = 2000
    clip_sigmas: float = 6.0


@dataclass(frozen=True)
class Dmc:
    """Finite-input finite-output channel as a row-stochastic matrix."""

    w: np.ndarray  # (nin, nout), rows sum to 1

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError("w must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("channel transition probabilities must be finite")
        if np.any(w < 0):
            raise ValueError("transition probabilities must be non-negative")
        rows = w.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_TOL):
            raise ValueError("rows of w must each sum to 1")
        w = w / rows[:, None]  # remove residual float drift
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def nin(self) -> int:
        return self.w.shape[0]

    @property
    def nout(self) -> int:
        return self.w.shape[1]


def identity_dmc(points) -> Dmc:
    """Noiseless channel: output index reveals the input exactly."""
    return Dmc(w=np.eye(len(points)))


def gaussian_dmc(points, sigma: float, num_bins: int, clip_sigmas: float = AwgnSpec.clip_sigmas) -> Dmc:
    """Quantize y = x + N(0, sigma^2) onto a uniform bin grid plus two tails.

    Each row is the cdf F at every edge, differenced: the lower tail bin is
    F at the first edge, the upper one 1 - F at the last. F comes from the
    tail T = erfc(|z|) / 2 at z = (edge - x) / (sigma sqrt 2): F = T below x
    and 1 - T above. Since the edges are symmetric about 0, the z of -x at
    edge i is minus the z of x at edge num_bins - i, so T is evaluated once
    per distinct |x| and read reversed for the negative point.
    """
    if num_bins < 2:
        raise ValueError(f"num_bins must be >= 2, got {num_bins}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"noise sigma must be positive and finite, got {sigma}")
    pts = np.asarray(points, dtype=float)
    mags = np.unique(np.abs(pts))
    half = mags[-1] + clip_sigmas * sigma
    edges = (np.arange(num_bins + 1) - num_bins / 2) * (2.0 * half / num_bins)
    # one row of |z| per |x|, and how many edges lie below and above that |x|
    # (the edges rise, so those come first and last)
    below = np.searchsorted(edges, mags, side="left")
    above = num_bins + 1 - np.searchsorted(edges, mags, side="right")
    z = np.abs(edges - mags[:, None])
    z /= sigma * math.sqrt(2.0)
    tail = half_erfc(z)
    upper = 1.0 - tail
    # cdf framed by 0 and 1: the tail bins (-inf, edges[0]) and (edges[-1], inf)
    # are its first and last differences
    cdf = np.empty((len(pts), num_bins + 3))
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    group = np.searchsorted(mags, np.abs(pts))
    for row, x, j in zip(cdf[:, 1:-1], pts.tolist(), group.tolist()):
        if x < 0:
            t, u, n = tail[j, ::-1], upper[j, ::-1], above[j]
        else:
            t, u, n = tail[j], upper[j], below[j]
        row[:n], row[n:] = t[:n], u[n:]
    w = np.diff(cdf, axis=1)
    np.maximum(w, 0.0, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return Dmc(w=w)


def bit_channel(dmc: Dmc, labels: np.ndarray, input_pmf, level: int):
    """Marginalize a symbol channel onto one label level, a column of the
    (nin, m+1) label table (`alphabets.brgc_label`).

    Level 0 is the sign bit, levels 1..m are amplitude bits. Returns
    (prior over {0,1}, 2 x nout transition matrix p(y | c_level)); the
    transition row for a bit value of prior zero is left as zeros.
    """
    p = np.asarray(input_pmf, dtype=float)
    if p.shape != (dmc.nin,):
        raise ValueError("input_pmf must have one entry per channel input")
    if dmc.nin != labels.shape[0]:
        raise ValueError("label table and channel sizes disagree")
    if not 0 <= level < labels.shape[1]:
        raise ValueError(f"level must be in [0, {labels.shape[1] - 1}], got {level}")
    col = labels[:, level]
    prior = np.array([p[col == 0].sum(), p[col == 1].sum()])
    trans = np.zeros((2, dmc.nout))
    for b in (0, 1):
        if prior[b] > 0:
            trans[b] = (p[col == b] @ dmc.w[col == b]) / prior[b]
    return prior, trans
