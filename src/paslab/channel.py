"""Discrete memoryless channels, AWGN bin quantization, and the one sampler
of a channel's outputs (`sample_outputs`), which both the sign-coding
experiment and the Monte Carlo conditional typicality estimate draw with.

One quantizer (`_edge_tails`) serves two channels. `gaussian_dmc` is the full
channel that typicality and `sim` read; it takes its far cells as 1 - cdf,
so a few cancel to 0 where their mirror cells are positive. `gaussian_rows`
gives the rows of the positive points with every cell from the tail on its
own side of the point, so the row of -x is exactly the row of x reversed;
the rate solver reads those."""

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

    def __post_init__(self):
        if self.num_bins < 2:
            raise ValueError(f"num_bins must be >= 2, got {self.num_bins}")
        if not (math.isfinite(self.clip_sigmas) and self.clip_sigmas >= 0):
            raise ValueError(f"clip_sigmas must be finite and >= 0, got {self.clip_sigmas}")


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


def _edge_tails(mags, sigma: float, num_bins: int, clip_sigmas: float):
    """The quantizer of `AwgnSpec` around the ascending magnitudes mags: the
    Gaussian tail T = erfc(|z|) / 2 at every edge for each magnitude x, with
    z = (edge - x) / (sigma sqrt 2), and the numbers of edges below and
    above x (the edges rise, so those come first and last). Runs the
    quantizer's and the noise's checks, and rejects a range whose edges
    overflow."""
    AwgnSpec(num_bins, clip_sigmas)  # the quantizer's one check
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"noise sigma must be positive and finite, got {sigma}")
    half = float(mags[-1]) + clip_sigmas * float(sigma)
    step = 2.0 * half / num_bins  # Python floats: an overflow is inf, not a warning
    if not math.isfinite(step):
        raise ValueError(f"channel transition probabilities must be finite; the bin edges on ±{half:g} are not")
    edges = (np.arange(num_bins + 1) - num_bins / 2) * step
    z = np.abs(edges - mags[:, None])
    z /= sigma * math.sqrt(2.0)
    below = np.searchsorted(edges, mags, side="left")
    above = num_bins + 1 - np.searchsorted(edges, mags, side="right")
    return half_erfc(z), below, above


def gaussian_dmc(points, sigma: float, num_bins: int, clip_sigmas: float = AwgnSpec.clip_sigmas) -> Dmc:
    """Quantize y = x + N(0, sigma^2) onto a uniform bin grid plus two tails.

    Each row is the cdf F at every edge, differenced: the lower tail bin is
    F at the first edge, the upper one 1 - F at the last. F comes from the
    tail T of `_edge_tails`: F = T below x and 1 - T above, so a cell far
    above x can cancel to 0 where its mirror cell is positive. Since the
    edges are symmetric about 0, the z of -x at edge i is minus the z of x
    at edge num_bins - i, so T is evaluated once per distinct |x| and read
    reversed for the negative point. The sign-output tables of typicality
    and `sim` read this channel; the rate solver reads `gaussian_rows`.
    """
    pts = np.asarray(points, dtype=float)
    mags = np.unique(np.abs(pts))
    tail, below, above = _edge_tails(mags, sigma, num_bins, clip_sigmas)
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
    return Dmc(w)


def gaussian_rows(mags, sigma: float, num_bins: int, clip_sigmas: float = AwgnSpec.clip_sigmas) -> np.ndarray:
    """W(y | x) on `gaussian_dmc`'s quantizer, one read-only row per x of the
    ascending positive mags, each from the tail on its own side of x.

    With T_b the tail at edge b and T = 0 past either end, a cell below x is
    T_b - T_{b-1}, a cell above x is T_{b-1} - T_b and the cell that holds x,
    cell b with edge b the first at or above x (the upper tail bin when
    rounding puts x past the last edge), is (1 - T_b) - T_{b-1}. An edge on
    x has T_b = 1/2 exactly, so there the last two forms agree. No cell
    takes 1 - cdf, so none cancels, and since the edges are symmetric about
    0 the row of -x is exactly this row reversed: the channel of the points
    -mags[::-1], mags is np.vstack([w[::-1, ::-1], w]).
    """
    mags = np.asarray(mags, dtype=float)
    if mags.ndim != 1 or not mags.size or not (mags[0] > 0 and np.all(mags[1:] > mags[:-1])):
        raise ValueError("mags must be a non-empty ascending array of positive magnitudes")
    tail, below, _ = _edge_tails(mags, sigma, num_bins, clip_sigmas)
    # the tails framed by 0: cell b lies between entries b and b + 1, so the
    # difference is T_b - T_{b-1}, negated for the cells past the one holding x
    framed = np.zeros((mags.size, num_bins + 3))
    framed[:, 1:-1] = tail
    w = np.diff(framed, axis=1)
    np.negative(w, out=w, where=np.arange(num_bins + 2) > below[:, None])
    rows = np.arange(mags.size)
    w[rows, below] = (1.0 - framed[rows, below + 1]) - framed[rows, below]
    np.maximum(w, 0.0, out=w)
    w /= w.sum(axis=1, keepdims=True)
    w.setflags(write=False)
    return w


def sample_outputs(cdf_rows: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Output letter per entry of x for the uniform draw at the same place of
    u: the number of entries of row x of cdf_rows (a channel's rows, each
    cumulatively summed) below u, capped at the last letter.

    An entry equal to u is not counted, as searchsorted(side="left") counts,
    so letter k takes the draws in (cdf[k - 1], cdf[k]]; a draw lands on an
    entry exactly with probability 0. A row is non-decreasing, so one
    branchless binary search runs over every entry's own row at once. It
    searches the entries before the last letter, whose count is the cap."""
    nout = cdf_rows.shape[1]
    flat = cdf_rows.ravel()
    start = x * nout
    pos = start.copy()  # the count sought lies in [pos - start, pos - start + span]
    span = nout - 1
    while span > 1:
        half = span >> 1
        pos += half * (flat[half - 1 :][pos] < u)  # entry pos + half - 1, without an offset array
        span -= half
    if span:
        pos += flat[pos] < u
    return pos - start
