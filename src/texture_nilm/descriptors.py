"""LBP and WLD texture histograms over quantized 2D matrices.

Both descriptors read 3x3 patches around every interior cell. The local
binary pattern thresholds the 8 neighbors against the center and packs the
bits into a code 0..255. The Weber local descriptor pairs a differential
excitation (arctangent of the summed relative neighbor deviations) with the
gradient orientation of the vertical/horizontal difference vector; the two
are jointly binned into a 256-bin histogram.

Border cells are skipped rather than padded, so a raw histogram's total is
exactly (rows-2)*(cols-2). Both take one window or a stack, one histogram each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .transform2d import Matrix2D

HISTOGRAM_BINS = 256
TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0

# 3x3 neighbor ring, clockwise from the top-left neighbor. Bit n of the LBP
# code and position n of the WLD ring sum both follow this order. The ring
# places top/bottom at positions 1/5 and right/left at 3/7, so the gradient
# differences below are bottom-minus-top and left-minus-right.
NEIGHBOR_OFFSETS = (
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
)


@dataclass(frozen=True)
class DescriptorConfig:
    """WLD binning parameters; the patch is always 3x3 with 8 neighbors.

    ``orientation_bins`` must divide 256, and ``excitation_bins`` is the
    quotient, so the joint WLD histogram matches the LBP histogram length.
    ``epsilon`` guards the excitation ratio when a quantized center cell is 0.
    """

    orientation_bins: int = 8
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        bins = self.orientation_bins
        if not 1 <= bins <= HISTOGRAM_BINS or HISTOGRAM_BINS % bins:
            raise InvalidConfig(
                f"orientation_bins must be a positive divisor of {HISTOGRAM_BINS}, got {bins}"
            )
        if not self.epsilon > 0:
            raise InvalidConfig("epsilon must be positive")

    @property
    def excitation_bins(self) -> int:
        return HISTOGRAM_BINS // self.orientation_bins


@dataclass
class DescriptorHistogram:
    """256-bin histograms, one window's ``(256,)`` or a stack's ``(W, 256)``.

    ``bins`` may hold any finite, non-negative numbers; the two extractors
    below fill it with raw integer counts, one vote per interior cell.
    """

    bins: np.ndarray

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins)
        if self.bins.ndim not in (1, 2) or self.bins.shape[-1] != HISTOGRAM_BINS:
            raise ValueError(f"histogram must have exactly {HISTOGRAM_BINS} bins")
        if not np.all(np.isfinite(self.bins)) or self.bins.min() < 0:
            raise ValueError("bins must be finite and non-negative")


def _histograms(index: np.ndarray) -> np.ndarray:
    """One 256-bin count per matrix of a ``(..., r, c)`` array of bin indices."""
    rows = index.reshape(-1, index.shape[-2] * index.shape[-1])
    offset = np.arange(len(rows))[:, None] * HISTOGRAM_BINS
    bins = np.bincount((rows + offset).ravel(), minlength=len(rows) * HISTOGRAM_BINS)
    return bins.reshape(index.shape[:-2] + (HISTOGRAM_BINS,))


def lbp_histogram(m: Matrix2D) -> DescriptorHistogram:
    """Histogram of LBP codes over all interior cells, one per matrix.

    Neighbor n contributes bit n of a cell's code when its value is >= the
    center (ties count as 1), walking the ring clockwise from the top-left.
    """
    g = m.cells
    center = g[..., 1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.int64)
    for bit, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        nb = g[..., 1 + dr : m.rows - 1 + dr, 1 + dc : m.cols - 1 + dc]
        codes |= (nb >= center).astype(np.int64) << bit
    return DescriptorHistogram(_histograms(codes))


def wld_histogram(m: Matrix2D, cfg: DescriptorConfig) -> DescriptorHistogram:
    """Joint orientation-by-excitation WLD histogram per matrix, in 256 bins.

    Excitation is arctan(sum(neighbor - center) / max(center, epsilon)); the
    epsilon guard is needed because quantization can produce centers of 0 even
    after zero repair. Orientation is the angle of (bottom-minus-top,
    left-minus-right) mapped to [0, 2*pi), with the zero vector at 0.

    Orientation is cut into ``cfg.orientation_bins`` uniform bins over
    [0, 2*pi) and excitation into ``cfg.excitation_bins`` uniform bins over
    [-pi/2, pi/2]; the joint cell votes at index
    ``orientation_bin * excitation_bins + excitation_bin``.
    """
    g = m.cells
    center = g[..., 1:-1, 1:-1]
    ring = np.zeros(center.shape, dtype=np.int64)
    for dr, dc in NEIGHBOR_OFFSETS:
        ring += g[..., 1 + dr : m.rows - 1 + dr, 1 + dc : m.cols - 1 + dc]
    denom = np.maximum(center.astype(np.float64), cfg.epsilon)
    excitation = np.arctan((ring - 8 * center) / denom)

    vertical = (g[..., 2:, 1:-1] - g[..., :-2, 1:-1]).astype(np.float64)
    horizontal = (g[..., 1:-1, :-2] - g[..., 1:-1, 2:]).astype(np.float64)
    orientation = np.arctan2(vertical, horizontal)
    orientation = np.where(orientation < 0.0, orientation + TWO_PI, orientation)
    # adding 2*pi to a tiny negative angle can round to exactly 2*pi
    orientation = np.where(orientation >= TWO_PI, 0.0, orientation)

    t = np.minimum(
        (orientation / TWO_PI * cfg.orientation_bins).astype(np.int64),
        cfg.orientation_bins - 1,
    )
    e = np.clip(
        ((excitation + HALF_PI) / math.pi * cfg.excitation_bins).astype(np.int64),
        0,
        cfg.excitation_bins - 1,
    )
    return DescriptorHistogram(_histograms(t * cfg.excitation_bins + e))
