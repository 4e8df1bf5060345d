"""Histogram fusion: summation, concatenation, elementwise product.

Both inputs are L1-normalized before combining and the result is normalized
again, so histograms coming from matrices with different interior counts are
commensurable and every feature vector is a probability vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .descriptors import HISTOGRAM_BINS, DescriptorHistogram
from .errors import DegenerateProduct, EmptyHistogram


class FusionStrategy(str, enum.Enum):
    SUM = "sum"
    CONCAT = "concat"
    MULT = "mult"


@dataclass
class FeatureVector:
    """Fused, L1-normalized feature representation of one event window."""

    values: np.ndarray
    strategy: FusionStrategy

    def __post_init__(self) -> None:
        self.strategy = FusionStrategy(self.strategy)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = 2 * HISTOGRAM_BINS if self.strategy is FusionStrategy.CONCAT else HISTOGRAM_BINS
        if self.values.shape != (expected,):
            raise ValueError(
                f"{self.strategy.value} vectors must have {expected} components, "
                f"got {self.values.shape}"
            )
        if self.values.min() < 0:
            raise ValueError("feature values must be non-negative")
        if abs(self.l1 - 1.0) > 1e-9:
            raise ValueError(f"feature vector must be L1-normalized, sum={self.l1!r}")

    @property
    def l1(self) -> float:
        return float(self.values.sum())


def fuse_rows(
    lbp: np.ndarray, wld: np.ndarray, strategy: FusionStrategy | str
) -> np.ndarray:
    """Fuse stacked (n, 256) LBP and WLD histograms, one window per row.

    Row i of the result is the fused, L1-normalized vector of ``lbp[i]`` and
    ``wld[i]``. Rows must be finite and non-negative. An all-zero histogram
    raises :class:`EmptyHistogram` (LBP checked before WLD) and, for
    multiplication, an all-zero product raises :class:`DegenerateProduct`.
    """
    strategy = FusionStrategy(strategy)
    lbp = np.asarray(lbp)
    wld = np.asarray(wld)
    for bins in (lbp, wld):
        if bins.ndim != 2 or bins.shape[1:] != (HISTOGRAM_BINS,):
            raise ValueError(f"histograms must be stacked rows of {HISTOGRAM_BINS} bins")
        if not np.all(np.isfinite(bins)) or np.any(bins < 0):
            raise ValueError("bins must be finite and non-negative")
    if lbp.shape != wld.shape:
        raise ValueError("one WLD histogram per LBP histogram required")
    lbp_total = lbp.sum(axis=1)
    wld_total = wld.sum(axis=1)
    for kind, total in (("lbp", lbp_total), ("wld", wld_total)):
        if np.any(total == 0):
            raise EmptyHistogram(f"{kind} histogram has zero total mass")
    a = lbp.astype(np.float64) / lbp_total.astype(np.float64)[:, None]
    b = wld.astype(np.float64) / wld_total.astype(np.float64)[:, None]
    if strategy is FusionStrategy.SUM:
        v = a + b
    elif strategy is FusionStrategy.CONCAT:
        v = np.concatenate([a, b], axis=1)
    else:
        v = a * b
        if not np.all(v.any(axis=1)):
            raise DegenerateProduct(
                "histograms have disjoint support; their product is all-zero"
            )
    return v / v.sum(axis=1)[:, None]


def fuse(
    h_lbp: DescriptorHistogram,
    h_wld: DescriptorHistogram,
    strategy: FusionStrategy | str,
) -> FeatureVector:
    """Combine an LBP and a WLD histogram into one feature vector.

    Summation and multiplication keep 256 components; concatenation appends
    the WLD histogram after the LBP one for 512. Multiplication of histograms
    with disjoint support would normalize the zero vector and is rejected.
    """
    strategy = FusionStrategy(strategy)
    return FeatureVector(
        fuse_rows(h_lbp.bins[None], h_wld.bins[None], strategy)[0], strategy
    )
