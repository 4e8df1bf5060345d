"""Histogram fusion: summation, concatenation, elementwise product.

Both inputs are L1-normalized before combining and the result is normalized
again, so histograms coming from matrices with different interior counts are
commensurable and every feature vector is a probability vector. All windows
are fused at once, one per row; when some cannot be fused, the first failing
row names the error.
"""

from __future__ import annotations

import enum

import numpy as np

from .descriptors import HISTOGRAM_BINS
from .errors import DegenerateProduct, EmptyHistogram


class FusionStrategy(str, enum.Enum):
    SUM = "sum"
    CONCAT = "concat"
    MULT = "mult"


def fuse_rows(
    lbp: np.ndarray, wld: np.ndarray, strategy: FusionStrategy | str
) -> np.ndarray:
    """Fuse stacked (n, 256) LBP and WLD histograms, one window per row.

    Row i of the result is the fused, L1-normalized vector of ``lbp[i]`` and
    ``wld[i]``: 256 components for sum and product, 512 for concatenation
    (LBP first). Rows must be finite and non-negative. The lowest row that
    cannot be fused raises: :class:`EmptyHistogram` for an all-zero LBP
    histogram, then for an all-zero WLD one, and, for multiplication,
    :class:`DegenerateProduct` for histograms with disjoint support; the
    error's ``row`` is that row's index.
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
    # an empty row divides 0 by 0; it raises below, before its NaNs are used
    with np.errstate(invalid="ignore"):
        a = lbp.astype(np.float64) / lbp_total.astype(np.float64)[:, None]
        b = wld.astype(np.float64) / wld_total.astype(np.float64)[:, None]
    if strategy is FusionStrategy.SUM:
        v = a + b
    elif strategy is FusionStrategy.CONCAT:
        v = np.concatenate([a, b], axis=1)
    else:
        v = a * b
    failing = (lbp_total == 0) | (wld_total == 0)
    if strategy is FusionStrategy.MULT:
        failing |= ~v.any(axis=1)
    if failing.any():
        row = int(failing.argmax())
        if lbp_total[row] == 0:
            raise EmptyHistogram("lbp histogram has zero total mass", row)
        if wld_total[row] == 0:
            raise EmptyHistogram("wld histogram has zero total mass", row)
        raise DegenerateProduct(
            "histograms have disjoint support; their product is all-zero", row
        )
    return v / v.sum(axis=1)[:, None]
