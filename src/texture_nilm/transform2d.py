"""1D event windows to quantized 2D matrices, one window or a stack."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MatrixTooSmall, RangeOverflow, WindowTooShort

QUANT_LEVELS = 256


@dataclass
class Matrix2D:
    """8-bit power-level grids for descriptors: one (rows, cols) or a (W, rows, cols) stack."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.dtype.kind == "f":
            if not np.all(np.mod(cells, 1.0) == 0.0):
                raise ValueError("cells must hold integers")
        self.cells = cells.astype(np.int64)
        if self.cells.ndim not in (2, 3):
            raise ValueError("cells must be a 2D grid or a stack of them")
        if min(self.cells.shape[-2:]) < 3:
            raise MatrixTooSmall(
                f"matrix is {self.rows}x{self.cols}; descriptors need at least 3x3"
            )
        if self.cells.min() < 0 or self.cells.max() > QUANT_LEVELS - 1:
            raise ValueError("cells must lie in [0, 255]")

    @property
    def rows(self) -> int:
        return self.cells.shape[-2]

    @property
    def cols(self) -> int:
        return self.cells.shape[-1]


def reshape(samples: np.ndarray) -> Matrix2D:
    """Min-max quantize windows to 8 bits and fill near-square grids.

    ``samples`` is one window of L samples or a ``(W, L)`` stack of windows,
    each quantized on its own min and max. Quantization is round-half-up onto
    [0, 255]; a flat window maps to all zeros. The grid side is ceil(sqrt(L)),
    filled row-major, and cells past the window's end repeat the last
    quantized sample. Because of the min-max step the result is invariant
    under positive affine rescaling of the window. Raises WindowTooShort when
    L < 9, and RangeOverflow, with the first such window's index as ``row``,
    when a window's max - min overflows float64.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[-1]
    if n < 9:
        raise WindowTooShort(f"window has {n} samples; at least 9 required")
    stack = x.reshape(-1, n)
    lo = stack.min(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        span = stack.max(axis=1, keepdims=True) - lo
    if np.isinf(span).any():
        raise RangeOverflow("window max - min overflows float64", int(np.isinf(span).argmax()))
    # a flat row has x == lo throughout, so any non-zero divisor maps it to 0
    span[span == 0.0] = 1.0
    q = np.floor((stack - lo) / span * (QUANT_LEVELS - 1) + 0.5).astype(np.int64)
    side = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) in exact integer arithmetic
    cells = np.pad(q, ((0, 0), (0, side * side - n)), mode="edge")
    return Matrix2D(cells.reshape(x.shape[:-1] + (side, side)))
