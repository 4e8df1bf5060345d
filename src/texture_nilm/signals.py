"""Power-signal primitives: zero repair and event windowing.

A raw trace may contain zero samples standing in for missing observations.
``impute_zeros`` repairs them, ``detect_events`` then cuts fixed-length
windows around consumption-level changes; everything downstream operates on
those windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroSignal, InvalidConfig


@dataclass
class PowerSignal:
    """A labeled 1D power trace in watts.

    Zeros mark missing observations until repaired by :func:`impute_zeros`.
    Treated as immutable by convention; operations return new instances.
    """

    samples: np.ndarray
    sampling_rate_hz: float
    label: str
    source_id: str

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("samples must be a non-empty 1D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"signal {self.source_id!r} contains non-finite samples")
        if not self.sampling_rate_hz > 0:
            raise ValueError("sampling_rate_hz must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass
class EventWindow:
    """Fixed-length slice of a repaired signal starting at a detected onset.

    ``pad_count`` trailing samples are copies of the last observed sample,
    used when the parent signal ends before the window is full.
    """

    samples: np.ndarray
    onset_index: int
    label: str
    pad_count: int = 0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("window samples must be a non-empty 1D sequence")
        if not 0 <= self.pad_count < self.samples.size:
            raise ValueError("pad_count must satisfy 0 <= pad_count < window length")

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class EventDetectorConfig:
    """Two-sided moving-mean change detector parameters.

    ``window_len`` is the emitted window length L; it must be at least 9 so a
    3x3 matrix is possible downstream.
    """

    delta_watts: float = 15.0
    steady_len: int = 5
    window_len: int = 1024

    def __post_init__(self) -> None:
        if not self.delta_watts > 0:
            raise InvalidConfig("delta_watts must be positive")
        if self.steady_len < 1:
            raise InvalidConfig("steady_len must be at least 1")
        if self.window_len < 9:
            raise InvalidConfig("window_len must be at least 9")


def impute_zeros(signal: PowerSignal) -> PowerSignal:
    """Replace each zero sample by the mean of its nearest non-zero neighbors.

    Neighbors are looked up in the *input* signal, so a run of zeros sees the
    same non-zero values on both sides. At a boundary where only one side has
    a non-zero sample, that side's value is used alone. Non-zero samples pass
    through untouched, which makes the operation idempotent.

    Raises:
        AllZeroSignal: the signal has no non-zero sample to interpolate from.
    """
    x = signal.samples
    zero = x == 0.0
    if not zero.any():
        return signal
    if zero.all():
        raise AllZeroSignal(f"signal {signal.source_id!r} is entirely zero")

    n = x.size
    idx = np.arange(n)
    # nearest non-zero index at or before / at or after each position
    left = np.maximum.accumulate(np.where(~zero, idx, -1))
    right = np.minimum.accumulate(np.where(~zero, idx, n)[::-1])[::-1]

    zi = np.flatnonzero(zero)
    left_val = np.where(left[zi] >= 0, x[np.maximum(left[zi], 0)], np.nan)
    right_val = np.where(right[zi] < n, x[np.minimum(right[zi], n - 1)], np.nan)

    out = x.copy()
    out[zi] = np.nanmean(np.vstack([left_val, right_val]), axis=0)
    return PowerSignal(out, signal.sampling_rate_hz, signal.label, signal.source_id)


def detect_events(signal: PowerSignal, cfg: EventDetectorConfig) -> list[EventWindow]:
    """Detect consumption-level changes and cut one window per accepted onset.

    The change score at index i is ``|mean(x[i:i+w]) - mean(x[i-w:i])|`` with
    w = ``cfg.steady_len``. Indices whose score exceeds ``cfg.delta_watts``
    form maximal contiguous runs; each run contributes a single candidate
    onset at its score peak (first index on ties), which pins the onset to the
    step itself rather than to the first threshold crossing on the ramp into
    it. Candidates within ``window_len`` samples of the previously accepted
    onset are dropped. Windows that would run past the end of the signal are
    padded by repeating the last observed sample.

    A signal with no super-threshold change returns an empty list; this is not
    an error. Expects a repaired signal (no zeros from missing observations).
    """
    x = signal.samples
    w = cfg.steady_len
    length = cfg.window_len
    n = x.size
    if n < 2 * w:
        return []

    # score[j] is the change at index i = w + j
    csum = np.concatenate(([0.0], np.cumsum(x)))
    mean_after = (csum[2 * w :] - csum[w : n - w + 1]) / w
    mean_before = (csum[w : n - w + 1] - csum[: n - 2 * w + 1]) / w
    score = np.abs(mean_after - mean_before)

    hot = np.flatnonzero(score > cfg.delta_watts)
    if hot.size == 0:
        return []
    new_run = np.concatenate(([True], hot[1:] - hot[:-1] > 1))
    run_starts = np.flatnonzero(new_run)
    # each run's peak: its first index whose score equals the run's maximum
    hot_score = score[hot]
    run_max = np.maximum.reduceat(hot_score, run_starts)
    at_max = np.flatnonzero(hot_score == run_max[np.cumsum(new_run) - 1])
    peaks = at_max[np.searchsorted(at_max, run_starts)]

    onsets: list[int] = []
    for onset in (hot[peaks] + w).tolist():
        if not onsets or onset - onsets[-1] > length:
            onsets.append(onset)

    # every window in one gather from x followed by length - 1 copies of its last sample
    padded = np.concatenate((x, np.full(length - 1, x[n - 1])))
    cut = np.lib.stride_tricks.sliding_window_view(padded, length)[onsets]
    return [
        EventWindow(samples, onset, signal.label, max(0, onset + length - n))
        for samples, onset in zip(cut, onsets)
    ]
