"""End-to-end wiring behind the CLI commands.

Extraction describes windows a stack at a time into one :class:`FeatureTable`
of labels, provenance and raw 256-bin histograms, one row per window. The
feature dump stores it (one JSON object per line); evaluation fuses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .classify import LabeledDataset
from .descriptors import DescriptorConfig, HISTOGRAM_BINS, lbp_histogram, wld_histogram
from .errors import MalformedCsv, RangeOverflow
from .fusion import FusionStrategy, fuse_rows
from .signals import EventDetectorConfig, EventWindow, PowerSignal, detect_events, impute_zeros
from .transform2d import reshape

# samples per stack of windows described at once (about as many grid cells), and
# counts per JSONL formatting step, so temporaries stay small for any window length
CHUNK_SAMPLES = 1 << 15


@dataclass
class FeatureTable:
    """Extracted windows as columns; ``lbp`` and ``wld`` are (W, 256) int64."""

    label: list[str]
    source_id: list[str]
    onset_index: list[int]
    lbp: np.ndarray
    wld: np.ndarray

    def __len__(self) -> int:
        return len(self.label)


def _extract_one(signal: PowerSignal, detector: EventDetectorConfig) -> list[EventWindow]:
    return detect_events(impute_zeros(signal), detector)


def extract_records(
    signals: list[PowerSignal],
    detector: EventDetectorConfig,
    descriptor: DescriptorConfig,
) -> FeatureTable:
    """Run repair, event detection and both descriptors over a corpus.

    Signals are processed in (label, source_id) order and their windows kept
    in onset order, so the output does not depend on the order of ``signals``.
    The first window whose range overflows float64 raises RangeOverflow.
    """
    ordered = sorted(signals, key=lambda s: (s.label, s.source_id))
    cut = ((s, w) for s in ordered for w in _extract_one(s, detector))
    step = max(1, CHUNK_SAMPLES // detector.window_len)
    labels, sources, onsets = [], [], []
    empty = np.empty((0, HISTOGRAM_BINS), dtype=np.int64)
    lbp, wld = [empty], [empty]
    while chunk := list(islice(cut, step)):
        try:
            matrices = reshape(np.stack([w.samples for _, w in chunk]))
        except RangeOverflow as exc:
            s, w = chunk[exc.row]
            where = f"label {s.label!r}, source_id {s.source_id!r}, onset {w.onset_index}"
            raise RangeOverflow(f"{exc} ({where})", len(labels) + exc.row) from None
        labels += [s.label for s, _ in chunk]
        sources += [s.source_id for s, _ in chunk]
        onsets += [w.onset_index for _, w in chunk]
        lbp.append(lbp_histogram(matrices).bins)
        wld.append(wld_histogram(matrices, descriptor).bins)
    lbp = np.concatenate(lbp)  # one at a time: only one descriptor's parts are copied at once
    wld = np.concatenate(wld)
    return FeatureTable(labels, sources, onsets, lbp, wld)


def _decimal_rows(counts: np.ndarray, digits: np.ndarray) -> list[str]:
    """Each row of ``counts`` as comma-separated decimals."""
    text = digits[np.minimum(counts, len(digits) - 1)]
    beyond = counts >= len(digits)
    if beyond.any():
        text[beyond] = [str(v) for v in counts[beyond].tolist()]
    return [",".join(row) for row in text.tolist()]


def records_to_jsonl(table: FeatureTable) -> str:
    """One JSON object per window and line, with sorted keys and no spaces."""
    # strings for 0..the largest count, but never more than the table has counts
    top = min(int(max(table.lbp.max(initial=0), table.wld.max(initial=0))), table.lbp.size)
    digits = np.array([str(v) for v in range(top + 1)], dtype=object)
    quoted = {s: json.dumps(s) for s in {*table.label, *table.source_id}}
    step = max(1, CHUNK_SAMPLES // HISTOGRAM_BINS)
    lines = []
    for start in range(0, len(table), step):
        rows = (_decimal_rows(c[start : start + step], digits) for c in (table.lbp, table.wld))
        for i, (lbp, wld) in enumerate(zip(*rows), start):
            label, source = quoted[table.label[i]], quoted[table.source_id[i]]
            lines.append(
                f'{{"label":{label},"lbp":[{lbp}],"onset_index":{table.onset_index[i]},'
                f'"source_id":{source},"wld":[{wld}]}}\n'
            )
    return "".join(lines)


def load_records(path: str | Path) -> FeatureTable:
    """Parse a feature dump written by ``records_to_jsonl``."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not readable as text: {exc}") from None
    lines = text.splitlines()
    labels, sources, onsets = [], [], []
    lbp, wld = np.empty((2, len(lines), HISTOGRAM_BINS), dtype=np.int64)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedCsv(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
        try:
            label, source, onset = obj["label"], obj["source_id"], obj["onset_index"]
            hist = {"lbp": np.asarray(obj["lbp"]), "wld": np.asarray(obj["wld"])}
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCsv(f"{path}: line {lineno}: bad record: {exc}") from exc
        if not (isinstance(label, str) and isinstance(source, str)):
            raise MalformedCsv(f"{path}: line {lineno}: label and source_id must be strings")
        # bool is a subclass of int, so JSON true must be ruled out by type
        if type(onset) is not int or onset < 0:
            raise MalformedCsv(
                f"{path}: line {lineno}: onset_index must be a non-negative integer"
            )
        for kind, bins in hist.items():
            if bins.shape != (HISTOGRAM_BINS,):
                raise MalformedCsv(
                    f"{path}: line {lineno}: histograms must have {HISTOGRAM_BINS} bins"
                )
            # a list of JSON integers that all fit decodes to int64; a float,
            # a string or an out-of-range integer anywhere gives another dtype
            if bins.dtype != np.int64 or bins.min() < 0:
                raise MalformedCsv(
                    f"{path}: line {lineno}: {kind} counts must be "
                    "non-negative integers that fit in int64"
                )
        lbp[len(labels)], wld[len(labels)] = hist["lbp"], hist["wld"]
        labels.append(label)
        sources.append(source)
        onsets.append(onset)
    return FeatureTable(labels, sources, onsets, lbp[: len(labels)], wld[: len(labels)])


def dataset_from_records(
    table: FeatureTable, strategy: FusionStrategy | str
) -> LabeledDataset:
    """Fuse every window's histogram pair into one labeled dataset.

    All windows are fused at once by :func:`fuse_rows`, so the first window
    that cannot be fused raises its own error.
    """
    strategy = FusionStrategy(strategy)
    if not len(table):
        raise ValueError("no windows to fuse")
    return LabeledDataset(fuse_rows(table.lbp, table.wld, strategy), table.label, strategy)
