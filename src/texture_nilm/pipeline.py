"""End-to-end wiring behind the CLI commands.

A "record" is one extracted event window: its label, provenance and the two
raw 256-bin descriptor histograms. Records are what the feature dump stores
(one JSON object per line) and what evaluation datasets are built from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import LabeledDataset
from .descriptors import DescriptorConfig, HISTOGRAM_BINS, lbp_histogram, wld_histogram
from .errors import MalformedCsv
from .fusion import FusionStrategy, fuse_rows
from .signals import EventDetectorConfig, PowerSignal, detect_events, impute_zeros
from .transform2d import reshape


@dataclass
class WindowRecord:
    label: str
    source_id: str
    onset_index: int
    lbp: np.ndarray
    wld: np.ndarray


def _extract_one(
    signal: PowerSignal,
    detector: EventDetectorConfig,
    descriptor: DescriptorConfig,
) -> list[WindowRecord]:
    repaired = impute_zeros(signal)
    records = []
    for window in detect_events(repaired, detector):
        matrix = reshape(window)
        records.append(
            WindowRecord(
                label=signal.label,
                source_id=signal.source_id,
                onset_index=window.onset_index,
                lbp=lbp_histogram(matrix).bins,
                wld=wld_histogram(matrix, descriptor).bins,
            )
        )
    return records


def extract_records(
    signals: list[PowerSignal],
    detector: EventDetectorConfig,
    descriptor: DescriptorConfig,
) -> list[WindowRecord]:
    """Run repair, event detection and both descriptors over a corpus.

    Signals are processed in (label, source_id) order and their windows kept
    in onset order, so the output does not depend on the order of ``signals``.
    """
    ordered = sorted(signals, key=lambda s: (s.label, s.source_id))
    return [
        record
        for signal in ordered
        for record in _extract_one(signal, detector, descriptor)
    ]


def record_to_json(record: WindowRecord) -> str:
    return json.dumps(
        {
            "label": record.label,
            "source_id": record.source_id,
            "onset_index": record.onset_index,
            "lbp": record.lbp.tolist(),
            "wld": record.wld.tolist(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def records_to_jsonl(records: list[WindowRecord]) -> str:
    return "".join(record_to_json(r) + "\n" for r in records)


def load_records(path: str | Path) -> list[WindowRecord]:
    """Parse a feature dump written by ``records_to_jsonl``."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not readable as text: {exc}") from None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedCsv(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
        try:
            record = WindowRecord(
                label=obj["label"],
                source_id=obj["source_id"],
                onset_index=obj["onset_index"],
                lbp=np.asarray(obj["lbp"]),
                wld=np.asarray(obj["wld"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCsv(f"{path}: line {lineno}: bad record: {exc}") from exc
        if not (isinstance(record.label, str) and isinstance(record.source_id, str)):
            raise MalformedCsv(f"{path}: line {lineno}: label and source_id must be strings")
        # bool is a subclass of int, so JSON true must be ruled out by type
        if type(record.onset_index) is not int or record.onset_index < 0:
            raise MalformedCsv(
                f"{path}: line {lineno}: onset_index must be a non-negative integer"
            )
        for kind, bins in (("lbp", record.lbp), ("wld", record.wld)):
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
        records.append(record)
    return records


def dataset_from_records(
    records: list[WindowRecord], strategy: FusionStrategy | str
) -> LabeledDataset:
    """Fuse every record's histogram pair into one labeled dataset.

    All records are fused at once by :func:`fuse_rows`, so the first record
    that cannot be fused raises its own error.
    """
    strategy = FusionStrategy(strategy)
    vectors = fuse_rows(
        np.array([r.lbp for r in records]),
        np.array([r.wld for r in records]),
        strategy,
    )
    return LabeledDataset(vectors, [r.label for r in records], strategy)
