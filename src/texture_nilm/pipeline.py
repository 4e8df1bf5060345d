"""End-to-end wiring behind the CLI commands.

Extraction describes windows a stack at a time into one :class:`FeatureTable`
per stack, of labels, provenance and raw 256-bin histograms, one row per window;
a signal nobody else holds is freed once its windows are cut.
Each histogram column keeps non-negative integer counts below 2**32 in the
narrowest unsigned type that holds its largest count (uint8, uint16 or uint32),
and any other column as it is. The feature dump stores the stacks one after
another (one JSON object per line); evaluation fuses them joined into one table.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .classify import LabeledDataset
from .descriptors import DescriptorConfig, HISTOGRAM_BINS, lbp_histogram, wld_histogram
from .errors import DegenerateProduct, EmptyHistogram, MalformedCsv, RangeOverflow
from .fusion import FusionStrategy, fuse_rows
from .signals import EventDetectorConfig, EventWindow, PowerSignal, detect_events, impute_zeros
from .transform2d import reshape

# samples per stack of windows described at once (about as many grid cells), and
# counts per stack of dump lines parsed at once, so temporaries stay small for
# any window length
CHUNK_SAMPLES = 1 << 15


def _narrow(bins: np.ndarray) -> np.ndarray:
    """Non-negative integer counts below 2**32 in the narrowest unsigned type.

    Floats, negative counts, empty arrays and counts of 2**32 or more are
    returned unchanged. The cap keeps every fused value bitwise the same: a row
    of 256 narrowed counts sums to less than 2**40 in any integer type.
    """
    if bins.dtype.kind not in "iu" or not bins.size:
        return bins
    top = int(bins.max())
    if top >= 1 << 32 or bins.min() < 0:
        return bins
    return bins.astype(np.min_scalar_type(top), copy=False)


@dataclass
class FeatureTable:
    """Extracted windows as columns; ``lbp`` and ``wld`` hold (W, 256) counts.

    Each column is stored as :func:`_narrow` returns it, so the same counts get
    the same dtype however the table was built: uint8 for 8x8 grids, whose 36
    interior cells bound every count, and int64 for counts of 2**32 or more.
    """

    label: list[str]
    source_id: list[str]
    onset_index: list[int]
    lbp: np.ndarray
    wld: np.ndarray

    def __post_init__(self) -> None:
        self.lbp = _narrow(self.lbp)
        self.wld = _narrow(self.wld)

    def __len__(self) -> int:
        return len(self.label)

    @classmethod
    def joined(cls, stacks: list[FeatureTable]) -> FeatureTable:
        """The rows of every stack, in order; no stacks give empty int64 columns."""
        empty = np.empty((0, HISTOGRAM_BINS), dtype=np.int64)
        return cls(
            [label for t in stacks for label in t.label],
            [source for t in stacks for source in t.source_id],
            [onset for t in stacks for onset in t.onset_index],
            np.concatenate([t.lbp for t in stacks]) if stacks else empty,
            np.concatenate([t.wld for t in stacks]) if stacks else empty,
        )


def _where(label: str, source_id: str, onset: int) -> str:
    return f"label {label!r}, source_id {source_id!r}, onset {onset}"


def _extract_one(signal: PowerSignal, detector: EventDetectorConfig) -> list[EventWindow]:
    return detect_events(impute_zeros(signal), detector)


def _cut(pending: list[PowerSignal], detector: EventDetectorConfig):
    """``(label, source_id, window)`` of every window of the signals popped off
    ``pending``; a popped signal is held by its ``_extract_one`` call alone."""
    while pending:
        label, source_id = pending[-1].label, pending[-1].source_id
        yield from ((label, source_id, w) for w in _extract_one(pending.pop(), detector))


def extract_records(
    signals: Iterable[PowerSignal],
    detector: EventDetectorConfig,
    descriptor: DescriptorConfig,
) -> list[FeatureTable]:
    """Run repair, event detection and both descriptors over a corpus.

    One table per stack of ``CHUNK_SAMPLES // window_len`` windows (the last may
    be short), with signals in (label, source_id) order and their windows in
    onset order, so the output does not depend on the order of ``signals``. The
    first window whose range overflows float64 raises RangeOverflow.

    A signal nobody else holds is freed once its windows are cut. A list
    passed in stays referenced until the call returns, so hand a corpus over
    as ``iter(corpus)``: ``sorted`` exhausts the iterator, and an exhausted
    list iterator lets go of its list.
    """
    pending = sorted(signals, key=lambda s: (s.label, s.source_id))
    pending.reverse()  # popped from the end, so equal keys keep their sorted order
    cut = _cut(pending, detector)
    step = max(1, CHUNK_SAMPLES // detector.window_len)
    stacks = []
    while chunk := list(islice(cut, step)):
        labels, sources, windows = map(list, zip(*chunk))
        onsets = [w.onset_index for w in windows]
        try:
            matrices = reshape(np.stack([w.samples for w in windows]))
        except RangeOverflow as exc:
            where = _where(labels[exc.row], sources[exc.row], onsets[exc.row])
            raise RangeOverflow(f"{exc} ({where})", len(stacks) * step + exc.row) from None
        # narrowed here, so each int64 column is freed before the next histogram is computed
        lbp = _narrow(lbp_histogram(matrices).bins)
        wld = _narrow(wld_histogram(matrices, descriptor).bins)
        stacks.append(FeatureTable(labels, sources, onsets, lbp, wld))
    return stacks


def _decimal_table(top: int) -> np.ndarray:
    """The text ``"v,"`` of every v in 0..top as one fixed-width void element.

    Digits are right-aligned behind NUL bytes; the width is a power of two,
    which ``np.take`` gathers fastest.
    """
    width = len(str(top))
    values = np.arange(top + 1, dtype=np.int64)
    text = np.zeros((top + 1, 1 << width.bit_length()), dtype=np.uint8)
    text[:, -1] = ord(",")
    for place in range(width):  # units first; a leading zero stays NUL
        power = 10**place
        text[:, -2 - place] = np.where(values >= power, values // power % 10 + ord("0"), 0)
    text[0, -2] = ord("0")
    return text.view(np.dtype((np.void, text.shape[1]))).ravel()


def _format_rows(counts: np.ndarray, decimals: np.ndarray) -> list[str]:
    """Each row of ``counts`` as comma-separated decimals."""
    top = len(decimals) - 1
    chars = np.take(decimals, counts, mode="clip").view(np.uint8)
    chars[:, -1] = ord("\n")  # each row's last comma ends its line
    rows = chars.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    # counts past the table, and any negative one, keep their own str()
    if counts.max(initial=0) > top or counts.min(initial=0) < 0:
        for i in np.flatnonzero(((counts < 0) | (counts > top)).any(axis=1)).tolist():
            rows[i] = ",".join(map(str, counts[i].tolist()))
    return rows


def records_to_jsonl(table: FeatureTable) -> str:
    """One JSON object per window and line, with sorted keys and no spaces.

    The table is formatted in one pass, so callers hand it over a stack at a
    time; the texts of consecutive row slices join to the text of the whole.
    """
    # texts for 0..the largest count, but never more than the table has counts
    top = min(int(max(table.lbp.max(initial=0), table.wld.max(initial=0))), table.lbp.size)
    decimals = _decimal_table(top)
    quoted = {s: json.dumps(s) for s in {*table.label, *table.source_id}}
    lbp, wld = (_format_rows(c, decimals) for c in (table.lbp, table.wld))
    return "".join(
        f'{{"label":{quoted[label]},"lbp":[{lbp_row}],"onset_index":{onset},'
        f'"source_id":{quoted[source]},"wld":[{wld_row}]}}\n'
        for label, source, onset, lbp_row, wld_row in zip(
            table.label, table.source_id, table.onset_index, lbp, wld
        )
    )


# the fields of a dump line in the writer's layout; re-encoding checks the rest
_FIELDS = re.compile(
    r'\{"label":"([^"\\]*)","lbp":\[([0-9,]*)\],"onset_index":([0-9]{1,19}),'
    r'"source_id":"([^"\\]*)","wld":\[([0-9,]*)\]\}\n'
)


def _parse_canonical(text: str) -> FeatureTable | None:
    """The table of a dump that ``records_to_jsonl`` writes byte for byte, else None.

    Each stack of lines is parsed loosely, then kept only if the writer turns
    it back into exactly its text. The stacks' narrowed tables are joined at
    the end, so no int64 column of the whole dump is built.
    """
    stacks = []
    matches, start = _FIELDS.finditer(text), 0
    while fields := list(islice(matches, max(1, CHUNK_SAMPLES // HISTOGRAM_BINS))):
        columns = []
        for group in (2, 5):
            joined = ",".join(f[group] for f in fields)
            # np.fromstring stops at an empty count
            counts = None if ",," in f",{joined}," else np.fromstring(joined, np.int64, sep=",")
            if counts is None or counts.size != len(fields) * HISTOGRAM_BINS:
                return None
            columns.append(counts.reshape(len(fields), HISTOGRAM_BINS))
        provenance = ([f[1] for f in fields], [f[4] for f in fields], [int(f[3]) for f in fields])
        stack = FeatureTable(*provenance, *columns)
        encoded, end = records_to_jsonl(stack), fields[-1].end()
        # compared in place, as a copy of the stack's text would raise the peak RSS
        if len(encoded) != end - start or not text.startswith(encoded, start):
            return None
        stacks.append(stack)
        start = end
    if start != len(text):
        return None
    return FeatureTable.joined(stacks)


def load_records(path: str | Path) -> FeatureTable:
    """Parse a feature dump written by ``records_to_jsonl``.

    A dump in the writer's exact format is parsed a stack of lines at a time;
    any other is read line by line with ``json.loads``, which also names the
    first bad line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not readable as text: {exc}") from None
    table = _parse_canonical(text)
    return table if table is not None else _parse_lines(path, text)


def _parse_lines(path: Path, text: str) -> FeatureTable:
    """Parse any dump one ``json.loads`` per line, validating every record."""
    lines = text.splitlines()
    labels, sources, onsets = [], [], []
    # a record's two histograms of 256 counts take more than 4 characters a bin
    most = min(len(lines), len(text) // (4 * HISTOGRAM_BINS)) + 1
    lbp, wld = np.empty((2, most, HISTOGRAM_BINS), dtype=np.int64)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedCsv(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer past Python's limit on digits
            raise MalformedCsv(f"{path}: line {lineno}: unreadable number: {exc}") from exc
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
    that cannot be fused raises its own error, naming the window.
    """
    strategy = FusionStrategy(strategy)
    if not len(table):
        raise ValueError("no windows to fuse")
    try:
        fused = fuse_rows(table.lbp, table.wld, strategy)
    except (EmptyHistogram, DegenerateProduct) as exc:
        i = exc.row
        where = _where(table.label[i], table.source_id[i], table.onset_index[i])
        raise type(exc)(f"{exc} ({where})", i) from None
    return LabeledDataset(fused, table.label)
