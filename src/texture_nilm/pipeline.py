"""End-to-end wiring behind the CLI commands.

Extraction takes signals in (label, source_id) order, one at a time, and
describes their windows a stack at a time into one :class:`FeatureTable` per
stack, of labels, provenance and raw 256-bin histograms, one row per window.
Each stack is handed on as soon as it is described, so a caller that makes
signals lazily and writes each stack out holds one signal and one stack.
Each histogram column holds integer counts in [0, 2**32), stored as uint8,
uint16 or uint32. The feature dump stores the stacks one after another (one
JSON object per line); evaluation fuses them joined into one table.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .classify import LabeledDataset
from .descriptors import DescriptorConfig, HISTOGRAM_BINS, lbp_histogram, wld_histogram
from .errors import DegenerateProduct, EmptyHistogram, MalformedCsv, RangeOverflow
from .fusion import FusionStrategy, fuse_rows
from .signals import EventDetectorConfig, EventWindow, PowerSignal
from .signals import detect_events, impute_zeros, in_order
from .transform2d import reshape

# samples per stack of windows described at once (about as many grid cells), and
# counts per stack of dump lines parsed at once, so temporaries stay small for
# any window length
CHUNK_SAMPLES = 1 << 15


def _narrow(name: str, bins: np.ndarray) -> np.ndarray:
    """Integer counts in [0, 2**32) in the narrowest of uint8, uint16 and uint32.

    Anything else raises ValueError naming the column. The cap keeps every
    fused value bitwise the same: a row of 256 counts sums to less than 2**40.
    """
    if bins.dtype.kind in "iu" and bins.min(initial=0) >= 0:
        top = int(bins.max(initial=0))
        if top < 1 << 32:
            return bins.astype(np.min_scalar_type(top), copy=False)
    raise ValueError(f"{name} must hold integer counts in [0, 2**32)")


@dataclass
class FeatureTable:
    """Extracted windows as columns; ``lbp`` and ``wld`` hold (W, 256) counts.

    Each count column is stored as :func:`_narrow` returns it, so the same
    counts get the same dtype however the table was built. Every column must
    have one entry or row per label, else ValueError names it.
    """

    label: list[str]
    source_id: list[str]
    onset_index: list[int]
    lbp: np.ndarray
    wld: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.label)
        if len(self.source_id) != n or len(self.onset_index) != n:
            raise ValueError(f"source_id and onset_index must have one entry per label ({n})")
        for name in ("lbp", "wld"):
            bins = getattr(self, name)
            if bins.shape != (n, HISTOGRAM_BINS):
                raise ValueError(f"{name} has shape {bins.shape}, not ({n}, {HISTOGRAM_BINS})")
            setattr(self, name, _narrow(name, bins))

    def __len__(self) -> int:
        return len(self.label)

    @classmethod
    def joined(cls, stacks: list[FeatureTable]) -> FeatureTable:
        """The rows of every stack, in order."""
        empty = np.empty((0, HISTOGRAM_BINS), dtype=np.uint8)
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


def extract_records(
    signals: Iterable[PowerSignal],
    detector: EventDetectorConfig,
    descriptor: DescriptorConfig,
    *,
    emit: Callable[[FeatureTable], object] | None = None,
) -> list[FeatureTable]:
    """Run repair, event detection and both descriptors over a corpus.

    One table per stack of ``CHUNK_SAMPLES // window_len`` windows (the last may
    be short), with the signals in the order given and their windows in onset
    order. Signals must come in increasing (label, source_id) order, each
    pair once (see :func:`in_order`), and the first window whose range
    overflows float64 raises RangeOverflow.

    Each stack goes to ``emit`` as soon as it is described and is not kept
    here; without ``emit`` the stacks are returned in a list. Each signal is
    taken from ``signals`` only when extraction reaches it, so a generator
    that makes its signals lazily, or lets go of them as it hands them on,
    holds one signal at a time.
    """
    # a signal is held only until the next one is taken
    cut = (
        (s.label, s.source_id, w) for s in in_order(signals) for w in _extract_one(s, detector)
    )
    step = max(1, CHUNK_SAMPLES // detector.window_len)
    stacks = []
    emit = stacks.append if emit is None else emit
    described = 0
    while chunk := list(islice(cut, step)):
        labels, sources, windows = map(list, zip(*chunk))
        onsets = [w.onset_index for w in windows]
        try:
            matrices = reshape(np.stack([w.samples for w in windows]))
        except RangeOverflow as exc:
            where = _where(labels[exc.row], sources[exc.row], onsets[exc.row])
            raise RangeOverflow(f"{exc} ({where})", described + exc.row) from None
        # narrowed here, so each int64 column is freed before the next histogram is computed
        lbp = _narrow("lbp", lbp_histogram(matrices).bins)
        wld = _narrow("wld", wld_histogram(matrices, descriptor).bins)
        emit(FeatureTable(labels, sources, onsets, lbp, wld))
        described += len(chunk)
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
    # counts past the table keep their own str()
    if counts.max(initial=0) > top:
        for i in np.flatnonzero((counts > top).any(axis=1)).tolist():
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


# a JSON string as the writer escapes it, and the fields of a dump line in the
# writer's layout; re-encoding checks the rest
_STRING = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_FIELDS = re.compile(
    r'\{"label":' + _STRING + r',"lbp":\[([0-9,]*)\],"onset_index":([0-9]+),'
    r'"source_id":' + _STRING + r',"wld":\[([0-9,]*)\]\}\n'
)


def _parse_stack(lines: list[str]) -> FeatureTable | None:
    """The table of ``lines`` if each is a dump line and ``records_to_jsonl``
    turns the table back into exactly their text, else None."""
    fields = [_FIELDS.fullmatch(line) for line in lines]
    if not all(fields):
        return None
    columns = []
    for group in (2, 5):
        joined = ",".join(f[group] for f in fields)
        # np.fromstring stops at an empty count
        counts = None if ",," in f",{joined}," else np.fromstring(joined, np.int64, sep=",")
        if counts is None or counts.size != len(fields) * HISTOGRAM_BINS:
            return None
        columns.append(counts.reshape(len(fields), HISTOGRAM_BINS))
    labels, sources = [f[1] for f in fields], [f[4] for f in fields]
    try:
        # each distinct escaped string is decoded once
        names = {s: json.loads(f'"{s}"') if "\\" in s else s for s in {*labels, *sources}}
        onsets = [int(f[3]) for f in fields]
        stack = FeatureTable(
            [names[s] for s in labels], [names[s] for s in sources], onsets, *columns
        )
    except ValueError:
        # a bad escape, an onset past int()'s limit on digits, or a count of 2**32 or more
        return None
    return stack if records_to_jsonl(stack) == "".join(lines) else None


def load_records(path: str | Path) -> FeatureTable:
    """Parse a feature dump as ``records_to_jsonl`` writes it, and nothing else.

    The dump is read and parsed a stack of lines at a time, so its whole text
    is never held, and a stack is kept only if the writer turns it back into
    exactly its text. The stacks' narrowed tables are joined at the end, so no
    int64 column of the whole dump is built. Any other text raises MalformedCsv
    naming the first line the writer would not write; no partial table is
    returned.
    """
    path = Path(path)
    stacks = []
    try:
        # newline="\n" ends a line at "\n" only and keeps each "\r", so only
        # text the writer writes is read back
        with path.open(newline="\n") as f:
            while lines := list(islice(f, max(1, CHUNK_SAMPLES // HISTOGRAM_BINS))):
                stack = _parse_stack(lines)
                if stack is None:
                    # each kept record is one line, and a stack fails only at a
                    # line that fails alone
                    bad = [_parse_stack([line]) for line in lines].index(None)
                    lineno = 1 + sum(map(len, stacks)) + bad
                    raise MalformedCsv(f"{path}: line {lineno}: not a record as extract writes it")
                stacks.append(stack)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not readable as text: {exc}") from None
    if not stacks:
        # extract writes no dump when it finds no window, so never an empty one
        raise MalformedCsv(f"{path}: line 1: not a record as extract writes it")
    return FeatureTable.joined(stacks)


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
