"""Dataset ingestion: CSV corpora on disk and a seeded synthetic generator.

On-disk layout is one directory per appliance class with one CSV per
recording (`<root>/<label>/<recording>.csv`, header `timestamp,power_w`).
The synthetic generator emits six appliance archetypes that differ in steady
level, transition shape and periodicity, so texture descriptors can separate
them without redistributing any real corpus.

Reading a recording first tries a numeric fast path: when the header is
exactly `timestamp,power_w`, the file has no quotes and no carriage returns,
every line holds exactly one comma, and every field parses as a finite
``float``, the values are parsed with string and numpy operations over
blocks of whole lines, without the CSV module. The first data line is tried
on its own before any bulk work. Anything else (ISO-8601 timestamps, CRLF
line endings, quoting, blank lines, empty or non-finite fields, text that is
not UTF-8, no data row) is read again from the start by the row-by-row
parser, which gives the same signal or raises the same error with its line
number. ISO-timestamp corpora therefore always take the row parser and gain
nothing. Writing builds each file's text with one join over bulk-converted
values, with the same bytes as formatting each row on its own.

Float parsing and ``repr`` bound both directions, so on Linux a corpus is
read and written one file per call by forked worker processes, one per
usable CPU and at most 8, which take the calls in chunks of a few files. The
calls run in this process instead when that is one, or when another thread
runs here. The files, the signals, their order and the first error raised
are the same either way. Calls are made from their tasks only as the
workers are ready for them, at most two chunks per worker sent and not yet
done, so ``synth``, which hands ``write_corpus`` a generator that makes each
signal when it is taken, holds a few chunks of signals, never the corpus.
"""

from __future__ import annotations

import contextlib
import csv
import os
import signal
import sys
import threading
import time
from collections import Counter, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice, takewhile
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    InvalidConfig,
    MalformedCsv,
    NonMonotoneTimestamps,
    WorkerDied,
)
from .signals import PowerSignal, in_order

CSV_HEADER = ("timestamp", "power_w")
_PLAIN_HEADER = ",".join(CSV_HEADER) + "\n"
# characters per read of the numeric fast path
_BLOCK_CHARS = 1 << 16
# from <linux/prctl.h>
_PR_SET_PDEATHSIG = 1
# Corpus I/O workers at most. Each forked worker added 5 to 9 MB of
# proportional memory (PSS) to synth and extract of the eval-sweep and
# csv-ingest benchmark corpora: 8 added 38 to 69 MB to commands that use 41
# to 53 MB alone. The speedup has been measured on 2 CPUs only.
_MAX_WORKERS = 8
# Files per chunk of calls sent to a worker: one queue round trip per file
# cost about a third of the parse time of a 4096-row file, and short chunks
# keep the workers even at the end.
_CHUNK_FILES = 8
# Whether corpus I/O may fork workers: not on macOS, whose system libraries
# are not safe in a forked child, nor on Windows, which cannot fork, nor
# before Python 3.11, whose executor can fork while its own thread runs.
_FORK_POOL = sys.platform == "linux" and sys.version_info >= (3, 11)

# noisy samples are clamped away from 0 so the only zeros in generated data
# are the deliberate dropout markers
_NOISE_FLOOR = 0.5


def _parse_timestamp(raw: str, path: Path) -> float:
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not np.isfinite(value):
            raise MalformedCsv(f"{path}: non-finite timestamp {raw!r}")
        return value
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise MalformedCsv(f"{path}: unparseable timestamp {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_lines(text: str, field_limit: int) -> np.ndarray | None:
    """(rows, 2) values of newline-separated `timestamp,power` lines, else None.

    Only lines that the row parser reads into exactly these values are
    accepted: one comma per line, no quotes or carriage returns, no field
    longer than the csv module allows, and every field a finite ``float``.
    """
    if '"' in text or "\r" in text:
        return None
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    # comma, newline, comma, ...: exactly one comma on every line
    if (
        seps.size % 2 == 0
        or np.any(raw[seps[0::2]] != ord(","))
        or np.any(raw[seps[1::2]] != ord("\n"))
    ):
        return None
    # a field's length in bytes is at least its length in characters
    field_bytes = np.diff(seps, prepend=-1, append=raw.size) - 1
    if field_bytes.max() > field_limit:
        return None
    fields = text.replace("\n", ",").split(",")
    try:
        values = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
    except ValueError:
        return None
    if not np.all(np.isfinite(values)):
        return None
    return values.reshape(-1, 2)


def _read_numeric(fh) -> np.ndarray | None:
    """(rows, 2) timestamps and powers of a plain numeric file, else None.

    The text is parsed in blocks of whole lines, so it is never held whole.
    None sends the file to :func:`_read_rows`, possibly after part of it was
    read.
    """
    if fh.readline(len(_PLAIN_HEADER)) != _PLAIN_HEADER:
        return None
    field_limit = csv.field_size_limit()
    # a line with one comma and no field over the limit is at most this long
    line_limit = 2 * field_limit + 1
    # the first line alone, so a file that is not plain numbers (ISO-8601
    # stamps, say) goes to the row parser before any bulk work
    pending = fh.readline(line_limit + 1)
    if _parse_lines(pending.removesuffix("\n"), field_limit) is None:
        return None
    parts = []
    while True:
        block = fh.read(_BLOCK_CHARS)
        lines, newline, pending = (pending + block).rpartition("\n")
        if newline:
            part = _parse_lines(lines, field_limit)
            if part is None:
                return None
            parts.append(part)
        if not block:
            break
        if len(pending) > line_limit:
            return None
    if pending:
        part = _parse_lines(pending, field_limit)
        if part is None:
            return None
        parts.append(part)
    return np.concatenate(parts)


def _read_rows(fh, path: Path) -> tuple[list[float], list[float]]:
    reader = csv.reader(fh)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(f"{path}: file is empty") from None
        if tuple(col.strip() for col in header) != CSV_HEADER:
            raise MalformedCsv(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        timestamps = []
        powers = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise MalformedCsv(f"{path}: line {lineno} has {len(row)} fields")
            timestamps.append(_parse_timestamp(row[0], path))
            try:
                power = float(row[1])
            except ValueError:
                raise MalformedCsv(
                    f"{path}: line {lineno} has unparseable power {row[1]!r}"
                ) from None
            if not np.isfinite(power):
                raise MalformedCsv(f"{path}: line {lineno} has non-finite power")
            powers.append(power)
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: line {reader.line_num}: {exc}") from None
    return timestamps, powers


def _load_csv(path: Path, label: str) -> PowerSignal:
    try:
        with open(path, newline="") as fh:
            try:
                pairs = _read_numeric(fh)
            except UnicodeDecodeError:
                # the row parser decodes as it goes, so a bad row ahead of
                # the undecodable byte is the error it reports
                pairs = None
            if pairs is None:
                fh.seek(0)
                timestamps, powers = _read_rows(fh, path)
            else:
                # a copy, so the signal does not keep the timestamps alive
                timestamps, powers = pairs[:, 0], pairs[:, 1].copy()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not readable as text: {exc}") from None

    if len(powers) == 0:
        raise MalformedCsv(f"{path}: 0 data rows; at least 1 required")
    if np.any(np.diff(timestamps) <= 0):
        raise NonMonotoneTimestamps(f"{path}: timestamps are not strictly increasing")
    return PowerSignal(np.asarray(powers), label, path.stem)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _pool_size(files: int) -> int:
    """Worker processes for ``files`` calls; below 2 they run in this process.

    Workers are forked, so only where :data:`_FORK_POOL` holds, and only
    while no other thread runs here: a forked child has only the forking
    thread, so a lock that another thread held stays held in it.
    """
    if not _FORK_POOL or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), files, _MAX_WORKERS)


def _call(task: tuple) -> tuple[bool, object, str | None]:
    """``(True, func(*args), None)``, or ``(False, exception, None)``."""
    func, *args = task
    try:
        return True, func(*args), None
    except Exception as exc:
        return False, exc, None


def _call_in_worker(task: tuple) -> tuple[bool, object, str | None]:
    """:func:`_call` in a worker: a failure also brings back its traceback
    as text, since an exception loses its frames when it is pickled."""
    ok, value, _ = _call(task)
    if ok:
        return ok, value, None
    import pickle
    import traceback

    text = "".join(traceback.format_exception(value))
    try:
        pickle.loads(pickle.dumps(value))
    except Exception:
        # it could not be rebuilt in the parent; the text still names it
        value = None
    return False, value, text


def _call_chunk(tasks: list[tuple]) -> list[tuple[bool, object, str | None]]:
    return [_call_in_worker(task) for task in tasks]


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process, as text."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _die_with_parent(parent: int) -> None:
    """Worker initializer: the worker ends when the parent process does.

    Without it a worker would wait for work forever once the parent is
    killed, since the worker holds both ends of the pipe it reads. Ctrl-C is
    left to the parent, which stops the pool.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        # the parent ended before the line above
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _map_files(func: Callable, tasks: Iterable[tuple]) -> list:
    """``[func(*task) for task in tasks]``, one worker process per usable CPU
    (at most ``_MAX_WORKERS``).

    Tasks are taken from ``tasks`` only as the calls reach them: a worker
    has at most two chunks of ``_CHUNK_FILES`` calls sent and not yet done,
    so a lazy iterable of tasks is held a few chunks at a time. Every call
    runs, and the results keep the order of ``tasks``. If any call raises,
    the exception of the first failing task in that order is raised, with
    its own type and message. From a worker, the exception has the worker's
    traceback as its cause. If taking a task raises, that exception is
    raised instead, once the calls already sent have finished. With fewer
    than two workers (see :func:`_pool_size`, which sees at most the first
    ``_MAX_WORKERS`` tasks) the calls run in this process, in order. Every
    worker has exited before this returns or raises, and a worker that dies
    raises WorkerDied, with the pool's ``BrokenProcessPool`` as its cause.
    """
    calls = ((func, *task) for task in tasks)
    head = deque(islice(calls, _MAX_WORKERS))
    workers = _pool_size(len(head))
    calls = chain((head.popleft() for _ in range(len(head))), calls)
    if workers < 2:
        outcomes = list(map(_call, calls))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # fork, not spawn: a spawned worker imports numpy and this
        # package again, which made extract of the 300-file benchmark
        # corpus slower than one process
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_die_with_parent,
            initargs=(os.getpid(),),
        )
        # sent and not yet collected, oldest first: one running and one
        # waiting per worker, so no worker waits for this process
        sent = deque()
        outcomes = []
        try:
            while chunk := list(islice(calls, _CHUNK_FILES)):
                if len(sent) == 2 * workers:
                    outcomes.extend(sent.popleft().result())
                sent.append(pool.submit(_call_chunk, chunk))
            while sent:
                outcomes.extend(sent.popleft().result())
        except BrokenProcessPool as exc:
            raise WorkerDied("a corpus I/O worker process died before it finished") from exc
        finally:
            # a thread that ends in the shutdown can still run for a moment
            # after Python has joined it, and a fork made meanwhile (by the
            # next map) would copy a process with two threads
            threads = threading.enumerate()
            # waits for the workers; after an interrupt, chunks that had not
            # started are dropped, and the running ones finish
            pool.shutdown(cancel_futures=True)
            ended = [t.native_id for t in threads if not t.is_alive()]
            while any(os.path.exists(f"/proc/self/task/{tid}") for tid in ended):
                time.sleep(0.001)
    for ok, value, text in outcomes:
        if ok:
            continue
        if text is None:
            raise value
        if value is None:
            raise RuntimeError(
                f"{func.__name__} raised an exception in a worker process"
                " that cannot be sent back; its traceback follows"
            ) from _WorkerTraceback(text)
        raise value from _WorkerTraceback(text)
    return [value for _, value, _ in outcomes]


def load_dataset(root: str | Path) -> list[PowerSignal]:
    """Load every recording under `<root>/<label>/*.csv`.

    The appliance label is the directory name. A recording is its power
    values in file order: its timestamps must strictly increase, and do
    nothing else, so a gap between two of them is not seen. One data row is
    enough. Output is in (label, source_id) order, that is by directory name
    and then by file stem, and a bad file raises the error of the first
    failing file in that order.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyDataset(f"{root} is not a directory")
    tasks = [
        (path, class_dir.name)
        for class_dir in sorted((p for p in root.iterdir() if p.is_dir()), key=lambda p: p.name)
        for path in sorted(class_dir.glob("*.csv"), key=lambda p: p.stem)
    ]
    if not tasks:
        raise EmptyDataset(f"no recordings found under {root}")
    return _map_files(_load_csv, tasks)


def _csv_text(signal: PowerSignal) -> str:
    stamps = map(str, range(len(signal)))
    # the repr of a list of floats joins the repr of each element
    values = repr(signal.samples.tolist())[1:-1].split(", ")
    return _PLAIN_HEADER + "\n".join(map(",".join, zip(stamps, values))) + "\n"


def write_corpus(signals: Iterable[PowerSignal], root: str | Path) -> dict[str, int]:
    """Write signals as a `<root>/<label>/<source_id>.csv` corpus.

    Power values are written with full round-trip precision and each
    sample's index as its timestamp, so loading the corpus back reproduces
    the exact same signals. Signals are taken one at a time,
    as the writes reach them, so a generator that makes them lazily is held
    a few chunks at a time (see :func:`_map_files`). They must come in
    increasing (label, source_id) order, each pair once (see
    :func:`in_order`); a label or source id that is not a single path
    component (empty, ``.``, ``..``, or holding a path separator) raises
    ValueError naming it. If a file cannot be written, the error of the
    first failing file in order is raised. On any failure every directory
    this call made is removed again, and so is every file it was handed to
    write, even one that was there before, since a write that was cut short
    can leave part of a file.
    """
    root = Path(root)
    # every file handed to a write, and every directory made
    paths: list[Path] = []
    made: list[Path] = []

    def named():
        # a signal's names are checked before its order
        for signal in signals:
            for name in (signal.label, signal.source_id):
                if name in ("", ".", "..") or "/" in name or os.sep in name:
                    raise ValueError(f"{name!r} is not a single path component")
            yield signal

    def tasks():
        for signal in in_order(named()):
            class_dir = root / signal.label
            # the labels come in order, so each directory is made once
            if not paths or paths[-1].parent != class_dir:
                made.extend(_make_dirs(class_dir))
            paths.append(class_dir / f"{signal.source_id}.csv")
            yield signal, paths[-1]

    try:
        _map_files(_write_csv, tasks())
    except BaseException:
        # what cannot be removed, such as a directory in a file's place, stays
        for path in paths:
            with contextlib.suppress(OSError):
                path.unlink()
        for path in reversed(made):
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return dict(Counter(path.parent.name for path in paths))


def _make_dirs(path: Path) -> list[Path]:
    """Make ``path`` and its missing parents; return those it made, parents first."""
    missing = list(takewhile(lambda p: not p.exists(), (path, *path.parents)))
    path.mkdir(parents=True, exist_ok=True)
    return missing[::-1]


def _write_csv(signal: PowerSignal, path: Path) -> None:
    path.write_text(_csv_text(signal), newline="\n")


def _with_noise(x: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    if sigma > 0:
        x = x + rng.normal(0.0, sigma, x.size)
        np.maximum(x, _NOISE_FLOOR, out=x)
    return x


def _activation_start(rng: np.random.Generator) -> int:
    return int(rng.integers(64, 193))


def _square_wave(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    # resistive heater: hard on/off between two exact levels
    low = 30.0
    high = float(rng.uniform(1700.0, 2100.0))
    half_period = int(rng.integers(80, 161))
    x = np.full(n, low)
    pos = _activation_start(rng)
    on = True
    while pos < n:
        if on:
            x[pos : pos + half_period] = high
        pos += half_period
        on = not on
    return _with_noise(x, rng, sigma)


def _staircase(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    # washing-machine style multi-state program, up then down, resting between
    base = 20.0
    levels = [
        float(rng.uniform(250.0, 350.0)),
        float(rng.uniform(600.0, 800.0)),
        float(rng.uniform(1000.0, 1300.0)),
    ]
    program = levels + levels[-2::-1]
    dwell = int(rng.integers(120, 261))
    x = np.full(n, base)
    pos = _activation_start(rng)
    step = 0
    while pos < n:
        x[pos : pos + dwell] = program[step % len(program)]
        pos += dwell
        step += 1
        if step % len(program) == 0:
            pos += int(rng.integers(40, 100))
    return _with_noise(x, rng, sigma)


def _spike_decay(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    # compressor: startup spike decaying exponentially to the running level
    base = 70.0
    x = np.full(n, base)
    pos = _activation_start(rng)
    while pos < n:
        peak = float(rng.uniform(1200.0, 1600.0))
        tau = float(rng.uniform(25.0, 60.0))
        running = float(rng.uniform(180.0, 260.0))
        on_len = int(rng.integers(300, 501))
        off_len = int(rng.integers(200, 401))
        t = np.arange(min(on_len, n - pos), dtype=np.float64)
        x[pos : pos + t.size] = running + (peak - running) * np.exp(-t / tau)
        pos += on_len + off_len
    return _with_noise(x, rng, sigma)


def _sinusoid(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    standby = 15.0
    level = float(rng.uniform(280.0, 360.0))
    amplitude = float(rng.uniform(90.0, 150.0))
    period = float(rng.uniform(48.0, 96.0))
    x = np.full(n, standby)
    start = _activation_start(rng)
    t = np.arange(n - start, dtype=np.float64)
    x[start:] = level + amplitude * np.sin(2.0 * np.pi * t / period)
    return _with_noise(x, rng, sigma)


def _constant_drift(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    # always-on electronics: low constant level with slow linear drift
    standby = 10.0
    level = float(rng.uniform(110.0, 170.0))
    drift = float(rng.uniform(-35.0, 35.0))
    x = np.full(n, standby)
    start = _activation_start(rng)
    span = n - start
    x[start:] = level + drift * np.arange(span) / max(span - 1, 1)
    return _with_noise(x, rng, sigma)


def _duty_cycled(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    # thermostatic on/off cycling, plus isolated zero samples standing in for
    # dropped meter readings (the zeros that impute_zeros exists to repair)
    standby = 5.0
    on_level = float(rng.uniform(550.0, 750.0))
    on_len = int(rng.integers(40, 91))
    off_len = int(rng.integers(40, 91))
    x = np.full(n, standby)
    pos = _activation_start(rng)
    while pos < n:
        x[pos : pos + on_len] = on_level
        pos += on_len + off_len
    x = _with_noise(x, rng, sigma)
    dropouts = rng.choice(np.arange(1, n - 1), size=min(8, n - 2), replace=False)
    x[np.sort(dropouts)] = 0.0
    return x


_ARCHETYPE_FUNCS = {
    "square_wave": _square_wave,
    "staircase": _staircase,
    "spike_decay": _spike_decay,
    "sinusoid": _sinusoid,
    "constant_drift": _constant_drift,
    "duty_cycled": _duty_cycled,
}
ARCHETYPES = tuple(_ARCHETYPE_FUNCS)


@dataclass(frozen=True)
class SynthConfig:
    classes: tuple[str, ...] = ARCHETYPES
    signals_per_class: int = 50
    signal_len: int = 4096
    noise_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if len(self.classes) < 2:
            raise InvalidConfig("at least two classes required")
        unknown = [c for c in self.classes if c not in ARCHETYPES]
        if unknown:
            raise InvalidConfig(
                f"unknown archetypes {unknown}; known: {list(ARCHETYPES)}"
            )
        if len(set(self.classes)) != len(self.classes):
            raise InvalidConfig("classes must be distinct")
        if self.signals_per_class < 1:
            raise InvalidConfig("signals_per_class must be positive")
        if self.signal_len < 9:
            raise InvalidConfig("signal_len must be at least 9")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in an unsigned 64-bit integer")


def generate(cfg: SynthConfig, part: slice = slice(None)) -> list[PowerSignal]:
    """Generate a labeled synthetic corpus, deterministically in the seed.

    The signals come in (label, source_id) order, and ``part`` picks a slice
    of that order, so a caller can generate them one at a time. Signal j of
    class i (of ``cfg.classes``) has source id ``<label>_<j>``, j zero-padded
    to at least 3 digits and to the width of the last index, and draws from
    the child that ``SeedSequence(cfg.seed).spawn`` gives spawn index
    ``i * signals_per_class + j``, whatever part is generated.
    """
    n = cfg.signals_per_class
    width = max(3, len(str(n - 1)))
    labels = sorted(cfg.classes)
    signals = []
    for p in range(len(labels) * n)[part]:
        label, j = labels[p // n], p % n
        spawn = cfg.classes.index(label) * n + j
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(spawn,)))
        samples = _ARCHETYPE_FUNCS[label](rng, cfg.signal_len, cfg.noise_sigma)
        signals.append(PowerSignal(samples, label, f"{label}_{j:0{width}d}"))
    return signals
