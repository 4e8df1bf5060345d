"""Corpus reading and writing in worker processes against the in-process path.

``data._map_files`` runs one call per file in a pool of ``_usable_cpus()``
workers, and runs the same calls in this process when there are fewer than
two. Each test runs both ways by replacing ``_usable_cpus``, and requires the
same files, the same signals and the same first error.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import traceback
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from conftest import write_config
from oracles import load_csv_ref, write_corpus_ref
from texture_nilm import PowerSignal, cli, data, generate, load_dataset, write_corpus
from texture_nilm.cli import main
from texture_nilm.errors import MalformedCsv, NonMonotoneTimestamps, WorkerDied

MODES = {"in_process": 1, "pool": 2}
DIED = "a corpus I/O worker process died before it finished"
TEST_PID = os.getpid()
# for tests of what only a pool does; the others also pass without one
needs_pool = pytest.mark.skipif(
    not data._FORK_POOL, reason="corpus I/O forks workers only on Linux, Python 3.11+"
)


def run_in_mode(monkeypatch, n, func, *args):
    monkeypatch.setattr(data, "_usable_cpus", lambda: n)
    try:
        return func(*args)
    finally:
        assert multiprocessing.active_children() == []


def outcome(func, *args):
    """The result, or the type and message of the exception."""
    try:
        return func(*args)
    except Exception as exc:
        return type(exc), str(exc)


def signals():
    """15 signals in 3 classes, in (label, source_id) order as write_corpus
    takes them."""
    rng = np.random.default_rng(23)
    out = []
    for label in ("b_kettle", "a_fridge", "c_tv"):
        for i in range(5):
            samples = rng.normal(400.0, 120.0, 64 + 37 * i)
            out.append(PowerSignal(samples, label, f"rec_{i}"))
    return sorted(out, key=lambda s: (s.label, s.source_id))


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def assert_same_signals(got, want):
    assert [(s.label, s.source_id) for s in got] == [(s.label, s.source_id) for s in want]
    for a, b in zip(got, want):
        assert a.samples.dtype == b.samples.dtype
        assert a.samples.tobytes() == b.samples.tobytes()


def mixed_corpus(root):
    """Files for the numeric fast path and for the row parser, in 4 classes."""
    write_corpus(signals(), root)
    iso = ["timestamp,power_w"] + [
        f"2021-03-01T00:00:{t:02d}Z,{100.0 + t * 1.5}" for t in range(40)
    ]
    (root / "a_fridge" / "rec_2b_iso.csv").write_text("\n".join(iso) + "\n")
    crlf = ["timestamp,power_w"] + [f"{t},{7.25 * t + 3}" for t in range(50)]
    (root / "c_tv" / "rec_0a_crlf.csv").write_bytes("\r\n".join(crlf).encode() + b"\r\n")
    (root / "d_mixed").mkdir()
    (root / "d_mixed" / "iso.csv").write_text("\n".join(iso) + "\n")
    (root / "d_mixed" / "plain.csv").write_text("timestamp,power_w\n0,1.5\n2,2.5\n4,1e3\n")
    return root


class TestParity:
    def test_corpus_bytes_match_in_both_modes(self, tmp_path, monkeypatch):
        trees = {}
        for name, n in MODES.items():
            counts = run_in_mode(monkeypatch, n, write_corpus, signals(), tmp_path / name)
            assert counts == {"a_fridge": 5, "b_kettle": 5, "c_tv": 5}
            trees[name] = tree(tmp_path / name)
        assert write_corpus_ref(signals(), tmp_path / "ref") == counts
        assert trees["pool"] == trees["in_process"] == tree(tmp_path / "ref")
        assert len(trees["pool"]) == 15

    @pytest.mark.parametrize("edit", ["repeat", "swap"])
    def test_a_pair_out_of_order_is_refused_and_nothing_is_left(self, tmp_path, monkeypatch, edit):
        # the 12th of 15 signals, after the first chunks have been written
        corpus = signals()
        if edit == "repeat":
            corpus[11] = corpus[10]
        else:
            corpus[10], corpus[11] = corpus[11], corpus[10]
        first, second = ((s.label, s.source_id) for s in corpus[10:12])
        message = f"(label, source_id) order: {second} came after {first}"
        for name, n in MODES.items():
            # the directory that was there stays, and the ones made go
            (tmp_path / name).mkdir()
            root = tmp_path / name / "corpus"
            with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
                run_in_mode(monkeypatch, n, write_corpus, corpus, root)
            assert list((tmp_path / name).iterdir()) == []

    def test_signals_match_in_both_modes(self, tmp_path, monkeypatch):
        root = mixed_corpus(tmp_path / "corpus")
        loaded = {n: run_in_mode(monkeypatch, n, load_dataset, root) for n in MODES.values()}
        paths = sorted(root.glob("*/*.csv"))
        assert len(paths) == 19
        reference = [load_csv_ref(p, p.parent.name) for p in paths]
        assert_same_signals(loaded[1], reference)
        assert_same_signals(loaded[2], reference)

    @needs_pool
    def test_pool_mode_reads_in_worker_processes(self, tmp_path, monkeypatch):
        root = mixed_corpus(tmp_path / "corpus")
        monkeypatch.setattr(data, "_load_csv", load_tagged_with_pid)
        parent = str(os.getpid())
        for n in MODES.values():
            pids = {s.source_id.rsplit("@", 1)[1] for s in run_in_mode(monkeypatch, n, load_dataset, root)}
            assert pids == {parent} if n == 1 else parent not in pids


def load_tagged_with_pid(path, label):
    return PowerSignal([1.0], label, f"{path.stem}@{os.getpid()}")


def bad_corpus(root):
    """Two bad files in different classes; the first in order is also the
    slowest, so in the pool the second fails first."""
    good = "timestamp,power_w\n" + "".join(f"{t},{t + 0.5}\n" for t in range(200))
    for label in ("a_fridge", "b_kettle", "c_tv"):
        (root / label).mkdir(parents=True)
        for i in range(4):
            (root / label / f"rec_{i}.csv").write_text(good)
    non_monotone = "timestamp,power_w\n" + "".join(f"{t},1\n" for t in range(200_000)) + "0,1\n"
    first = root / "a_fridge" / "rec_1x.csv"
    first.write_text(non_monotone)
    second = root / "c_tv" / "rec_0x.csv"
    second.write_text("timestamp,power_w\n0,1\n1,2,3\n")
    return first, second


class TestFirstErrorInOrder:
    @pytest.mark.parametrize("swap", [False, True], ids=["non_monotone_first", "malformed_first"])
    def test_load_raises_the_first_bad_file(self, tmp_path, monkeypatch, swap):
        root = tmp_path / "corpus"
        first, second = bad_corpus(root)
        if swap:
            # the malformed file now sorts first, and the slow one second
            first = first.rename(root / "c_tv" / "rec_9x.csv")
            second = second.rename(root / "a_fridge" / "rec_1x.csv")
        want = {
            False: (NonMonotoneTimestamps, f"{first}: timestamps are not strictly increasing"),
            True: (MalformedCsv, f"{second}: line 3 has 3 fields"),
        }[swap]
        for n in MODES.values():
            assert run_in_mode(monkeypatch, n, outcome, load_dataset, root) == want

    def test_extract_exit_code_and_stderr_match(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "corpus"
        first, _ = bad_corpus(root)
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(root)},
        )
        results = {}
        for n in MODES.values():
            code = run_in_mode(monkeypatch, n, main, ["extract", "--config", str(cfg)])
            results[n] = code, capsys.readouterr()
        assert results[1] == results[2]
        code, captured = results[2]
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {first}: timestamps are not strictly increasing\n"
        assert not (tmp_path / "out" / "features.jsonl").exists()


def test_failed_write_removes_every_written_file(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    keep = root / "b_kettle" / "keep.csv"
    keep.parent.mkdir(parents=True)
    keep.write_text("not written by the call\n")
    # rec_2 of b_kettle is the 8th of 15 files in order
    blocker = root / "b_kettle" / "rec_2.csv"
    blocker.mkdir()
    # each failed call leaves the tree as it found it, so both run on it
    errors = []
    for n in MODES.values():
        with pytest.raises(IsADirectoryError) as info:
            run_in_mode(monkeypatch, n, write_corpus, signals(), root)
        assert info.value.filename == str(blocker)
        errors.append(str(info.value))
        assert sorted(p.relative_to(root) for p in root.rglob("*.csv")) == [
            keep.relative_to(root),
            blocker.relative_to(root),
        ]
        assert blocker.is_dir()
        assert keep.read_text() == "not written by the call\n"
    assert errors[0] == errors[1]


@pytest.mark.parametrize("n", MODES.values(), ids=MODES.keys())
def test_cli_synth_holds_a_bounded_number_of_generated_signals(tmp_path, monkeypatch, n):
    synth = {
        "classes": ["square_wave", "staircase", "duty_cycled"],
        "signals_per_class": 40,
        "signal_len": 256,
        "noise_sigma": 2.0,
        "seed": 7,
    }
    cfg = write_config(tmp_path / "c.json", io={"output": str(tmp_path / "out"), "synth": synth})
    refs, alive = [], []

    def spy_generate(*args):
        signals = generate(*args)
        refs.extend(weakref.ref(s) for s in signals)
        alive.append(sum(ref() is not None for ref in refs))
        return signals

    monkeypatch.setattr(cli, "generate", spy_generate)
    assert run_in_mode(monkeypatch, n, main, ["synth", "--config", str(cfg)]) == 0
    assert len(refs) == 120
    assert len(list((tmp_path / "out" / "corpus").glob("*/*.csv"))) == 120
    # the first _MAX_WORKERS signals size the pool, then each worker has at
    # most two chunks in flight while the next chunk is filled
    assert max(alive) <= data._MAX_WORKERS + (2 * n + 1) * data._CHUNK_FILES < 120


def run_python(code, *args, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-c", code, *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **kwargs,
    )


def wait_for(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def is_running(pid):
    """True while ``pid`` is a process that has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_cli_start_does_not_import_multiprocessing():
    code = (
        "import sys\n"
        "import texture_nilm.cli\n"
        "try:\n"
        "    texture_nilm.cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    out, err = run_python(code).communicate(timeout=60)
    assert out.splitlines()[-1] == "False", err


FORK_THREADS = """
import json, os, sys, threading
import numpy as np
from texture_nilm import data
from texture_nilm.cli import main

data._usable_cpus = lambda: 2
# native id -> name of every Python thread started from here on
started = {}


def record_start(frame, event, arg):
    started[threading.get_native_id()] = threading.current_thread().name
    sys.setprofile(None)


threading.setprofile(record_start)


# the kernel's thread count, and the threads other than this one that /proc
# listed just before it was read, with their Python names
def threads():
    tids = sorted(map(int, os.listdir("/proc/self/task")))
    with open("/proc/self/stat") as fh:
        count = int(fh.read().rsplit(")", 1)[1].split()[17])
    others = [f"{started.get(t, 'not started by Python')} ({t})" for t in tids if t != os.getpid()]
    return count, others


fork = os.fork
after_fork = []


def counting_fork():
    pid = fork()
    if pid:
        after_fork.append(threads())
    return pid


os.fork = counting_fork
a = np.ones((300, 300))
a @ a
before = threads()
for command, config in (("synth", sys.argv[1]), ("extract", sys.argv[2])):
    assert main([command, "--config", config]) == 0
print(json.dumps([before, *after_fork]))
"""


@needs_pool
def test_workers_are_forked_from_a_single_threaded_process(tmp_path):
    # Python 3.12+ warns when it forks a process that has other threads,
    # reading the thread count just after the fork. numpy's OpenBLAS has
    # threads (more than 1 before the forks on a multi-CPU machine), but it
    # stops them before a fork, and the executor starts its own afterwards.
    synth = {
        "classes": ["square_wave", "staircase"],
        "signals_per_class": 4,
        "signal_len": 512,
        "noise_sigma": 2.0,
        "seed": 7,
    }
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", io={"output": str(out_dir), "synth": synth})
    # extract reads the written corpus back, so it forks CSV readers
    read_cfg = write_config(
        tmp_path / "read.json", io={"output": str(out_dir), "input_root": str(out_dir / "corpus")}
    )
    out, err = run_python(FORK_THREADS, cfg, read_cfg).communicate(timeout=120)
    before, *after_fork = json.loads(out.splitlines()[-1])
    # two workers for synth and two for extract; the message names every
    # other thread that a fork saw
    assert [count for count, _ in after_fork] == [1, 1, 1, 1], (before, after_fork, err)


HANG_IN_WORKERS = """
import os, sys, time
from pathlib import Path
from texture_nilm import data

data._usable_cpus = lambda: 2


def load_and_hang(path, label):
    (Path(sys.argv[2]) / str(os.getpid())).touch()
    time.sleep(60)


data._load_csv = load_and_hang
data.load_dataset(sys.argv[1])
"""


@needs_pool
def test_workers_end_when_the_parent_is_killed(tmp_path):
    root = mixed_corpus(tmp_path / "corpus")
    started = tmp_path / "pids"
    started.mkdir()
    proc = run_python(HANG_IN_WORKERS, root, started)
    try:
        wait_for(lambda: len(list(started.iterdir())) == 2)
    finally:
        proc.kill()
        proc.communicate(timeout=60)
    workers = [int(p.name) for p in started.iterdir()]
    try:
        wait_for(lambda: not any(map(is_running, workers)))
    finally:
        for pid in filter(is_running, workers):
            os.kill(pid, signal.SIGKILL)


WRITE_SLOWLY = """
import os, sys, time
from pathlib import Path
import numpy as np
from texture_nilm import PowerSignal, data, write_corpus

data._usable_cpus = lambda: 2
write_csv = data._write_csv


def write_slowly(signal, path):
    write_csv(signal, path)
    (Path(sys.argv[2]) / path.name).touch()
    time.sleep(0.05)
    return path


data._write_csv = write_slowly
signals = [PowerSignal(np.ones(16), "a", f"rec_{i:03d}") for i in range(400)]
write_corpus(signals, sys.argv[1])
"""


@needs_pool
def test_interrupted_write_removes_every_written_file(tmp_path):
    root = tmp_path / "corpus"
    written = tmp_path / "written"
    written.mkdir()
    # Ctrl-C signals the whole process group
    proc = run_python(WRITE_SLOWLY, root, written, start_new_session=True)
    try:
        wait_for(lambda: any(root.glob("a/*.csv")))
        os.killpg(proc.pid, signal.SIGINT)
    finally:
        _, err = proc.communicate(timeout=60)
    assert err.splitlines()[-1] == "KeyboardInterrupt"
    # the chunks that were running when the interrupt came finished, and
    # the rest never started
    assert 0 < len(list(written.iterdir())) < 400
    assert list(root.glob("a/*")) == []


def fail_with_value_error(path, label):
    raise ValueError(f"cannot read {path.name}")


def test_failure_keeps_the_traceback_of_the_failing_call(tmp_path, monkeypatch):
    root = mixed_corpus(tmp_path / "corpus")
    monkeypatch.setattr(data, "_load_csv", fail_with_value_error)
    for n in MODES.values():
        with pytest.raises(ValueError) as info:
            run_in_mode(monkeypatch, n, load_dataset, root)
        assert str(info.value) == "cannot read rec_0.csv"
        text = "".join(traceback.format_exception(info.value))
        assert ", in fail_with_value_error\n" in text


class TwoPartError(Exception):
    def __init__(self, path, reason):
        # args holds one string, so unpickling calls __init__ with too few
        super().__init__(f"{path.name}: {reason}")


def fail_with_two_part_error(path, label):
    raise TwoPartError(path, "bad")


@needs_pool
def test_exception_that_cannot_be_pickled_back_is_reported(tmp_path, monkeypatch):
    root = mixed_corpus(tmp_path / "corpus")
    monkeypatch.setattr(data, "_load_csv", fail_with_two_part_error)
    with pytest.raises(TwoPartError, match="^rec_0.csv: bad$"):
        run_in_mode(monkeypatch, 1, load_dataset, root)
    with pytest.raises(RuntimeError, match="^fail_with_two_part_error raised") as info:
        run_in_mode(monkeypatch, 2, load_dataset, root)
    cause = "".join(traceback.format_exception(info.value.__cause__))
    assert "TwoPartError: rec_0.csv: bad\n" in cause


def die_in_a_worker(path, label):
    if os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return PowerSignal([1.0], label, path.stem)


@needs_pool
def test_a_dead_worker_raises(tmp_path, monkeypatch):
    root = mixed_corpus(tmp_path / "corpus")
    monkeypatch.setattr(data, "_load_csv", die_in_a_worker)
    with pytest.raises(WorkerDied, match=f"^{DIED}$") as info:
        run_in_mode(monkeypatch, 2, load_dataset, root)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


WRITE_CSV = data._write_csv


def write_half_and_die(sig, path):
    # in a worker, b_kettle/rec_2 (the 8th of 15 files) gets half its text
    if os.getpid() != TEST_PID and path.parts[-2:] == ("b_kettle", "rec_2.csv"):
        text = data._csv_text(sig)
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    return WRITE_CSV(sig, path)


@needs_pool
def test_a_worker_killed_in_a_write_leaves_no_file(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    # a file from before the call, which the killed worker was overwriting
    before = root / "b_kettle" / "rec_2.csv"
    before.parent.mkdir(parents=True)
    before.write_text("timestamp,power_w\n0,1.5\n")
    monkeypatch.setattr(data, "_write_csv", write_half_and_die)
    with pytest.raises(WorkerDied, match=f"^{DIED}$") as info:
        run_in_mode(monkeypatch, 2, write_corpus, signals(), root)
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    # the directories the call made are gone, and the one that was there stays
    assert list(root.rglob("*")) == [before.parent]


SYNTH_WITH_A_DEAD_WORKER = """
import os, sys
from texture_nilm import data
from texture_nilm.cli import main

data._usable_cpus = lambda: 2
write_csv = data._write_csv
parent = os.getpid()


def exit_in_a_worker(signal, path):
    if os.getpid() != parent and path.stem == "square_wave_003":
        os._exit(1)
    return write_csv(signal, path)


data._write_csv = exit_in_a_worker
sys.exit(main(["synth", "--config", sys.argv[1]]))
"""


@needs_pool
def test_cli_synth_with_a_dead_worker_exits_3_and_leaves_nothing(tmp_path):
    synth = {
        "classes": ["square_wave", "staircase"],
        "signals_per_class": 12,
        "signal_len": 256,
        "noise_sigma": 2.0,
        "seed": 7,
    }
    cfg = write_config(tmp_path / "c.json", io={"output": str(tmp_path / "out"), "synth": synth})
    proc = run_python(SYNTH_WITH_A_DEAD_WORKER, cfg)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (3, "", f"error: {DIED}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_another_thread_keeps_the_calls_in_process(tmp_path, monkeypatch):
    root = mixed_corpus(tmp_path / "corpus")
    monkeypatch.setattr(data, "_load_csv", load_tagged_with_pid)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        loaded = run_in_mode(monkeypatch, 2, load_dataset, root)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert {s.source_id.rsplit("@", 1)[1] for s in loaded} == {str(TEST_PID)}


@needs_pool
def test_worker_count_is_bounded(monkeypatch):
    monkeypatch.setattr(data, "_usable_cpus", lambda: 64)
    assert data._pool_size(5) == 5
    assert data._pool_size(300) == data._MAX_WORKERS == 8
