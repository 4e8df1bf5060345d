"""The feature table: chunked extraction and the JSONL writer and reader."""

import json
import re
import weakref
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak, write_config
from texture_nilm import (
    DescriptorConfig,
    EventDetectorConfig,
    FusionStrategy,
    SynthConfig,
    cli,
    generate,
    pipeline,
)
from texture_nilm.errors import MalformedCsv
from texture_nilm.fusion import fuse_rows
from texture_nilm.pipeline import FeatureTable, extract_records, load_records, records_to_jsonl

# the corpus conftest.write_config describes
CONFTEST_SYNTH = SynthConfig(
    classes=("square_wave", "staircase", "duty_cycled"),
    signals_per_class=4,
    signal_len=1024,
    noise_sigma=2.0,
    seed=7,
)


def jsonl_ref(table):
    """The dump as one json.dumps call per window writes it."""
    return "".join(
        json.dumps(
            {
                "label": label,
                "source_id": source,
                "onset_index": onset,
                "lbp": lbp.tolist(),
                "wld": wld.tolist(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
        for label, source, onset, lbp, wld in zip(
            table.label, table.source_id, table.onset_index, table.lbp, table.wld
        )
    )


def test_chunk_size_does_not_change_the_dump(monkeypatch):
    signals = generate(CONFTEST_SYNTH)
    detector = EventDetectorConfig(window_len=16)
    dumps = []
    # one window per stack, three (the last stack is short), and the default
    for chunk in (16, 3 * 16, pipeline.CHUNK_SAMPLES):
        monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", chunk)
        table = FeatureTable.joined(extract_records(signals, detector, DescriptorConfig()))
        dumps.append(records_to_jsonl(table))
    assert len(table) % 3 != 0
    assert table.lbp.shape == table.wld.shape == (len(table), 256)
    assert table.lbp.dtype == table.wld.dtype == np.uint8
    assert dumps[0] == dumps[1] == dumps[2] == jsonl_ref(table)


def test_extract_writes_the_dump_a_stack_at_a_time(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "c.json", detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16}
    )
    calls = []
    monkeypatch.setattr(cli, "records_to_jsonl", lambda t: calls.append(t) or records_to_jsonl(t))
    dumps = []
    # one window per stack, three (the last stack is short), and the default
    for chunk in (16, 3 * 16, pipeline.CHUNK_SAMPLES):
        monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", chunk)
        calls.clear()
        assert cli.main(["extract", "--config", str(cfg)]) == 0
        assert max(len(t) for t in calls) <= chunk // 16
        table = FeatureTable.joined(calls)
        dumps.append((tmp_path / "out" / "features.jsonl").read_text())
        assert dumps[-1] == records_to_jsonl(table) == jsonl_ref(table)
    assert len(table) > 3 and len(table) % 3 != 0
    assert dumps[0] == dumps[1] == dumps[2]


def test_extraction_lets_go_of_each_signal_once_it_is_cut(monkeypatch):
    corpus = generate(CONFTEST_SYNTH)
    detector = EventDetectorConfig(window_len=16)
    expected = records_to_jsonl(
        FeatureTable.joined(extract_records(corpus, detector, DescriptorConfig()))
    )
    refs = [weakref.ref(s) for s in corpus]
    n = len(refs)
    # a generator that lets go of each signal as it hands it on; a list, or an
    # iterator over one, would keep every signal until the call returns
    corpus.reverse()
    signals = (corpus.pop() for _ in range(n))
    alive = []
    extract_one = pipeline._extract_one

    def spy(signal, detector):
        alive.append(sum(ref() is not None for ref in refs))
        return extract_one(signal, detector)

    monkeypatch.setattr(pipeline, "_extract_one", spy)
    stacks = extract_records(signals, detector, DescriptorConfig())
    # at the j-th cut, the j signals cut before it are gone
    assert alive == [n - j for j in range(n)]
    assert all(ref() is None for ref in refs)
    assert records_to_jsonl(FeatureTable.joined(stacks)) == expected


def test_emitted_stacks_are_the_returned_stacks(monkeypatch):
    signals = generate(CONFTEST_SYNTH)
    detector = EventDetectorConfig(window_len=16)
    monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", 3 * 16)
    returned = extract_records(signals, detector, DescriptorConfig())
    emitted = []
    assert extract_records(signals, detector, DescriptorConfig(), emit=emitted.append) == []
    assert len(emitted) == len(returned) > 1
    assert [table_state(t) for t in emitted] == [table_state(t) for t in returned]


def test_cli_extract_holds_one_generated_signal_at_each_cut(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "c.json", detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16}
    )
    refs, alive = [], []
    extract_one = pipeline._extract_one

    def spy_generate(*args):
        signals = generate(*args)
        refs.extend(weakref.ref(s) for s in signals)
        return signals

    def spy_cut(signal, detector):
        alive.append(sum(ref() is not None for ref in refs))
        return extract_one(signal, detector)

    monkeypatch.setattr(cli, "generate", spy_generate)
    monkeypatch.setattr(pipeline, "_extract_one", spy_cut)
    assert cli.main(["extract", "--config", str(cfg)]) == 0
    assert len(refs) == len(CONFTEST_SYNTH.classes) * CONFTEST_SYNTH.signals_per_class
    assert alive == [1] * len(refs)


def test_writer_matches_json_dumps_on_any_counts_and_strings(tmp_path):
    lbp = np.zeros((3, 256), dtype=np.int64)
    wld = np.ones((3, 256), dtype=np.int64)
    # the lookup holds strings for 0..768 (the table's 768 counts); 769 is past it
    lbp[0, :5] = 0, 7, 300, 768, 769
    lbp[1, 255] = 2**32 - 1
    wld[2, 10] = 10**9
    table = FeatureTable(
        ["kettle", 'café "x"', "kettle"],
        ["a/b", "s\n☃", "c"],
        [0, 5, 10**30],
        lbp,
        wld,
    )
    text = records_to_jsonl(table)
    assert text == jsonl_ref(table)
    dump = tmp_path / "features.jsonl"
    dump.write_text(text)
    assert records_to_jsonl(load_records(dump)) == text
    empty = np.zeros((0, 256), dtype=np.int64)
    assert records_to_jsonl(FeatureTable([], [], [], empty, empty)) == ""


STEP = pipeline.CHUNK_SAMPLES // 256


def decimal_widths(most):
    """Counts of every decimal width from 1 to ``most`` digits, below 2**32."""
    return st.integers(1, most).flatmap(
        lambda d: st.integers(0 if d == 1 else 10 ** (d - 1), min(10**d - 1, 2**32 - 1))
    )


# plain, quoted, escaped, control and non-ASCII characters
NAMES = st.one_of(
    st.sampled_from(["kettle", 'a "b"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "café ☃ 𝄞"]),
    st.text(max_size=6),
)


@st.composite
def feature_tables(
    draw,
    rows=st.sampled_from([0, 1, STEP - 1, STEP, STEP + 1]),
    names=NAMES,
    counts=decimal_widths(10),
    onsets=st.integers(0, 2**64),
):
    """Tables whose counts come from a few drawn values of any decimal width."""
    n = draw(rows)
    palette = np.array(draw(st.lists(counts, min_size=1, max_size=8)), dtype=np.int64)
    names = draw(st.lists(names, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # mostly small counts, as extraction writes, among the drawn ones
    small = rng.integers(0, 40, (2, n, 256))
    lbp, wld = np.where(rng.random((2, n, 256)) < 0.1, rng.choice(palette, (2, n, 256)), small)
    pick = rng.integers(0, len(names), (2, n)).tolist()
    return FeatureTable(
        [names[i] for i in pick[0]],
        [names[i] for i in pick[1]],
        draw(st.lists(onsets, min_size=n, max_size=n)),
        lbp,
        wld,
    )


@settings(max_examples=40, deadline=None)
@given(feature_tables())
def test_writer_matches_json_dumps(table):
    assert records_to_jsonl(table) == jsonl_ref(table)


def table_rows(table, start, stop):
    """Rows ``start:stop`` of ``table`` as a table of their own."""
    columns = (table.label, table.source_id, table.onset_index, table.lbp, table.wld)
    return FeatureTable(*(column[start:stop] for column in columns))


@settings(max_examples=40, deadline=None)
@given(feature_tables(), st.data())
def test_writer_text_joins_over_any_split_of_the_rows(table, data):
    # cuts may repeat or fall at either end, so some slices may be empty
    cuts = data.draw(st.lists(st.integers(0, len(table)), max_size=6))
    bounds = [0, *sorted(cuts), len(table)]
    slices = [table_rows(table, a, b) for a, b in zip(bounds, bounds[1:])]
    assert "".join(map(records_to_jsonl, slices)) == records_to_jsonl(table)


def table_state(table):
    """Everything a FeatureTable holds, comparable with ==."""
    return (
        table.label,
        table.source_id,
        [(type(onset), onset) for onset in table.onset_index],
        *((bins.dtype, bins.shape, bins.tobytes()) for bins in (table.lbp, table.wld)),
    )


def is_record(obj):
    """Whether a decoded line holds the five fields, each of a type the writer writes."""
    keys = ["label", "lbp", "onset_index", "source_id", "wld"]
    if not isinstance(obj, dict) or sorted(obj) != keys:
        return False
    bins = [obj["lbp"], obj["wld"]]
    # bool is a subclass of int, so JSON true must be ruled out by type
    counts = [v for b in bins if isinstance(b, list) and len(b) == 256 for v in b]
    return (
        isinstance(obj["label"], str)
        and isinstance(obj["source_id"], str)
        and type(obj["onset_index"]) is int
        and obj["onset_index"] >= 0
        and len(counts) == 512
        and all(type(v) is int and 0 <= v < 2**32 for v in counts)
    )


def per_line_read(text):
    """Reference reader: one ``json.loads`` per line, where only "\\n" ends a line.

    A line is kept only if it holds one record that ``json.dumps`` writes back
    as exactly that line, "\\n" included. Gives the table's state, or the
    number of the first line not kept.
    """
    if not text:
        # extract writes no dump without a window, so no text is not a dump
        return 1
    lines = text.split("\n")
    rows = []
    # the piece after the last "\n" is a line only if it is not empty
    for n, line in enumerate(lines[:-1] if not lines[-1] else lines, start=1):
        try:
            record = json.loads(line)
        except ValueError:  # not JSON, or an integer past Python's limit on digits
            return n
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if n == len(lines) or not is_record(record) or canonical != line:
            return n
        rows.append(record)
    columns = ([r[key] for r in rows] for key in ("label", "source_id", "onset_index"))
    counts = (np.array([r[k] for r in rows], np.int64).reshape(-1, 256) for k in ("lbp", "wld"))
    return table_state(FeatureTable(*columns, *counts))


def load_outcome(path):
    """load_records on one file: the table's state, or the line its error names."""
    try:
        return table_state(load_records(path))
    except MalformedCsv as exc:
        message = rf"{re.escape(str(path))}: line (\d+): not a record as extract writes it"
        match = re.fullmatch(message, str(exc))
        assert match, str(exc)
        return int(match[1])


def first_count(key, text):
    """Replace the first count of the line's ``key`` histogram by ``text``."""
    return lambda line: re.sub(rf'"{key}":\[\d+', f'"{key}":[{text}', line, count=1)


# edits of one canonical line; json.loads still reads some of them
PERTURBATIONS = {
    "spaces": lambda line: json.dumps(json.loads(line), sort_keys=True),
    "key_order": lambda line: json.dumps(
        dict(reversed(json.loads(line).items())), separators=(",", ":")
    ),
    "u_escape": lambda line: line.replace('"label":"', '"label":"\\u00e9\\u0041', 1),
    "raw_non_ascii": lambda line: line.replace('"source_id":"', '"source_id":"é☃', 1),
    "float": first_count("lbp", "2.0"),
    "negative": first_count("wld", "-3"),
    "leading_zero": first_count("wld", "01"),
    "19_digits": first_count("lbp", "1000000000000000000"),
    "over_int64": first_count("wld", "9223372036854775808"),
    "2**32": first_count("lbp", "4294967296"),
    "255_counts": lambda line: re.sub(r'"lbp":\[\d+,', '"lbp":[', line, count=1),
    "257_counts": first_count("lbp", "0,0"),
    "no_counts": lambda line: re.sub(r'"wld":\[[0-9,]*\]', '"wld":[]', line),
    "empty_count": first_count("wld", ""),
    "empty_last_count": lambda line: re.sub(r'\d+\],"onset_index"', '],"onset_index"', line),
    "blank_line": lambda line: line + "\n  ",
    "crlf": lambda line: line + "\r",
    "trailing_junk": lambda line: line + "x",
    "two_records": lambda line: line + line,
    "true_onset": lambda line: re.sub(r'"onset_index":\d+', '"onset_index":true', line),
    "19_digit_onset": lambda line: re.sub(
        r'"onset_index":\d+', '"onset_index":1234567890123456789', line
    ),
    "leading_zero_onset": lambda line: re.sub(r'"onset_index":', '"onset_index":0', line),
}


@settings(max_examples=40, deadline=None)
@given(feature_tables())
def test_reader_reads_canonical_dumps_as_the_per_line_reader_does(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("dump") / "features.jsonl"
    text = records_to_jsonl(table)
    path.write_text(text)
    # a table of no rows writes no text, which no dump is
    want = table_state(table) if len(table) else 1
    assert load_outcome(path) == per_line_read(text) == want


EDITS = sorted(PERTURBATIONS) + ["count_moved", "no_final_newline"]


def edited_dump(table, edit, data):
    """The table's dump with one line edited, or without its final newline."""
    lines = records_to_jsonl(table).splitlines()
    # often the last line, which a table of STEP + 1 rows holds in its second stack
    i = data.draw(st.just(len(lines) - 1) | st.integers(0, len(lines) - 1))
    if edit == "count_moved":
        # 255 counts on one line and 257 on the next: 256 per line on average
        j = (i + 1) % len(lines)
        lines[i] = PERTURBATIONS["255_counts"](lines[i])
        lines[j] = PERTURBATIONS["257_counts"](lines[j])
    elif edit != "no_final_newline":
        lines[i] = PERTURBATIONS[edit](lines[i])
    return "\n".join(lines) + ("" if edit == "no_final_newline" else "\n")


@pytest.mark.parametrize("perturbation", EDITS)
@settings(max_examples=8, deadline=None)
@given(feature_tables(rows=st.sampled_from([1, 2, STEP + 1])), st.data())
def test_reader_matches_the_per_line_reader_on_edited_dumps(
    tmp_path_factory, perturbation, table, data
):
    path = tmp_path_factory.mktemp("dump") / "features.jsonl"
    text = edited_dump(table, perturbation, data)
    path.write_text(text)
    assert load_outcome(path) == per_line_read(text)


def first_lines(text, n):
    """The first ``n`` lines of ``text``, each with its "\\n" if it has one."""
    end = 0
    for _ in range(n):
        end = text.find("\n", end) + 1 or len(text)
    return text[:end]


@pytest.mark.parametrize("edit", EDITS)
@settings(max_examples=8, deadline=None)
@given(feature_tables(rows=st.sampled_from([1, 2, STEP + 1])), st.data())
def test_fast_reader_takes_only_text_the_writer_writes(tmp_path_factory, edit, table, data):
    path = tmp_path_factory.mktemp("dump") / "features.jsonl"
    text = edited_dump(table, edit, data)
    path.write_text(text)
    outcome = load_outcome(path)
    if not isinstance(outcome, int):
        assert records_to_jsonl(load_records(path)) == text
        return
    # the first N-1 lines load (if N > 1: no lines is no dump) and the first N do not
    if outcome > 1:
        path.write_text(first_lines(text, outcome - 1))
        assert not isinstance(load_outcome(path), int)
    path.write_text(first_lines(text, outcome))
    assert load_outcome(path) == outcome


def test_blank_lines_are_refused_at_line_1_in_little_memory(tmp_path):
    dump = tmp_path / "features.jsonl"
    dump.write_text("\n" * 100_000)
    line, peak = traced_peak(partial(load_outcome, dump))
    assert line == 1
    # the text is 0.1 MB; two rows of 256 int64 counts per line would be 400 MB
    assert peak < 2**20


def test_canonical_dump_is_read_without_json_loads(monkeypatch, tmp_path):
    table = FeatureTable.joined(
        extract_records(
            generate(CONFTEST_SYNTH), EventDetectorConfig(window_len=16), DescriptorConfig()
        )
    )
    # stacks of 32 lines, so the dump is read in several
    monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", 32 * 256)
    assert len(table) > 3 * 32
    dump = tmp_path / "features.jsonl"
    dump.write_text(records_to_jsonl(table))
    calls = []
    loads = json.loads
    monkeypatch.setattr(pipeline.json, "loads", lambda s: calls.append(s) or loads(s))
    assert table_state(load_records(dump)) == table_state(table)
    assert calls == []


# counts on each side of each width's limit, by the dtype they are stored in
WIDTH_LIMITS = {
    255: np.uint8,
    256: np.uint16,
    65535: np.uint16,
    65536: np.uint32,
    2**32 - 1: np.uint32,
}


@st.composite
def int64_columns(draw):
    """Two int64 count columns whose largest counts lie on width limits.

    Some rows are all zero, so some fail to fuse.
    """
    n = draw(st.sampled_from([1, 2, STEP + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for top in draw(st.lists(st.sampled_from(sorted(WIDTH_LIMITS)), min_size=2, max_size=2)):
        counts = rng.integers(0, 40, (n, 256)) * (rng.random((n, 256)) < 0.3)
        counts[rng.random(n) < 0.1] = 0
        counts[rng.random((n, 256)) < 0.01] = top
        counts[rng.integers(0, n), rng.integers(0, 256)] = top
        columns.append(counts)
    return columns


def fuse_outcome(lbp, wld, strategy):
    try:
        return fuse_rows(lbp, wld, strategy).tobytes()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(int64_columns())
def test_narrowing_changes_no_value(columns):
    lbp, wld = columns
    labels, sources, onsets = ["c"] * len(lbp), ["s"] * len(lbp), list(range(len(lbp)))
    table = FeatureTable(labels, sources, onsets, lbp, wld)
    for wide, narrow in zip(columns, (table.lbp, table.wld)):
        assert narrow.dtype == WIDTH_LIMITS[int(wide.max())]
        assert np.array_equal(narrow, wide)
    wide = SimpleNamespace(label=labels, source_id=sources, onset_index=onsets, lbp=lbp, wld=wld)
    assert records_to_jsonl(table) == jsonl_ref(wide)
    for strategy in FusionStrategy:
        assert fuse_outcome(table.lbp, table.wld, strategy) == fuse_outcome(lbp, wld, strategy)


@pytest.mark.parametrize("name", ["lbp", "wld"])
@pytest.mark.parametrize(
    "bins",
    [
        np.ones((2, 256)),
        np.ones((2, 256), dtype=bool),
        np.full((2, 256), -1, dtype=np.int64),
        np.full((2, 256), 2**32, dtype=np.int64),
        np.full((2, 256), 2**32, dtype=np.uint64),
    ],
    ids=["float", "bool", "negative", "2**32", "2**32_uint64"],
)
def test_a_count_column_outside_the_rule_is_refused(bins, name):
    columns = {kind: np.ones((2, 256), dtype=np.int64) for kind in ("lbp", "wld")}
    columns[name] = bins
    with pytest.raises(ValueError, match=rf"^{name} must hold integer counts in \[0, 2\*\*32\)$"):
        FeatureTable(["c", "c"], ["s", "s"], [0, 1], columns["lbp"], columns["wld"])


@pytest.mark.parametrize(
    "dtype", [np.int64, np.uint16, np.uint64], ids=["empty", "empty_uint16", "empty_uint64"]
)
def test_empty_columns_follow_the_rule(dtype):
    empty = np.zeros((0, 256), dtype=dtype)
    table = FeatureTable([], [], [], empty, empty)
    assert table.lbp.dtype == table.wld.dtype == np.uint8
    assert FeatureTable.joined([]).lbp.dtype == np.uint8


@pytest.mark.parametrize(
    "field, value",
    [
        ("source_id", ["s"]),
        ("onset_index", [0, 1, 2, 3]),
        ("lbp", np.ones((2, 256), dtype=np.int64)),
        ("wld", np.ones((3, 255), dtype=np.int64)),
        ("lbp", np.ones(3 * 256, dtype=np.int64)),
    ],
    ids=["source_id", "onset_index", "lbp_rows", "wld_bins", "lbp_flat"],
)
def test_columns_that_do_not_line_up_are_refused(field, value):
    # else the writer's zip would drop every row past the shortest column
    columns = {
        "label": ["a", "b", "c"],
        "source_id": ["s"] * 3,
        "onset_index": [0, 1, 2],
        "lbp": np.ones((3, 256), dtype=np.int64),
        "wld": np.ones((3, 256), dtype=np.int64),
    }
    columns[field] = value
    with pytest.raises(ValueError, match=field):
        FeatureTable(**columns)


@pytest.mark.parametrize("name", ["lbp", "wld"])
def test_a_uint64_count_past_int64_is_refused(name):
    columns = {kind: np.ones((1, 256), dtype=np.uint64) for kind in ("lbp", "wld")}
    columns[name][0, 7] = 2**63
    with pytest.raises(ValueError, match=rf"^{name} must hold integer counts in \[0, 2\*\*32\)$"):
        FeatureTable(["c"], ["s"], [0], columns["lbp"], columns["wld"])


def test_the_largest_int64_count_round_trips(tmp_path):
    # the largest count an int64 column may carry into a table
    lbp = np.ones((1, 256), dtype=np.int64)
    lbp[0, 7] = 2**32 - 1
    table = FeatureTable(["c"], ["s"], [0], lbp, np.ones((1, 256), dtype=np.uint64))
    assert (table.lbp.dtype, table.wld.dtype) == (np.uint32, np.uint8)
    dump = tmp_path / "features.jsonl"
    dump.write_text(records_to_jsonl(table))
    assert table_state(load_records(dump)) == table_state(table)
    dump.write_text(records_to_jsonl(table).replace("4294967295", "4294967296"))
    with pytest.raises(MalformedCsv, match="line 1: not a record as extract writes it"):
        load_records(dump)


# a corpus of about 1,600 windows of 8x8 grids (36 interior cells)
DENSE_SYNTH = SynthConfig(
    classes=(
        "square_wave", "staircase", "spike_decay", "sinusoid", "constant_drift", "duty_cycled"
    ),
    signals_per_class=10,
    signal_len=4096,
    noise_sigma=3.0,
    seed=5,
)
DENSE_DETECTOR = EventDetectorConfig(window_len=64)


def test_extraction_keeps_one_byte_per_count():
    signals = generate(DENSE_SYNTH)
    table, peak = traced_peak(
        lambda: FeatureTable.joined(extract_records(signals, DENSE_DETECTOR, DescriptorConfig()))
    )
    assert len(table) > 1500
    assert table.lbp.nbytes + table.wld.nbytes == len(table) * 512
    # measured 3.8 MB; two int64 columns alone would take 6.6 MB, and building
    # them from int64 stacks peaked at 9.7 MB
    assert peak < 6 * 2**20


def test_canonical_dump_is_read_into_narrow_columns(tmp_path, monkeypatch):
    table = FeatureTable.joined(
        extract_records(generate(DENSE_SYNTH), DENSE_DETECTOR, DescriptorConfig())
    )
    dump = tmp_path / "features.jsonl"
    dump.write_text(records_to_jsonl(table))
    monkeypatch.setattr(pipeline.json, "loads", mock.Mock(side_effect=AssertionError("slow path")))
    loaded, peak = traced_peak(partial(load_records, dump))
    assert table_state(loaded) == table_state(table)
    # measured 2.04 MiB on the 1.71 MiB dump, read a stack of lines at a time;
    # holding the whole text peaked at 3.60 MiB, and preallocated int64 columns
    # at 9.2 MB
    assert peak < dump.stat().st_size + 2**20


def dense_config(tmp_path):
    """A config of the DENSE_SYNTH corpus four times over: 240 signals, 7.9 MB
    of samples, about 6,500 windows and a 6.9 MB dump."""
    synth = {
        "classes": list(DENSE_SYNTH.classes),
        "signals_per_class": 40,
        "signal_len": DENSE_SYNTH.signal_len,
        "noise_sigma": DENSE_SYNTH.noise_sigma,
        "seed": DENSE_SYNTH.seed,
    }
    return write_config(
        tmp_path / "c.json",
        detector={"window_len": DENSE_DETECTOR.window_len},
        io={"output": str(tmp_path / "out"), "synth": synth},
    )


def test_extract_holds_one_stack_of_the_dump(tmp_path):
    cfg = dense_config(tmp_path)
    code, peak = traced_peak(partial(cli.main, ["extract", "--config", str(cfg)]))
    assert code == 0
    # measured 13.8 MB while every signal lived until the last stack was
    # described (9.1 MB since); building the whole dump text and its join
    # peaked at 17.7 to 18.5 MB (on the 16,210 windows of dense-events:
    # 31.4 MB against 45.1 MB)
    assert peak < 15.5 * 2**20


def test_extract_frees_each_signal_once_it_is_cut(tmp_path):
    cfg = dense_config(tmp_path)
    code, peak = traced_peak(partial(cli.main, ["extract", "--config", str(cfg)]))
    assert code == 0
    # measured 9.1 MB; holding every signal until the last stack was described
    # peaked at 13.9 MB (on the 16,210 windows of dense-events: peak RSS 56 MB
    # against 71 MB)
    assert peak < 11.5 * 2**20


def test_extract_streams_signals_in_and_stacks_out(tmp_path):
    cfg = dense_config(tmp_path)
    code, peak = traced_peak(partial(cli.main, ["extract", "--config", str(cfg)]))
    assert code == 0
    # measured 3.5 MiB, generating each signal when it is cut and writing each
    # stack when it is described; generating the corpus at once and keeping
    # every stack to the end peaked at 9.2 MiB
    assert peak < 5 * 2**20
