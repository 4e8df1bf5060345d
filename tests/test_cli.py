import dataclasses
import hashlib
import json
import os
import shutil
import stat
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_FORMS, write_config
from oracles import config_to_dict_ref
from texture_nilm import (
    ARCHETYPES,
    DescriptorConfig,
    EventDetectorConfig,
    FusionStrategy,
    Metric,
    SynthConfig,
    VoteWeighting,
    cli,
    generate,
    pipeline,
)
from texture_nilm.cli import main
from texture_nilm.config import (
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    load_config,
)
from texture_nilm.errors import InvalidConfig
from texture_nilm.pipeline import FeatureTable, extract_records, load_records, records_to_jsonl


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dump_line(record):
    """One record as a line of features.jsonl: sorted keys and no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


FEATURES_SHA256 = "b674e9f5579848fd6e3e0206b1e37b860439bf686643ffc129112dee8e382b76"
REPORT_SHA256 = "47e8d749d70c2c8ddee21e32f5217971f1f7b02591ca79d1645cf5daa7a1ae46"
# features.jsonl of the write_config corpus at window_len 16 (4x4 grids, one
# padded window), by noise_sigma; without noise most windows are flat
SMALL_GRID_FEATURES_SHA256 = {
    2.0: "8f1f4d5c0a848c7ab80d1d73c36130c2600064efd71eb6db8d6b00cad389d884",
    0.0: "9f14d5bb9a36cfd3c548ef44065242af018fea6e7db9d98e04468c43fc9989a0",
}

# features.jsonl of a one-class corpus of recordings a.csv and a-b.csv: 17 windows
STEM_ORDER_FEATURES_SHA256 = "94490d747cf986db919b3a839e7a8fa7f27d646cff58d1d1b9a4445a8f785484"


def corpus_hashes(root):
    return {p.relative_to(root): sha(p) for p in sorted(root.rglob("*.csv"))}


def write_flat_corpus(root):
    """Two classes of constant signals: repairable but event-free."""
    for label in ("box_a", "box_b"):
        d = root / label
        d.mkdir(parents=True)
        for i in range(2):
            rows = ["timestamp,power_w"] + [f"{t},50.0" for t in range(300)]
            (d / f"rec_{i}.csv").write_text("\n".join(rows) + "\n")
    return root


class TestConfigModule:
    def test_defaults_fill_missing_blocks(self):
        cfg = config_from_dict({"io": {"synth": {}}})
        assert cfg.detector.window_len == 1024
        assert cfg.knn.k == 1
        assert cfg.fusion_strategy is FusionStrategy.SUM
        assert cfg.io.synth == SynthConfig()

    def test_exactly_one_source_required(self):
        with pytest.raises(InvalidConfig):
            config_from_dict({"io": {"input_root": "x", "synth": {}}})
        with pytest.raises(InvalidConfig):
            config_from_dict({"io": {}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfig):
            config_from_dict({"io": {"synth": {}}, "classifier": {}})
        with pytest.raises(InvalidConfig):
            config_from_dict({"io": {"synth": {}, "nope": 1}})

    def test_readme_quick_start_config_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        quick_start = readme.split("## Quick start", 1)[1]
        block = quick_start.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(json.loads(block))
        assert cfg.detector.window_len == 1024
        assert cfg.eval.folds == 10
        assert cfg.io.synth.signals_per_class == 50
        assert cfg.io.synth.classes == ARCHETYPES

    def test_synth_shorter_than_window_rejected(self):
        with pytest.raises(InvalidConfig):
            config_from_dict(
                {
                    "detector": {"window_len": 2048},
                    "io": {"synth": {"signal_len": 1024}},
                }
            )

    def test_fingerprint_stable_and_sensitive(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        cfg = load_config(path)
        assert config_fingerprint(cfg) == config_fingerprint(load_config(path))
        bumped = load_config(path, k=5)
        assert config_fingerprint(bumped) != config_fingerprint(cfg)

    def test_seed_override_reaches_both_seeds(self, tmp_path):
        out = load_config(write_config(tmp_path / "c.json"), seed=321)
        assert out.eval.seed == 321
        assert out.io.synth.seed == 321

    def test_seed_override_of_a_corpus_config_sets_the_eval_seed_alone(self):
        raw = {"eval": {"folds": 3}, "io": {"input_root": "corpus"}}
        out = config_from_dict(raw, seed=321)
        assert out.io.synth is None
        assert out == config_from_dict({**raw, "eval": {"folds": 3, "seed": 321}})


@st.composite
def raw_configs(draw):
    """Config dicts of either corpus source, with each optional io field set or
    unset, every enum value, ints in float fields and blocks left to defaults."""
    window_len = draw(st.integers(9, 4096))
    orientation_bins = 2 ** draw(st.integers(0, 8))
    names = st.text(max_size=8)
    numbers = st.floats(0.01, 1e6) | st.integers(1, 10**6)
    io = {"output": draw(names)}
    if draw(st.booleans()):
        io["synth"] = {
            "classes": draw(st.lists(st.sampled_from(ARCHETYPES), min_size=2, unique=True)),
            "signals_per_class": draw(st.integers(1, 100)),
            "signal_len": draw(st.integers(4096, 10**6)),
            "noise_sigma": draw(st.floats(0, 10)),
            "seed": draw(st.integers(0, 2**64 - 1)),
        }
    else:
        io["input_root"] = draw(names)
    if draw(st.booleans()):
        io["report_csv"] = draw(st.none() | names)
    raw = {
        "detector": {
            "delta_watts": draw(numbers),
            "steady_len": draw(st.integers(1, 50)),
            "window_len": window_len,
        },
        "descriptor": {
            "orientation_bins": orientation_bins,
            "epsilon": draw(numbers),
        },
        "fusion_strategy": draw(st.sampled_from(FusionStrategy)).value,
        "knn": {
            "k": draw(st.integers(1, 9)),
            "metric": draw(st.sampled_from(Metric)).value,
            "weighting": draw(st.sampled_from(VoteWeighting)).value,
        },
        "eval": {
            "folds": draw(st.integers(2, 20)),
            "seed": draw(st.integers(0, 2**64 - 1)),
            "stratified": draw(st.booleans()),
        },
    }
    return {key: block for key, block in raw.items() if draw(st.booleans())} | {"io": io}


OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "strategy": st.sampled_from([s.value for s in FusionStrategy]),
        "k": st.integers(1, 9),
        "metric": st.sampled_from([m.value for m in Metric]),
        "folds": st.integers(2, 20),
        "seed": st.integers(0, 2**64 - 1),
    },
)


# flag -> (block, key) it sets; --seed also sets io.synth.seed when there is one
FLAG_KEYS = {
    "k": ("knn", "k"),
    "metric": ("knn", "metric"),
    "folds": ("eval", "folds"),
    "seed": ("eval", "seed"),
}


def written_in(raw, flags):
    """``raw`` with each flag's value written into the key it sets."""
    raw = {key: dict(block) if isinstance(block, dict) else block for key, block in raw.items()}
    for flag, value in flags.items():
        if flag == "strategy":
            raw["fusion_strategy"] = value
        else:
            block, key = FLAG_KEYS[flag]
            raw.setdefault(block, {})[key] = value
    if "seed" in flags and "synth" in raw["io"]:
        raw["io"]["synth"] = {**raw["io"]["synth"], "seed": flags["seed"]}
    return raw


@settings(max_examples=80, deadline=None)
@given(raw_configs(), OVERRIDES)
def test_config_dict_writes_the_bytes_of_the_field_by_field_one(raw, overrides):
    cfg = config_from_dict(raw, **overrides)
    assert cfg == config_from_dict(written_in(raw, overrides))
    for form in JSON_FORMS:
        assert json.dumps(config_to_dict(cfg), sort_keys=True, **form) == json.dumps(
            config_to_dict_ref(cfg), sort_keys=True, **form
        )


class TestSynthCommand:
    def test_writes_corpus_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["synth", "--config", str(cfg)]) == 0
        corpus = tmp_path / "out" / "corpus"
        for label in ("square_wave", "staircase", "duty_cycled"):
            assert len(list((corpus / label).glob("*.csv"))) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "class=duty_cycled files=4" in lines
        assert lines[-1].startswith("total=12")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(b)]) == 0
        assert corpus_hashes(a) == corpus_hashes(b)

    def test_seed_override_changes_corpus(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out", str(a), "--seed", "1"]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(b)]) == 0
        assert corpus_hashes(a) != corpus_hashes(b)

    def test_requires_synth_block(self, tmp_path, capsys):
        corpus = write_flat_corpus(tmp_path / "corpus")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["synth", "--config", str(cfg)]) == 2
        assert "synth" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["extract", "--config", str(tmp_path / "nope.json")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", "--config", str(bad)]) == 2

    def test_both_sources(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            io={
                "output": str(tmp_path / "out"),
                "input_root": "somewhere",
                "synth": {"signal_len": 1024},
            },
        )
        assert main(["extract", "--config", str(cfg)]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", classifier={"k": 1})
        assert main(["eval", "--config", str(cfg)]) == 2

    # keys the descriptor block does not take: the patch is fixed at 3x3 with
    # 8 neighbors, and orientation_bins fixes the excitation bins
    @pytest.mark.parametrize(
        "key, value", [("patch_size", 3), ("neighbor_count", 8), ("excitation_bins", 32)]
    )
    def test_removed_descriptor_key_is_refused(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.json", descriptor={key: value})
        assert main(["eval", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unknown keys in descriptor: ['{key}']\n"
        assert not (tmp_path / "out").exists()

    # the io block had a sampling rate, which no result depended on; an old
    # report's config block holds it as null
    @pytest.mark.parametrize("rate", [1.0, None])
    @pytest.mark.parametrize("command", ["synth", "extract", "eval"])
    def test_a_sampling_rate_is_refused(self, tmp_path, capsys, command, rate):
        path = write_config(tmp_path / "c.json")
        doc = json.loads(path.read_text())
        doc["io"]["sampling_rate_hz"] = rate
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unknown keys in io: ['sampling_rate_hz']\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["synth", "extract"])
    @pytest.mark.parametrize(
        "flag", [["--strategy", "sum"], ["--k", "5"], ["--metric", "cosine"], ["--folds", "3"]]
    )
    def test_eval_only_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            *(
                (key, value, f"{key} must be {what}, got {json.dumps(value)}")
                for key, value, what in [
                    ("knn.k", 2.5, "an integer"),
                    ("knn.k", True, "an integer"),
                    ("eval.folds", 2.5, "an integer"),
                    ("eval.seed", 1.5, "an integer"),
                    ("eval.stratified", "no", "true or false"),
                    ("detector.window_len", 256.5, "an integer"),
                    ("detector.steady_len", 2.5, "an integer"),
                    ("detector.delta_watts", "15", "a number"),
                    ("descriptor.orientation_bins", 8.0, "an integer"),
                    ("io.synth.signals_per_class", 4.5, "an integer"),
                    ("io.synth.signal_len", 1024.0, "an integer"),
                    ("io.synth.seed", 7.5, "an integer"),
                    ("io.synth.classes", "square_wave", "a list of strings"),
                    ("io.synth.classes", ["staircase", 5], "a list of strings"),
                    ("io.output", 5, "a string"),
                    ("descriptor.epsilon", True, "a number"),
                ]
            ),
            ("io", 5, "io must be a JSON object"),
            # values of the right type that a constructor refuses; "" is the root
            (
                "io.input_root",
                "corpus",
                "bad io block: exactly one of io.input_root and io.synth must be set",
            ),
            ("knn.metric", "manhattan", "bad knn block: 'manhattan' is not a valid Metric"),
            ("knn.weighting", "by_rank", "bad knn block: 'by_rank' is not a valid VoteWeighting"),
            ("", [], "config root must be a JSON object"),
            ("fusion_strategy", "max", "bad fusion_strategy: 'max' is not a valid FusionStrategy"),
            ("io.synth.signals_per_class", 0, "bad io.synth block: signals_per_class must be positive"),
            ("knn.k", 0, "bad knn block: k must be at least 1"),
            ("detector.window_len", 4, "bad detector block: window_len must be at least 9"),
            ("eval.folds", 1, "bad eval block: folds must be at least 2"),
            # a field that may also be null
            ("io.report_csv", 5, "io.report_csv must be a string, got 5"),
        ],
    )
    def test_value_of_the_wrong_type_names_its_key(self, tmp_path, capsys, key, value, message):
        path = write_config(tmp_path / "c.json")
        doc = json.loads(path.read_text())
        if key:
            *blocks, last = key.split(".")
            block = doc
            for name in blocks:
                block = block.setdefault(name, {})
            block[last] = value
        else:
            doc = value
        path.write_text(json.dumps(doc))
        assert main(["extract", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, block",
        [("--k", "0", {"knn": {"k": 0}}), ("--folds", "1", {"eval": {"folds": 1}})],
    )
    def test_bad_flag_value_fails_as_in_the_file(self, tmp_path, capsys, flag, value, block):
        flagged = write_config(tmp_path / "flag.json")
        written = write_config(tmp_path / "file.json", **block)
        assert main(["eval", "--config", str(written)]) == 2
        from_file = capsys.readouterr()
        assert main(["eval", "--config", str(flagged), flag, value]) == 2
        assert capsys.readouterr() == from_file
        assert from_file.err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"io": {"synth": {"classes": ["\xff"]}}}')
        assert main(["extract", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON: ") and "decode" in err


class TestExtractCommand:
    def test_writes_dump_and_prints_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        assert dump.is_file()
        records = [json.loads(line) for line in dump.read_text().splitlines()]
        assert all(len(r["lbp"]) == 256 and len(r["wld"]) == 256 for r in records)
        assert {r["label"] for r in records} == {
            "square_wave",
            "staircase",
            "duty_cycled",
        }
        out = capsys.readouterr().out
        assert "class=square_wave windows=" in out

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        assert main(["extract", "--config", str(cfg)]) == 0
        first = sha(dump)
        assert main(["extract", "--config", str(cfg)]) == 0
        assert sha(dump) == first

    def test_corpus_and_inline_paths_agree(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        inline = tmp_path / "inline.jsonl"
        assert main(["extract", "--config", str(cfg), "--out", str(inline)]) == 0
        # materialize the corpus, then extract again from disk through input_root
        assert main(["synth", "--config", str(cfg)]) == 0
        disk_cfg = write_config(
            tmp_path / "disk.json",
            io={"output": str(tmp_path / "out"), "input_root": str(tmp_path / "out" / "corpus")},
        )
        from_disk = tmp_path / "disk.jsonl"
        assert main(["extract", "--config", str(disk_cfg), "--out", str(from_disk)]) == 0
        assert sha(inline) == sha(from_disk)

    def test_no_events_exits_4(self, tmp_path, capsys):
        corpus = write_flat_corpus(tmp_path / "corpus")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["extract", "--config", str(cfg)]) == 4
        assert "no events" in capsys.readouterr().err
        assert not (tmp_path / "out" / "features.jsonl").exists()
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_no_events_keeps_the_old_dump(self, tmp_path, capsys):
        corpus = write_flat_corpus(tmp_path / "corpus")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir()
        dump.write_bytes(b"an earlier dump\n")
        assert main(["extract", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == "error: no events detected in any signal\n"
        assert dump.read_bytes() == b"an earlier dump\n"
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_one_row_recordings_load_and_yield_no_window(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for label in ("box_a", "box_b"):
            (corpus / label).mkdir(parents=True)
            (corpus / label / "rec.csv").write_text("timestamp,power_w\n0,50.0\n")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["extract", "--config", str(cfg)]) == 4
        assert capsys.readouterr() == ("", "error: no events detected in any signal\n")
        assert not (tmp_path / "out" / "features.jsonl").exists()
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_recordings_of_a_class_come_in_file_stem_order(self, tmp_path):
        # file name "a-b.csv" sorts before "a.csv", but stem "a" before "a-b"
        heater = tmp_path / "corpus" / "heater"
        heater.mkdir(parents=True)
        for name, period in (("a", 20), ("a-b", 24)):
            rows = [f"{t},{100.0 if t // period % 2 else 900.0}" for t in range(200)]
            (heater / f"{name}.csv").write_text("\n".join(["timestamp,power_w", *rows]) + "\n")
        cfg = write_config(
            tmp_path / "c.json",
            detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16},
            io={"output": str(tmp_path / "out"), "input_root": str(tmp_path / "corpus")},
        )
        assert main(["extract", "--config", str(cfg)]) == 0
        # as commit ad2cfd3, which sorted the signals itself, wrote the dump
        assert sha(tmp_path / "out" / "features.jsonl") == STEM_ORDER_FEATURES_SHA256

    def test_failed_stack_write_keeps_the_old_dump(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16},
        )
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir()
        dump.write_bytes(b"an earlier dump\n")
        # three windows per stack, so the dump takes several writes
        monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", 3 * 16)
        calls = []

        def fail_second(table):
            calls.append(len(table))
            if len(calls) == 2:
                raise OSError("disk full")
            return records_to_jsonl(table)

        monkeypatch.setattr(cli, "records_to_jsonl", fail_second)
        assert main(["extract", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: disk full\n"
        assert calls == [3, 3]
        assert dump.read_bytes() == b"an earlier dump\n"
        assert not list(tmp_path.glob("**/*.tmp"))

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            (b"9," + b"0" * 200_000 + b"7", "line 11: field larger than field limit"),
            (b"9,12\xff.5", "not readable as text"),
        ],
        ids=["long_field", "non_utf8"],
    )
    def test_unreadable_recording_exits_3(self, tmp_path, capsys, bad_row, message):
        corpus = write_flat_corpus(tmp_path / "corpus")
        rows = [b"timestamp,power_w"] + [b"%d,50.0" % t for t in range(9)]
        bad = corpus / "box_a" / "bad.csv"
        bad.write_bytes(b"\n".join(rows + [bad_row]) + b"\n")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["extract", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and message in err
        assert not (tmp_path / "out" / "features.jsonl").exists()

    @pytest.mark.parametrize("noise", sorted(SMALL_GRID_FEATURES_SHA256))
    def test_small_grid_dump_is_pinned_and_round_trips(self, tmp_path, noise):
        # the hashes are the dumps as commit fa30808, the last one that
        # extracted one window at a time, wrote them
        cfg = write_config(
            tmp_path / "c.json",
            detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16},
        )
        doc = json.loads(cfg.read_text())
        doc["io"]["synth"]["noise_sigma"] = noise
        cfg.write_text(json.dumps(doc))
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        assert sha(dump) == SMALL_GRID_FEATURES_SHA256[noise]
        assert records_to_jsonl(load_records(dump)) == dump.read_text()

    def test_range_overflow_exits_3(self, tmp_path, capsys):
        # finite samples whose max - min overflows float64
        rows = ["timestamp,power_w"]
        for t in range(100):
            power = {40: 9e307, 50: -9e307}.get(t, 100.0 if t < 50 else 200.0)
            rows.append(f"{t},{power!r}")
        corpus = tmp_path / "corpus"
        (corpus / "heater").mkdir(parents=True)
        (corpus / "heater" / "rec_0.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path / "c.json",
            detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16},
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["extract", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows float64" in err
        assert "label 'heater', source_id 'rec_0', onset 36" in err
        assert not (tmp_path / "out" / "features.jsonl").exists()

    def test_out_of_order_signals_are_refused(self):
        signals = generate(SynthConfig(signals_per_class=3, signal_len=1024, seed=5))
        keys = [(s.label, s.source_id) for s in signals]
        assert keys == sorted(keys)
        # two pairs swapped; the first one is named
        swapped = signals[:2] + [signals[3], signals[2]] + signals[4:9] + [signals[10], signals[9]]
        detector = EventDetectorConfig(window_len=256)
        with pytest.raises(ValueError) as caught:
            extract_records(swapped, detector, DescriptorConfig())
        order = "signals are not in increasing (label, source_id) order"
        assert str(caught.value) == f"{order}: {keys[2]} came after {keys[3]}"

    def test_a_repeated_pair_is_refused(self):
        signals = generate(SynthConfig(signals_per_class=3, signal_len=1024, seed=5))
        # each window is keyed on (label, source_id, onset), so a repeated
        # signal would write windows with the same key
        repeated = signals[:4] + [signals[3]] + signals[4:]
        detector = EventDetectorConfig(window_len=256)
        with pytest.raises(ValueError) as caught:
            extract_records(repeated, detector, DescriptorConfig())
        key = (signals[3].label, signals[3].source_id)
        order = "signals are not in increasing (label, source_id) order"
        assert str(caught.value) == f"{order}: {key} came after {key}"


class TestSignalSource:
    """A synth config generates its signals; out/corpus/ is only synth's export."""

    def test_corpus_of_another_seed_is_not_read(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        inline = tmp_path / "inline.jsonl"
        assert main(["extract", "--config", str(cfg), "--out", str(inline)]) == 0
        assert main(["synth", "--config", str(cfg), "--seed", "5"]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        assert sha(tmp_path / "out" / "features.jsonl") == sha(inline)
        seeded = tmp_path / "seed5.jsonl"
        assert main(["extract", "--config", str(cfg), "--seed", "5", "--out", str(seeded)]) == 0
        assert sha(seeded) != sha(inline)

    def test_malformed_corpus_is_not_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg)]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        want = (sha(out / "report.json"), sha(out / "features.jsonl"))
        shutil.rmtree(out)
        bad = out / "corpus" / "box_a" / "bad.csv"
        bad.parent.mkdir(parents=True)
        bad.write_text("timestamp,power_w\n0,not a number\n")
        capsys.readouterr()
        # eval before extract, so it extracts rather than reading the dump
        assert main(["eval", "--config", str(cfg)]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert (sha(out / "report.json"), sha(out / "features.jsonl")) == want

    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_synth_config_never_loads_a_dataset(self, tmp_path, monkeypatch, command):
        cfg = write_config(tmp_path / "c.json")
        assert main(["synth", "--config", str(cfg)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("load_dataset called on a synth config")

        monkeypatch.setattr("texture_nilm.cli.load_dataset", refuse)
        assert main([command, "--config", str(cfg)]) == 0


# stdout, report.json and io.report_csv SHA-256 of eval on the _seeded_io
# corpus of each synth seed, as commit 6fa6cab wrote them; the report.json
# entries re-pinned when the descriptor config dropped patch_size,
# neighbor_count and excitation_bins, and again when the io config dropped
# sampling_rate_hz and an --strategy all report gained a top-level
# config_fingerprint, which changed only config blocks and fingerprints
EVAL_OUTPUTS = {
    (11, "all"): (
        "sum: accuracy=0.8571428571428571 macro_f1=0.8504729838063171\n"
        "concat: accuracy=0.8571428571428571 macro_f1=0.8504729838063171\n"
        "mult: accuracy=0.5952380952380952 macro_f1=0.5618165784832451\n"
        "ordering confirmed: sum >= concat >= mult\n",
        "78d9030c6aec462ab888cb127f7c38149b8461987473d70fa85246417adfa767",
        "48ee38ac48b592ac5b4647dd8abd728e52c1abb95a005f48f2a770d575d7447e",
    ),
    (11, "concat"): (
        "accuracy=0.8571428571428571 macro_f1=0.8504729838063171\n",
        "87106d6db98f1dad50a7fcb867b5fefc8fbfe412392ec0b7264ca9093e1812e0",
        "90ef0646d7d9f0518dd7dff5b058d6226596a19a63377325666c4ef1b94990e3",
    ),
    (13, "all"): (
        "sum: accuracy=0.825 macro_f1=0.8163860830527497\n"
        "concat: accuracy=0.85 macro_f1=0.845630912297579\n"
        "mult: accuracy=0.7 macro_f1=0.6869809203142535\n"
        "ordering deviation: expected sum >= concat >= mult; "
        "observed sum=0.825 concat=0.85 mult=0.7\n",
        "7c2e166043506eaa389e0598de5c7725bc3825347cf61c101c98e2f901bea84e",
        "8186f358d2286d92e4cd7018c24685d18f278e616ac4c6d24001fc7fae5d3227",
    ),
}


# SHA-256 of the stdout of `report` on the report.json of each EVAL_OUTPUTS
# case, as commit 40f34e2 printed it, re-pinned with those reports (twice)
# for the fingerprint lines alone
REPORT_STDOUT_SHA256 = {
    (11, "all"): "f2f56d15656b51a37cb7d1e7ebef6acc39091214fe4c273c4b0cc01c06ddd49b",
    (11, "concat"): "3baff2b9a303e2dee52ab0f9cd2ed1f484e6d1a4e1a3ad85b955c5e946de1692",
    (13, "all"): "a04cfe1a8aad8f8147742bf9ea3c31b96881682f29d4aa00d3e80fe27f1dc8ab",
}


class TestEvalCommand:
    @pytest.mark.parametrize("seed, strategy", sorted(EVAL_OUTPUTS))
    def test_eval_outputs_are_pinned(self, tmp_path, monkeypatch, capsys, seed, strategy):
        monkeypatch.chdir(tmp_path)
        io = {**_seeded_io(tmp_path, seed), "output": "out", "report_csv": "out/folds.csv"}
        cfg = write_config(tmp_path / "c.json", io=io)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--strategy", strategy]) == 0
        got = (
            capsys.readouterr().out,
            sha(tmp_path / "out" / "report.json"),
            sha(tmp_path / "out" / "folds.csv"),
        )
        assert got == EVAL_OUTPUTS[seed, strategy]

    @pytest.mark.parametrize("flags", [[], ["--strategy", "all"]])
    def test_report_config_blocks_load_back(self, tmp_path, flags):
        path = write_config(tmp_path / "c.json", io=_seeded_io(tmp_path, 11))
        assert main(["eval", "--config", str(path), *flags]) == 0
        cfg = load_config(path)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        # the document, then each strategy's section of an --strategy all run
        expected = [(doc, cfg)] + [
            (section, dataclasses.replace(cfg, fusion_strategy=FusionStrategy(name)))
            for name, section in doc.get("strategies", {}).items()
        ]
        assert len(expected) == (4 if flags else 1)
        for section, want in expected:
            loaded = config_from_dict(section["config"])
            assert loaded == want
            assert config_fingerprint(loaded) == section["config_fingerprint"]

    def test_writes_report_and_prints_metrics(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["eval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tool_version"]
        assert report["config"]["fusion_strategy"] == "sum"
        assert 0.0 <= report["mean_accuracy"] <= 1.0
        assert len(report["per_fold"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        assert " macro_f1=" in out

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = tmp_path / "out" / "report.json"
        assert main(["eval", "--config", str(cfg)]) == 0
        first = sha(report)
        assert main(["eval", "--config", str(cfg)]) == 0
        assert sha(report) == first

    def test_artifact_bytes_are_pinned(self, tmp_path, monkeypatch):
        # FEATURES_SHA256 and REPORT_SHA256 are the artifacts as commit
        # ab450be, the last one with two fusion paths, wrote them (the report
        # re-pinned for the smaller descriptor and io config blocks); only a change
        # to the dump or report format on purpose may re-pin them
        monkeypatch.chdir(tmp_path)
        io = {**_seeded_io(tmp_path, 7), "output": "out"}
        cfg = write_config(tmp_path / "c.json", io=io)
        for command in ("synth", "extract", "eval"):
            assert main([command, "--config", str(cfg)]) == 0
        assert sha(tmp_path / "out" / "features.jsonl") == FEATURES_SHA256
        assert sha(tmp_path / "out" / "report.json") == REPORT_SHA256

    def test_full_pipeline_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        artifacts = {}
        for run in ("one", "two"):
            out = tmp_path / "out"
            if out.exists():
                import shutil

                shutil.rmtree(out)
            assert main(["synth", "--config", str(cfg)]) == 0
            assert main(["extract", "--config", str(cfg)]) == 0
            assert main(["eval", "--config", str(cfg)]) == 0
            artifacts[run] = (
                corpus_hashes(out / "corpus"),
                sha(out / "features.jsonl"),
                sha(out / "report.json"),
            )
        assert artifacts["one"] == artifacts["two"]

    def test_eval_prefers_existing_dump(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        records = []
        for label, spike in (("left", 3), ("right", 9)):
            for i in range(6):
                lbp = [0] * 256
                wld = [0] * 256
                lbp[spike + (i % 2)] = 10
                wld[spike + (i % 2)] = 10
                records.append(
                    {
                        "label": label,
                        "source_id": f"{label}_{i}",
                        "onset_index": i,
                        "lbp": lbp,
                        "wld": wld,
                    }
                )
        dump.write_text("".join(map(dump_line, records)))
        assert main(["eval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["class_labels"] == ["left", "right"]

    def test_one_class_corpus_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "corp"
        synth_cfg = write_config(tmp_path / "s.json")
        assert main(["synth", "--config", str(synth_cfg), "--out", str(corpus)]) == 0
        kept = sorted(p.name for p in corpus.iterdir())[0]
        for class_dir in corpus.iterdir():
            if class_dir.name != kept:
                shutil.rmtree(class_dir)
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least two classes" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_corrupt_dump_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        dump.write_text('{"label": "x"}\n')
        assert main(["eval", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "blank_line"])
    def test_empty_dump_exits_3_at_line_1(self, tmp_path, capsys, text):
        # extract never writes an empty dump, so it says nothing about events
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        dump.write_text(text)
        assert main(["eval", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {dump}: line 1: not a record as extract writes it\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_no_events_exits_4(self, tmp_path):
        corpus = write_flat_corpus(tmp_path / "corpus")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["eval", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize(
        "count", ["-1", "1e30", "1.5", "9223372036854775808", "4294967296"],
        ids=["negative", "huge_float", "fraction", "over_int64", "2**32"],
    )
    def test_bad_dump_count_exits_3(self, tmp_path, capsys, count):
        cfg = write_config(tmp_path / "c.json")
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        first, rest = dump.read_text().split("\n", 1)
        record = json.loads(first)
        record["wld"][0] = "@"
        dump.write_text(dump_line(record).replace('"@"', count) + rest)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {dump}: line 1: not a record as extract writes it\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", "null"),
            ("source_id", "7"),
            ("onset_index", "1.5"),
            ("onset_index", "-1"),
            ("onset_index", "true"),
        ],
        ids=["null_label", "numeric_source_id", "fraction", "negative", "bool"],
    )
    def test_bad_dump_provenance_exits_3(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "c.json")
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        first, rest = dump.read_text().split("\n", 1)
        record = json.loads(first)
        record[field] = "@"
        dump.write_text(dump_line(record).replace('"@"', value) + rest)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {dump}: line 1: not a record as extract writes it\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_non_canonical_dump_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        # the same records with spaces after every separator
        lines = dump.read_text().splitlines()
        dump.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {dump}: line 1: not a record as extract writes it\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_escaped_class_names_give_the_same_report(self, tmp_path):
        corpus = tmp_path / "corpus"
        synth_cfg = write_config(tmp_path / "s.json")
        assert main(["synth", "--config", str(synth_cfg), "--out", str(corpus)]) == 0
        # names the dump writes with a \u escape, a \" and a \\
        names = ["café", 'a"b', "back\\slash"]
        for class_dir, name in zip(sorted(corpus.iterdir()), names):
            class_dir.rename(corpus / name)
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        windows = Counter(load_records(dump).label)
        assert sorted(windows) == sorted(names) and min(windows.values()) >= 10
        report = tmp_path / "out" / "report.json"
        assert main(["eval", "--config", str(cfg)]) == 0
        from_dump = report.read_bytes()
        dump.unlink()
        assert main(["eval", "--config", str(cfg)]) == 0
        assert report.read_bytes() == from_dump

    @pytest.mark.parametrize(
        "strategy, lbp, wld, message",
        [
            ("mult", {3: 5}, {4: 5}, "disjoint support"),
            ("sum", {}, {4: 5}, "lbp histogram has zero total mass"),
            ("concat", {3: 5}, {}, "wld histogram has zero total mass"),
        ],
        ids=["disjoint", "empty_lbp", "empty_wld"],
    )
    def test_fusion_error_names_its_window(self, tmp_path, capsys, strategy, lbp, wld, message):
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        records = []
        for i, label in enumerate(["left"] * 3 + ["right"] * 3):
            record = {"label": label, "lbp": [1] * 256, "onset_index": 10 * i}
            records.append({**record, "source_id": f"rec_{i}", "wld": [1] * 256})
        for key, bins in (("lbp", lbp), ("wld", wld)):
            records[4][key] = [bins.get(b, 0) for b in range(256)]
        dump.write_text("".join(map(dump_line, records)))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--strategy", strategy]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "(label 'right', source_id 'rec_4', onset 40)" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "field, digits", [('"onset_index":', "9" * 5000), ('"lbp":[', "9" * 5000 + ",")],
        ids=["onset", "count"],
    )
    def test_integer_past_the_digit_limit_exits_3(self, tmp_path, capsys, field, digits):
        # int() refuses integers of more than 4,300 digits with a plain ValueError
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        record = {"label": "a", "lbp": [1] * 256, "onset_index": 0, "source_id": "s"}
        line = dump_line({**record, "wld": [1] * 256})
        dump.write_text(line.replace(field, field + digits, 1))
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {dump}: line 1: not a record as extract writes it\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_report_is_the_same_with_and_without_a_dump(self, tmp_path):
        # without a dump, eval fuses the narrowed counts extraction keeps in memory
        cfg = write_config(tmp_path / "c.json")
        report = tmp_path / "out" / "report.json"
        assert main(["eval", "--config", str(cfg)]) == 0
        extracted = report.read_bytes()
        assert main(["extract", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg)]) == 0
        assert report.read_bytes() == extracted

    @pytest.mark.parametrize("past_first_stack", [False, True], ids=["line_1", "line_200"])
    def test_non_utf8_dump_exits_3(self, tmp_path, capsys, past_first_stack):
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        if past_first_stack:
            # the dump is read a stack of 128 lines at a time, decoded 8 KiB at a time
            record = {"label": "a", "lbp": [1] * 256, "onset_index": 0, "source_id": "s"}
            lines = [dump_line({**record, "wld": [1] * 256}).encode()] * 300
            lines[199] = lines[199].replace(b'"a"', b'"\xff"')
            assert sum(map(len, lines[:199])) > 8 * 1024
            dump.write_bytes(b"".join(lines))
        else:
            dump.write_bytes(b'{"label": "\xff"}\n')
        assert main(["eval", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "not readable as text" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_fingerprints_differ_only_in_strategy(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", io=_seeded_io(tmp_path, 11))
        docs = {}
        for strategy in ("sum", "concat", "mult"):
            out = tmp_path / f"report_{strategy}.json"
            code = main(
                ["eval", "--config", str(cfg), "--strategy", strategy, "--out", str(out)]
            )
            assert code == 0
            docs[strategy] = json.loads(out.read_text())
        prints = {d["config_fingerprint"] for d in docs.values()}
        assert len(prints) == 3
        for strategy, doc in docs.items():
            assert doc["config"]["fusion_strategy"] == strategy
            stripped = dict(doc["config"])
            stripped.pop("fusion_strategy")
            baseline = dict(docs["sum"]["config"])
            baseline.pop("fusion_strategy")
            assert stripped == baseline

    def test_strategy_all_confirmed_ordering(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", io=_seeded_io(tmp_path, 11))
        assert main(["eval", "--config", str(cfg), "--strategy", "all"]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(doc["strategies"]) == {"sum", "concat", "mult"}
        ordering = doc["ordering"]
        accs = {
            name: doc["strategies"][name]["mean_accuracy"]
            for name in ("sum", "concat", "mult")
        }
        expected = accs["sum"] >= accs["concat"] >= accs["mult"]
        assert ordering["confirmed"] is expected
        out = capsys.readouterr().out
        for name in ("sum", "concat", "mult"):
            assert f"{name}: accuracy=" in out
        assert "ordering" in out

    def test_ordering_deviation_is_reported(self, tmp_path, capsys):
        # synth seed 13 produces concat > sum on this small corpus
        cfg = write_config(tmp_path / "c.json", io=_seeded_io(tmp_path, 13))
        assert main(["eval", "--config", str(cfg), "--strategy", "all"]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        ordering = doc["ordering"]
        accs = {
            name: doc["strategies"][name]["mean_accuracy"]
            for name in ("sum", "concat", "mult")
        }
        expected = accs["sum"] >= accs["concat"] >= accs["mult"]
        assert ordering["confirmed"] is expected
        out = capsys.readouterr().out
        if expected:
            assert "ordering confirmed" in out
        else:
            assert ordering["deviation"]
            assert "ordering deviation" in out

    def test_csv_flattening(self, tmp_path):
        csv_path = tmp_path / "folds.csv"
        io_block = {
            "output": str(tmp_path / "out"),
            "synth": _seeded_io(tmp_path, 11)["synth"],
            "report_csv": str(csv_path),
        }
        cfg = write_config(tmp_path / "c.json", io=io_block)
        assert main(["eval", "--config", str(cfg)]) == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "fold,accuracy,macro_f1"
        assert rows[-1].startswith("aggregate,")
        assert len(rows) == 5

    def test_k_flag_acts_as_k_written_in_the_file(self, tmp_path):
        # k=1 forces uniform votes, which k=5 written in the file does not keep
        knn = {"k": 1, "weighting": "inverse_distance"}
        flagged = write_config(tmp_path / "flag.json", knn=knn)
        written = write_config(tmp_path / "file.json", knn={**knn, "k": 5})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["eval", "--config", str(flagged), "--k", "5", "--out", str(a)]) == 0
        assert main(["eval", "--config", str(written), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["config"]["knn"]["weighting"] == "inverse_distance"

    def test_override_changes_fingerprint(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = tmp_path / "out" / "report.json"
        assert main(["eval", "--config", str(cfg)]) == 0
        base = json.loads(report.read_text())["config_fingerprint"]
        assert main(["eval", "--config", str(cfg), "--k", "3"]) == 0
        assert json.loads(report.read_text())["config_fingerprint"] != base

    def test_failed_write_cleans_up_partial_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        target = tmp_path / "report_dir"
        target.mkdir()
        assert main(["eval", "--config", str(cfg), "--out", str(target)]) == 3
        assert not list(tmp_path.glob("report_dir.tmp"))
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_a_fifo_target_is_written_in_place(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = tmp_path / "report.json"
        assert main(["eval", "--config", str(cfg), "--out", str(report)]) == 0
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        # a daemon, so a reader left waiting cannot keep the tests from exiting
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["eval", "--config", str(cfg), "--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == [report.read_bytes()]
        assert not list(tmp_path.glob("*.tmp"))


def _seeded_io(tmp_path, seed):
    return {
        "output": str(tmp_path / "out"),
        "synth": {
            "classes": ["square_wave", "staircase", "duty_cycled"],
            "signals_per_class": 4,
            "signal_len": 1024,
            "noise_sigma": 2.0,
            "seed": seed,
        },
    }


# a report section that `report` renders
SECTION = {
    "per_fold": [{"fold": 0, "accuracy": 1.0, "macro_f1": 1.0, "test_size": 1}],
    "mean_accuracy": 1.0,
    "mean_macro_f1": 1.0,
    "class_labels": ["a"],
    "confusion": [[1]],
    "config_fingerprint": "f",
    "seed": 7,
}


class TestReportCommand:
    def test_renders_a_section(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"strategies": {"sum": SECTION}, "ordering": {}}))
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "[sum]"

    def test_pretty_prints_single_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["eval", "--config", str(cfg)]) == 0
        assert main(["report", str(tmp_path / "out" / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        assert "confusion" in out
        assert "fingerprint=" in out

    def test_pretty_prints_combined_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", io=_seeded_io(tmp_path, 11))
        assert main(["eval", "--config", str(cfg), "--strategy", "all"]) == 0
        assert main(["report", str(tmp_path / "out" / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "[sum]" in out
        assert "[mult]" in out
        assert "ordering" in out

    def test_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 3

    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["report", str(bad)]) == 3

    def test_non_utf8_report_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_bytes(b'{"class_labels": ["\xff"]}')
        assert main(["report", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: not valid JSON: ") and "decode" in err

    @pytest.mark.parametrize("seed, strategy", sorted(REPORT_STDOUT_SHA256))
    def test_report_output_is_pinned(self, tmp_path, monkeypatch, capsys, seed, strategy):
        monkeypatch.chdir(tmp_path)
        io = {**_seeded_io(tmp_path, seed), "output": "out", "report_csv": "out/folds.csv"}
        cfg = write_config(tmp_path / "c.json", io=io)
        assert main(["eval", "--config", str(cfg), "--strategy", strategy]) == 0
        assert sha(tmp_path / "out" / "report.json") == EVAL_OUTPUTS[seed, strategy][1]
        capsys.readouterr()
        assert main(["report", "out/report.json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_STDOUT_SHA256[seed, strategy]

    @pytest.mark.parametrize(
        "doc",
        [
            {"mean_accuracy": 1.0},
            {"strategies": {}},
            {"strategies": {"foo": 1}, "ordering": {"confirmed": True, "observed": "x"}},
            {"strategies": {"sum": {"per_fold": []}}},
            [],
            {"strategies": {"sum": SECTION}, "ordering": 5},
        ],
        ids=[
            "no_per_fold", "no_strategies", "unknown_strategy", "broken_section", "list",
            "ordering_not_an_object",
        ],
    )
    def test_a_document_it_cannot_render_prints_nothing(self, tmp_path, capsys, doc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: not a report file (")

    def test_json_that_is_not_a_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["report", str(cfg)]) == 3
        assert "not a report file" in capsys.readouterr().err
