import hashlib
import json
import random
import shutil

import pytest

from conftest import write_config
from texture_nilm import (
    DescriptorConfig,
    EventDetectorConfig,
    FusionStrategy,
    SynthConfig,
    generate,
)
from texture_nilm.cli import main
from texture_nilm.config import (
    apply_overrides,
    config_fingerprint,
    config_from_dict,
    load_config,
)
from texture_nilm.errors import InvalidConfig
from texture_nilm.pipeline import extract_records, records_to_jsonl


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


FEATURES_SHA256 = "b674e9f5579848fd6e3e0206b1e37b860439bf686643ffc129112dee8e382b76"
REPORT_SHA256 = "f8c5c18c3f148231654f022c497c2a89034e244c6f8aba67576da8afeb0a4ca4"


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
        bumped = apply_overrides(cfg, k=5)
        assert config_fingerprint(bumped) != config_fingerprint(cfg)

    def test_seed_override_reaches_both_seeds(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        out = apply_overrides(cfg, seed=321)
        assert out.eval.seed == 321
        assert out.io.synth.seed == 321


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
        # materialize the corpus, then extract again from disk
        assert main(["synth", "--config", str(cfg)]) == 0
        from_disk = tmp_path / "disk.jsonl"
        assert main(["extract", "--config", str(cfg), "--out", str(from_disk)]) == 0
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

    def test_signal_order_does_not_change_output(self):
        signals = generate(SynthConfig(signals_per_class=3, signal_len=1024, seed=5))
        shuffled = list(signals)
        random.Random(3).shuffle(shuffled)
        assert [s.source_id for s in shuffled] != [s.source_id for s in signals]
        detector = EventDetectorConfig(window_len=256)
        dumps = [
            records_to_jsonl(extract_records(batch, detector, DescriptorConfig()))
            for batch in (signals, shuffled)
        ]
        assert dumps[0] and dumps[1] == dumps[0]


class TestEvalCommand:
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
        # ab450be, the last one with two fusion paths, wrote them; only a
        # change to the dump or report format on purpose may re-pin them
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
        dump.write_text("\n".join(json.dumps(r) for r in records) + "\n")
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

    def test_no_events_exits_4(self, tmp_path):
        corpus = write_flat_corpus(tmp_path / "corpus")
        cfg = write_config(
            tmp_path / "c.json",
            io={"output": str(tmp_path / "out"), "input_root": str(corpus)},
        )
        assert main(["eval", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize(
        "count", ["-1", "1e30", "1.5", "9223372036854775808"],
        ids=["negative", "huge_float", "fraction", "over_int64"],
    )
    def test_bad_dump_count_exits_3(self, tmp_path, capsys, count):
        cfg = write_config(tmp_path / "c.json")
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        first, rest = dump.read_text().split("\n", 1)
        record = json.loads(first)
        record["wld"][0] = "@"
        dump.write_text(json.dumps(record).replace('"@"', count) + "\n" + rest)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dump) in err
        assert "line 1: wld counts must be non-negative integers" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("label", "null", "label and source_id must be strings"),
            ("source_id", "7", "label and source_id must be strings"),
            ("onset_index", "1.5", "onset_index must be a non-negative integer"),
            ("onset_index", "-1", "onset_index must be a non-negative integer"),
            ("onset_index", "true", "onset_index must be a non-negative integer"),
        ],
        ids=["null_label", "numeric_source_id", "fraction", "negative", "bool"],
    )
    def test_bad_dump_provenance_exits_3(self, tmp_path, capsys, field, value, message):
        cfg = write_config(tmp_path / "c.json")
        assert main(["extract", "--config", str(cfg)]) == 0
        dump = tmp_path / "out" / "features.jsonl"
        first, rest = dump.read_text().split("\n", 1)
        record = json.loads(first)
        record[field] = "@"
        dump.write_text(json.dumps(record).replace('"@"', value) + "\n" + rest)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dump) in err
        assert f"line 1: {message}" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_non_utf8_dump_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        dump = tmp_path / "out" / "features.jsonl"
        dump.parent.mkdir(parents=True)
        dump.write_bytes(b'{"label": "\xff"}\n')
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
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


class TestReportCommand:
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

    def test_json_that_is_not_a_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["report", str(cfg)]) == 3
        assert "not a report file" in capsys.readouterr().err
