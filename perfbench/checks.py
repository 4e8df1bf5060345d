"""Output checks: every CLI artifact is compared with an independent source.

Artifacts are read by content, never by byte layout, so a later header line
in `features.jsonl` or a reordered report does not read as a failure:

- window counts and onsets against the scalar oracles in `tests/oracles.py`
  run over the generator's signals (and, on the default seed, against the
  counts recorded at the seed commit);
- the LBP and WLD histograms of a seeded sample of windows against the
  oracle histograms;
- sampled CSV files against the generator's samples;
- every report against its own invariants and, on the default seed, against
  the accuracy, macro-F1 and confusion recorded at the seed commit.

Repeated and traced jobs of one run must write byte-identical artifacts to
the first job, which shows the run is deterministic and the tracing wrappers
only observe.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    CLASSES,
    CORPUS_PATH,
    DETECTOR,
    FEATURES_PATH,
    EvalVariant,
    Workload,
    report_path,
)

SAMPLED_WINDOWS = 20
RECORDED = Path(__file__).resolve().parent / "expected.json"


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Command:
    """One CLI command of a job and what the checks found wrong with it."""

    step: str
    argv: list[str]
    seconds: float = 0.0
    rss_mb: float | None = None
    returncode: int = -1
    stdout: str = ""
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.errors)


@dataclass
class Expected:
    """What a workload's outputs must contain for one generator seed."""

    counts: dict[str, int]
    onsets: set[tuple[str, str, int]]
    sample: list[tuple[str, str, int, list[int], list[int]]]
    csv_samples: dict[tuple[str, str], list[float]]
    recorded: dict | None

    @classmethod
    def build(cls, workload: Workload, seed: int, root: Path) -> "Expected":
        from texture_nilm import SynthConfig, generate

        oracles = load_oracles(root)
        block = workload.synth_block(seed)
        block["classes"] = tuple(block["classes"])
        signals = generate(SynthConfig(**block))
        counts: dict[str, int] = {}
        windows = []
        repaired = {}
        for s in signals:
            values = oracles.impute_ref(s.samples.tolist())
            repaired[(s.label, s.source_id)] = values
            onsets = oracles.detect_onsets_ref(
                values, DETECTOR["delta_watts"], DETECTOR["steady_len"], workload.window_len
            )
            counts[s.label] = counts.get(s.label, 0) + len(onsets)
            windows += [(s.label, s.source_id, onset) for onset in onsets]

        picked = random.Random(seed).sample(windows, min(SAMPLED_WINDOWS, len(windows)))
        sample = []
        for label, source_id, onset in sorted(picked):
            values = repaired[(label, source_id)]
            cut = values[onset : onset + workload.window_len]
            cut += [values[-1]] * (workload.window_len - len(cut))
            cells = oracles.reshape_ref(cut)
            sample.append(
                (label, source_id, onset, oracles.lbp_histogram_ref(cells), oracles.wld_histogram_ref(cells))
            )
        by_key = {(s.label, s.source_id): s.samples.tolist() for s in signals}
        csv_samples = {}
        if workload.synth:
            csv_samples = {(label, sid): by_key[(label, sid)] for label, sid, *_ in sample}

        recorded = None
        doc = json.loads(RECORDED.read_text())
        if doc["seed"] == seed:
            recorded = doc["workloads"][workload.name]
        # a class without windows is absent from extract's output and reports
        counts = {label: n for label, n in counts.items() if n}
        return cls(counts, set(windows), sample, csv_samples, recorded)


_CLASS_LINE = re.compile(r"^class=(\S+) (files|windows)=(\d+)$")
_ACCURACY_LINE = re.compile(r"^accuracy=(\S+) macro_f1=(\S+)$")


def _class_counts(stdout: str, unit: str) -> dict[str, int]:
    out = {}
    for line in stdout.splitlines():
        m = _CLASS_LINE.match(line.strip())
        if m and m.group(2) == unit:
            out[m.group(1)] = int(m.group(3))
    return out


def _feature_records(path: Path) -> dict[tuple[str, str, int], dict]:
    """Window records by (label, source_id, onset); other lines are skipped."""
    records = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if isinstance(obj, dict) and {"label", "source_id", "onset_index", "lbp", "wld"} <= obj.keys():
            records[(obj["label"], obj["source_id"], int(obj["onset_index"]))] = obj
    return records


def check_synth(cmd: Command, workload: Workload, expected: Expected, job_dir: Path) -> None:
    files = _class_counts(cmd.stdout, "files")
    want = {label: workload.signals_per_class for label in CLASSES}
    if files != want:
        cmd.errors.append(f"synth printed file counts {files}, expected {want}")
    for (label, source_id), samples in expected.csv_samples.items():
        path = job_dir / CORPUS_PATH / label / f"{source_id}.csv"
        try:
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            stamps = [float(r[0]) for r in rows]
            powers = [float(r[1]) for r in rows]
        except (OSError, ValueError, IndexError) as exc:
            cmd.errors.append(f"cannot read {path.name}: {exc!r}")
            continue
        if [c.strip() for c in header] != ["timestamp", "power_w"]:
            cmd.errors.append(f"{path.name}: bad header {header}")
        if powers != samples or stamps != [float(i) for i in range(len(samples))]:
            cmd.errors.append(f"{path.name} does not reload to the generator's samples")


def check_extract(cmd: Command, expected: Expected, job_dir: Path) -> None:
    counts = _class_counts(cmd.stdout, "windows")
    if counts != expected.counts:
        cmd.errors.append(f"extract printed window counts {counts}, oracle gives {expected.counts}")
    if expected.recorded and counts != expected.recorded["windows"]:
        cmd.errors.append(f"extract printed window counts {counts}, recorded {expected.recorded['windows']}")
    try:
        records = _feature_records(job_dir / FEATURES_PATH)
    except (OSError, ValueError, TypeError) as exc:
        cmd.errors.append(f"unreadable features.jsonl: {exc!r}")
        return
    if set(records) != expected.onsets:
        extra = len(set(records) - expected.onsets)
        lost = len(expected.onsets - set(records))
        cmd.errors.append(f"features.jsonl windows differ from the oracle onsets: {extra} extra, {lost} missing")
    for label, source_id, onset, lbp, wld in expected.sample:
        rec = records.get((label, source_id, onset))
        if rec is None:
            continue  # already reported as missing
        if rec["lbp"] != lbp:
            cmd.errors.append(f"LBP histogram of {source_id}@{onset} differs from the oracle")
        if rec["wld"] != wld:
            cmd.errors.append(f"WLD histogram of {source_id}@{onset} differs from the oracle")


def check_eval(cmd: Command, variant: EvalVariant, expected: Expected, job_dir: Path) -> None:
    try:
        report = json.loads((job_dir / report_path(variant)).read_text())
        cmd.errors += _report_errors(report, cmd.stdout, variant, expected)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        cmd.errors.append(f"unreadable report: {exc!r}")


def _report_errors(report: dict, stdout: str, variant: EvalVariant, expected: Expected) -> list[str]:
    errors = []
    labels = report["class_labels"]
    confusion = report["confusion"]
    accuracy = report["mean_accuracy"]
    macro_f1 = report["mean_macro_f1"]
    knn = report["config"]["knn"]
    settings = (report["config"]["fusion_strategy"], knn["metric"], knn["k"], knn["weighting"])
    if settings != (variant.strategy, variant.metric, variant.k, variant.weighting):
        errors.append(f"report was computed with {settings}, not {variant}")
    if labels != sorted(expected.counts):
        errors.append(f"report classes {labels} differ from {sorted(expected.counts)}")
    rows = {label: sum(row) for label, row in zip(labels, confusion)}
    if rows != expected.counts:
        errors.append(f"confusion row sums {rows} differ from the window counts {expected.counts}")
    total = sum(map(sum, confusion))
    trace = sum(confusion[i][i] for i in range(len(confusion)))
    if total == 0 or accuracy != trace / total:
        errors.append(f"mean_accuracy {accuracy!r} is not trace/sum {trace}/{total}")
    m = next(filter(None, map(_ACCURACY_LINE.match, stdout.splitlines())), None)
    if m is None or float(m.group(1)) != accuracy or float(m.group(2)) != macro_f1:
        errors.append("printed accuracy/macro_f1 do not match the report")
    if expected.recorded:
        want = expected.recorded["reports"][variant.name]
        got = {"mean_accuracy": accuracy, "mean_macro_f1": macro_f1, "confusion": confusion}
        if got != want:
            errors.append(f"report differs from the recorded values: {got} != {want}")
    return errors


def artifacts(workload: Workload, job_dir: Path) -> dict[str, bytes]:
    """Artifacts that every job of one run must write byte-identically."""
    paths = [FEATURES_PATH] + [report_path(v) for v in workload.evals]
    out = {}
    for rel in paths:
        path = job_dir / rel
        out[rel] = path.read_bytes() if path.is_file() else b""
    return out


def check_job(
    workload: Workload,
    commands: list[Command],
    expected: Expected,
    job_dir: Path,
    reference: dict[str, bytes] | None,
) -> dict[str, bytes]:
    """Check one finished job. The first job of a run is checked by content;
    later ones must match its artifacts byte for byte. Returns the artifacts."""
    variants = {f"eval:{v.name}": v for v in workload.evals}
    produced = artifacts(workload, job_dir)
    for cmd in commands:
        if cmd.returncode != 0:
            continue
        if cmd.step == "synth" and reference is None:
            check_synth(cmd, workload, expected, job_dir)
        elif cmd.step == "extract":
            if reference is None:
                check_extract(cmd, expected, job_dir)
            elif _class_counts(cmd.stdout, "windows") != expected.counts:
                cmd.errors.append("extract printed other window counts than the oracle")
            elif produced[FEATURES_PATH] != reference[FEATURES_PATH]:
                cmd.errors.append("features.jsonl differs from the run's first job")
        elif cmd.step in variants:
            rel = report_path(variants[cmd.step])
            if reference is None:
                check_eval(cmd, variants[cmd.step], expected, job_dir)
            elif produced[rel] != reference[rel]:
                cmd.errors.append(f"{rel} differs from the run's first job")
    return produced
