"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success). Thresholds are fixed here, not calibrated after the
fact: oracle equivalence must be exact, sum and concat fusion on the synthetic
benchmark must reach 0.95 mean accuracy, sum must stay within 0.02 of the best
single descriptor, and the end-to-end CLI must be byte-deterministic.
"""

import hashlib
import json
import shutil
import time

import numpy as np

from conftest import constant_matrix, dataset_from_single_descriptor, fuse_one, write_config
from oracles import lbp_histogram_ref, wld_histogram_ref
from texture_nilm import (
    DescriptorConfig,
    EvalConfig,
    EventDetectorConfig,
    KnnConfig,
    LabeledDataset,
    Matrix2D,
    SynthConfig,
    generate,
    lbp_histogram,
    predict,
    run_eval,
    wld_histogram,
)
from texture_nilm.cli import main
from texture_nilm.errors import DegenerateProduct
from texture_nilm.pipeline import dataset_from_records, extract_records

BENCH_SYNTH = SynthConfig(
    signals_per_class=50, signal_len=4096, noise_sigma=3.0, seed=20240601
)
BENCH_KNN = KnnConfig(k=1, metric="euclidean")
BENCH_EVAL = EvalConfig(folds=10, seed=7)


def _criterion(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status} - {name}{suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


def _oracle_matrices(count=100, size=8):
    rng = np.random.default_rng(8712)
    return [Matrix2D(rng.integers(0, 256, size=(size, size))) for _ in range(count)]


def test_criterion_1_lbp_oracle_equivalence():
    matrices = _oracle_matrices()
    start = time.perf_counter()
    exact = True
    for m in matrices:
        got = lbp_histogram(m)
        exact &= got.bins.tolist() == lbp_histogram_ref(m.cells.tolist())
        exact &= got.total == 36
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "LBP bin-for-bin oracle equivalence on 100 random 8x8 matrices",
        exact and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_2_wld_oracle_equivalence():
    cfg = DescriptorConfig()
    matrices = _oracle_matrices()
    start = time.perf_counter()
    exact = True
    for m in matrices:
        got = wld_histogram(m, cfg)
        exact &= got.bins.tolist() == wld_histogram_ref(m.cells.tolist())
        exact &= got.total == 36
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "WLD bin-for-bin oracle equivalence on 100 random 8x8 matrices",
        exact and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_3_degenerate_textures():
    cfg = DescriptorConfig()
    center_bin = cfg.excitation_bins // 2  # orientation bin 0, excitation middle
    ok = True
    for size in range(3, 33):
        interior = (size - 2) ** 2
        m = constant_matrix(77, size)
        lbp = lbp_histogram(m)
        wld = wld_histogram(m, cfg)
        ok &= lbp.bins[255] == interior and lbp.bins.sum() == interior
        ok &= wld.bins[center_bin] == interior and wld.bins.sum() == interior
    _criterion(
        3,
        "constant matrices 3x3..32x32 mass LBP bin 255 and WLD (0, Mx/2) bin",
        ok,
    )


def test_criterion_4_fusion_algebra():
    rng = np.random.default_rng(5150)
    ok = True
    for _ in range(1000):
        a = rng.integers(0, 50, size=256).astype(float)
        b = rng.integers(0, 50, size=256).astype(float)
        a[int(rng.integers(0, 256))] += 1
        b[int(rng.integers(0, 256))] += 1
        overlap = int(rng.integers(0, 256))
        a[overlap] += 1
        b[overlap] += 1
        total = fuse_one(a, b, "sum")
        ok &= np.array_equal(total, fuse_one(b, a, "sum"))
        prod = fuse_one(a, b, "mult")
        ok &= np.array_equal(prod, fuse_one(b, a, "mult"))
        cat = fuse_one(a, b, "concat")
        ok &= cat.shape == (512,)
        for v in (total, prod, cat):
            ok &= abs(v.sum() - 1.0) <= 1e-9 and v.min() >= 0.0

        sa, sb = float(rng.uniform(1e-3, 1e3)), float(rng.uniform(1e-3, 1e3))
        scaled = fuse_one(a * sa, b * sb, "sum")
        ok &= np.allclose(total, scaled, atol=1e-9)
    _criterion(
        4,
        "fusion commutativity, concat length, L1 normalization, scale invariance "
        "over 1000 random pairs",
        ok,
    )


def test_criterion_5_knn_correctness():
    rng = np.random.default_rng(777)
    train = LabeledDataset(
        rng.uniform(0.0, 1.0, size=(120, 32)), [f"c{i % 6}" for i in range(120)]
    )
    self_ok = all(
        predict(train, train.vectors[i], KnnConfig(k=1)) == train.labels[i]
        for i in range(len(train))
    )

    five = LabeledDataset(
        np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [5.0, 0.0], [0.5, 3.0]]),
        ["A", "A", "B", "B", "A"],
    )
    fixture_ok = (
        predict(five, np.array([3.0, 0.0]), KnnConfig(k=1)) == "B"
        and predict(five, np.array([3.0, 0.0]), KnnConfig(k=3)) == "B"
    )

    cosine = KnnConfig(k=3, metric="cosine")
    cos_train = LabeledDataset(
        rng.uniform(0.1, 1.0, size=(60, 16)), [f"c{i % 4}" for i in range(60)]
    )
    scale_ok = True
    for _ in range(30):
        query = rng.uniform(0.1, 1.0, size=16)
        base = predict(cos_train, query, cosine)
        for factor in (1e-3, 0.02, 1.0, 57.3, 1e3):
            scale_ok &= predict(cos_train, query * factor, cosine) == base

    _criterion(
        5,
        "k=1 self-classification, hand-computed fixture, cosine query-scale "
        "invariance over [1e-3, 1e3]",
        self_ok and fixture_ok and scale_ok,
    )


def test_criterion_6_pipeline_determinism(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    hashes = []
    for _ in range(2):
        out = tmp_path / "out"
        if out.exists():
            shutil.rmtree(out)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg)]) == 0
        corpus = tuple(
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((out / "corpus").rglob("*.csv"))
        )
        hashes.append(
            (
                corpus,
                hashlib.sha256((out / "features.jsonl").read_bytes()).hexdigest(),
                hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
            )
        )
    _criterion(
        6,
        "synth -> extract -> eval twice is byte-identical "
        "(corpus, feature dump, report)",
        hashes[0] == hashes[1],
    )


def test_criterion_7_synthetic_benchmark():
    # the README accuracy table: fusion strategies against single descriptors
    start = time.perf_counter()
    records = extract_records(
        generate(BENCH_SYNTH), EventDetectorConfig(), DescriptorConfig()
    )
    reports = {
        "sum": run_eval(dataset_from_records(records, "sum"), BENCH_KNN, BENCH_EVAL),
        "concat": run_eval(
            dataset_from_records(records, "concat"), BENCH_KNN, BENCH_EVAL
        ),
        "lbp": run_eval(
            dataset_from_single_descriptor(records, "lbp"), BENCH_KNN, BENCH_EVAL
        ),
        "wld": run_eval(
            dataset_from_single_descriptor(records, "wld"), BENCH_KNN, BENCH_EVAL
        ),
    }
    try:
        dataset_from_records(records, "mult")
        mult = "not skipped"
    except DegenerateProduct as exc:
        mult = f"skipped ({exc})"
    elapsed = time.perf_counter() - start

    fused = reports["sum"].mean_accuracy
    gate_accuracy = fused >= 0.95 and reports["concat"].mean_accuracy >= 0.95
    best_single = max(reports["lbp"].mean_accuracy, reports["wld"].mean_accuracy)
    gate_fusion = fused >= best_single - 0.02
    gate_mult = mult.startswith("skipped")
    gate_runtime = elapsed < 60.0
    rows = " ".join(
        f"{name}={rep.mean_accuracy:.4f}/{rep.mean_macro_f1:.4f}"
        for name, rep in reports.items()
    )
    _criterion(
        7,
        "6x50 synthetic benchmark: sum and concat fusion >= 0.95, sum >= best "
        "single - 0.02, mult degenerate",
        gate_accuracy and gate_fusion and gate_mult and gate_runtime,
        f"accuracy/macro_f1 {rows} mult={mult} elapsed={elapsed:.1f}s",
    )


def test_criterion_8_ordering_check_on_disk_corpus(tmp_path):
    # stands in for a user-supplied corpus in the on-disk layout; the report
    # must either confirm the sum >= concat >= mult ordering or spell out the
    # deviation
    synth_cfg = write_config(tmp_path / "synth.json", io={
        "output": str(tmp_path / "seeded"),
        "synth": {
            "classes": ["square_wave", "staircase", "duty_cycled"],
            "signals_per_class": 4,
            "signal_len": 1024,
            "noise_sigma": 2.0,
            "seed": 11,
        },
    })
    corpus = tmp_path / "user_corpus"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(corpus)]) == 0

    eval_cfg = write_config(tmp_path / "eval.json", io={
        "output": str(tmp_path / "out"),
        "input_root": str(corpus),
    })
    assert main(["eval", "--config", str(eval_cfg), "--strategy", "all"]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    ordering = doc["ordering"]
    accs = {
        name: doc["strategies"][name]["mean_accuracy"]
        for name in ("sum", "concat", "mult")
    }
    holds = accs["sum"] >= accs["concat"] >= accs["mult"]
    reported_correctly = ordering["confirmed"] is holds and (
        ordering["deviation"] is None if holds else bool(ordering["deviation"])
    )
    _criterion(
        8,
        "ordering property on a supplied corpus is confirmed or the deviation "
        "is reported",
        reported_correctly,
        ordering["observed"],
    )
