import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_FORMS, dataset_from_single_descriptor, sweep_table, traced_peak
from oracles import (
    knn_predict_exact_ref,
    macro_f1_ref,
    report_to_dict_ref,
    stratified_folds_ref,
)
from texture_nilm import (
    DescriptorConfig,
    EvalConfig,
    EvalReport,
    EventDetectorConfig,
    KnnConfig,
    LabeledDataset,
    SynthConfig,
    evaluation,
    generate,
    macro_f1,
    run_eval,
    stratified_folds,
)
from texture_nilm.errors import InvalidConfig, TooFewClasses, TooFewSamplesPerClass
from texture_nilm.evaluation import FoldScore
from texture_nilm.pipeline import FeatureTable, dataset_from_records, extract_records


def report_json(report):
    """The report's fields encoded as ``cmd_eval`` writes them."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def dataset(labels, rng=None, dims=4):
    rng = rng or np.random.default_rng(0)
    return LabeledDataset(rng.normal(size=(len(labels), dims)), list(labels))


def duplicate_vector_dataset(per_class=6, classes=("a", "b", "c")):
    """Within-class identical vectors, distinct across classes."""
    vectors = []
    labels = []
    for i, label in enumerate(classes):
        prototype = np.zeros(4)
        prototype[i % 4] = float(i + 1)
        for _ in range(per_class):
            vectors.append(prototype)
            labels.append(label)
    return LabeledDataset(np.vstack(vectors), labels)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert (cfg.folds, cfg.stratified) == (10, True)

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            EvalConfig(folds=1)
        with pytest.raises(InvalidConfig):
            EvalConfig(seed=-1)


class TestStratifiedFolds:
    def test_exact_divisibility(self):
        ds = dataset(["a"] * 5 + ["b"] * 5)
        folds = stratified_folds(ds, EvalConfig(folds=5, seed=3))
        for train, test in folds:
            assert test.size == 2
            assert sorted(ds.labels[i] for i in test) == ["a", "b"]
            assert train.size == 8

    def test_deterministic_in_seed(self):
        ds = dataset(["a"] * 9 + ["b"] * 7)
        first = stratified_folds(ds, EvalConfig(folds=3, seed=42))
        second = stratified_folds(ds, EvalConfig(folds=3, seed=42))
        for (tr1, te1), (tr2, te2) in zip(first, second):
            assert np.array_equal(tr1, tr2)
            assert np.array_equal(te1, te2)

    def test_balanced_remainder(self):
        ds = dataset(["only"] * 7)
        folds = stratified_folds(ds, EvalConfig(folds=3, seed=0))
        assert sorted(test.size for _, test in folds) == [2, 2, 3]

    def test_too_few_samples(self):
        ds = dataset(["a"] * 2 + ["b"] * 9)
        with pytest.raises(TooFewSamplesPerClass):
            stratified_folds(ds, EvalConfig(folds=3, seed=0))

    def test_unstratified_partition(self):
        ds = dataset(["a"] * 3 + ["b"] * 8)
        folds = stratified_folds(ds, EvalConfig(folds=4, seed=1, stratified=False))
        sizes = sorted(test.size for _, test in folds)
        assert sizes == [2, 3, 3, 3]
        seen = np.sort(np.concatenate([test for _, test in folds]))
        assert np.array_equal(seen, np.arange(len(ds)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5), st.integers(0, 10**6))
    def test_partition_properties(self, seed, folds, data_seed):
        rng = np.random.default_rng(data_seed)
        labels = [f"c{i}" for i in range(3) for _ in range(int(rng.integers(folds, 3 * folds)))]
        ds = dataset(labels, rng)
        cfg = EvalConfig(folds=folds, seed=seed)
        parts = stratified_folds(ds, cfg)
        all_test = np.concatenate([test for _, test in parts])
        assert np.array_equal(np.sort(all_test), np.arange(len(ds)))
        label_arr = np.asarray(ds.labels)
        for label in set(labels):
            per_fold = [int(np.sum(label_arr[test] == label)) for _, test in parts]
            assert max(per_fold) - min(per_fold) <= 1
        for train, test in parts:
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == len(ds)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), min_size=2, max_size=60),
        st.integers(2, 6),
        st.integers(0, 2**64 - 1),
        st.booleans(),
    )
    def test_matches_frozen_fold_lists(self, labels, folds, seed, stratified):
        ds = dataset(labels)
        cfg = EvalConfig(folds=folds, seed=seed, stratified=stratified)
        try:
            expected = stratified_folds_ref(ds, cfg)
        except TooFewSamplesPerClass as exc:
            with pytest.raises(TooFewSamplesPerClass) as caught:
                stratified_folds(ds, cfg)
            assert str(caught.value) == str(exc)
            return
        got = stratified_folds(ds, cfg)
        assert len(got) == len(expected)
        for (train, test), (train_ref, test_ref) in zip(got, expected):
            assert (train.dtype, test.dtype) == (train_ref.dtype, test_ref.dtype)
            assert np.array_equal(train, train_ref)
            assert np.array_equal(test, test_ref)


class TestMacroF1:
    def test_perfect_diagonal(self):
        assert macro_f1(np.diag([4, 2, 9])) == 1.0

    def test_worked_example(self):
        # class A: P=8/9, R=4/5 -> F1=16/19; class B: P=9/11, R=9/10 -> 6/7
        confusion = [[8, 2], [1, 9]]
        assert macro_f1(confusion) == pytest.approx(113 / 133, abs=1e-12)
        assert macro_f1(confusion) == pytest.approx(macro_f1_ref(confusion), abs=1e-12)

    def test_absent_class_excluded(self):
        confusion = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        assert macro_f1(confusion) == 1.0

    def test_present_but_never_correct_contributes_zero(self):
        confusion = np.array([[4, 1], [2, 0]])
        # class B has P=0, R=0 -> F1_B = 0; mean with F1_A
        precision_a = 4 / 6
        recall_a = 4 / 5
        f1_a = 2 * precision_a * recall_a / (precision_a + recall_a)
        assert macro_f1(confusion) == pytest.approx(f1_a / 2, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            macro_f1(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            macro_f1(np.array([[1, -1], [0, 2]]))

    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_matches_reference(self, seed, size):
        rng = np.random.default_rng(seed)
        confusion = rng.integers(0, 20, size=(size, size))
        assert macro_f1(confusion) == pytest.approx(
            macro_f1_ref(confusion.tolist()), abs=1e-12
        )


class TestRunEval:
    def test_duplicate_vectors_classify_perfectly(self):
        ds = duplicate_vector_dataset()
        report = run_eval(ds, KnnConfig(k=1), EvalConfig(folds=3, seed=5))
        assert report.mean_accuracy == 1.0
        assert report.mean_macro_f1 == 1.0
        assert np.trace(report.confusion) == len(ds)

    def test_single_class_rejected(self):
        ds = dataset(["only"] * 10)
        with pytest.raises(ValueError):
            run_eval(ds, KnnConfig(), EvalConfig(folds=2, seed=0))
        with pytest.raises(TooFewClasses):
            run_eval(ds, KnnConfig(), EvalConfig(folds=2, seed=0))

    def test_confusion_invariants(self):
        rng = np.random.default_rng(9)
        ds = dataset(["a"] * 12 + ["b"] * 9 + ["c"] * 7, rng)
        report = run_eval(ds, KnnConfig(k=3), EvalConfig(folds=3, seed=1))
        assert report.confusion.sum() == len(ds)
        assert report.confusion[0].sum() == 12
        assert report.confusion[1].sum() == 9
        assert report.confusion[2].sum() == 7
        assert report.mean_accuracy == np.trace(report.confusion) / len(ds)
        assert 0.0 <= report.mean_accuracy <= 1.0
        assert 0.0 <= report.mean_macro_f1 <= 1.0
        assert sum(f.test_size for f in report.per_fold) == len(ds)

    def test_serialization_is_byte_identical_across_runs(self):
        rng = np.random.default_rng(13)
        ds = dataset(["a"] * 10 + ["b"] * 10, rng)
        first = run_eval(ds, KnnConfig(k=3), EvalConfig(folds=5, seed=2))
        second = run_eval(ds, KnnConfig(k=3), EvalConfig(folds=5, seed=2))
        assert report_json(first) == report_json(second)

    def test_permuted_duplicate_dataset_still_perfect(self):
        ds = duplicate_vector_dataset()
        rng = np.random.default_rng(21)
        order = rng.permutation(len(ds))
        permuted = LabeledDataset(ds.vectors[order], [ds.labels[i] for i in order])
        report = run_eval(permuted, KnnConfig(k=1), EvalConfig(folds=3, seed=5))
        assert report.mean_accuracy == 1.0

    @pytest.mark.parametrize(
        "metric, k, weighting, bound",
        [
            # measured 7.26 MiB, 1.77x the 4.10 MiB dataset, when each fold
            # copied its training rows; re-ranking candidates 2**20 elements
            # at a time, by differences and squares built out of place,
            # peaked at 10.38 MiB (2.53x). Selecting the fold's rows instead
            # measured 1.98 MiB (0.48x), and freeing each gathered chunk
            # before the next, 1.76 MiB (0.43x)
            ("euclidean", 5, "inverse_distance", 2.0),
            # measured 1.68 MiB (0.41x) on the shortlist of the whole-matrix
            # GEMM, against 4.82 MiB (1.18x) when each fold copied its
            # training rows for one gemv per query; the bound adds the 0.23
            # margin of the Euclidean row
            ("cosine", 1, "uniform", 0.64),
        ],
    )
    def test_concat_folds_keep_small_temporaries(
        self, sweep_records, metric, k, weighting, bound
    ):
        ds = dataset_from_records(sweep_records, "concat")
        knn = KnnConfig(k=k, metric=metric, weighting=weighting)
        report, peak = traced_peak(partial(run_eval, ds, knn, EvalConfig(folds=10, seed=7)))
        assert report.confusion.sum() == len(ds)
        assert peak < bound * ds.vectors.nbytes


    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_folds_copy_no_training_rows(self, small_corpus_datasets, metric):
        # the fold's training rows are selected from the whole matrix, so the
        # call allocates less than one fold's training rows (0.74 MiB):
        # 0.65 MiB for either metric, 1.35 MiB for a cosine that copies them
        ds = small_corpus_datasets["concat"]
        cfg = EvalConfig(folds=10, seed=7)
        knn = KnnConfig(k=5, metric=metric)
        report, peak = traced_peak(partial(run_eval, ds, knn, cfg))
        assert report.confusion.sum() == len(ds)
        n_train = max(len(train) for train, _ in stratified_folds(ds, cfg))
        assert peak < n_train * ds.vectors.shape[1] * 8


@st.composite
def eval_reports(draw):
    n = draw(st.integers(1, 4))
    scores = st.builds(
        FoldScore, st.integers(0, 20), st.floats(0, 1), st.floats(0, 1), st.integers(1, 10**4)
    )
    counts = st.lists(st.integers(0, 2**63 - 1), min_size=n * n, max_size=n * n)
    return EvalReport(
        class_labels=draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)),
        per_fold=draw(st.lists(scores, min_size=1, max_size=4)),
        mean_accuracy=draw(st.floats(0, 1)),
        mean_macro_f1=draw(st.floats(0, 1)),
        confusion=np.array(draw(counts), dtype=np.int64).reshape(n, n),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def assert_same_json(report):
    for form in JSON_FORMS:
        assert json.dumps(report.to_dict(), sort_keys=True, **form) == json.dumps(
            report_to_dict_ref(report), sort_keys=True, **form
        )


@settings(max_examples=60, deadline=None)
@given(eval_reports())
def test_report_dict_writes_the_bytes_of_the_field_by_field_one(report):
    assert_same_json(report)


def test_run_eval_report_dict_writes_the_bytes_of_the_field_by_field_one():
    rng = np.random.default_rng(13)
    ds = dataset(["a"] * 10 + ["b"] * 10 + ["c"] * 7, rng)
    assert_same_json(run_eval(ds, KnnConfig(k=3), EvalConfig(folds=5, seed=2)))


@pytest.fixture(scope="module")
def small_corpus_datasets():
    """sum, concat, lbp-only and wld-only datasets of a 10-signal-per-class corpus."""
    synth = SynthConfig(signals_per_class=10, seed=20240601)
    records = FeatureTable.joined(
        extract_records(generate(synth), EventDetectorConfig(window_len=1024), DescriptorConfig())
    )
    return {
        "sum": dataset_from_records(records, "sum"),
        "concat": dataset_from_records(records, "concat"),
        "lbp": dataset_from_single_descriptor(records, "lbp"),
        "wld": dataset_from_single_descriptor(records, "wld"),
    }


def reference_predict_batch(train, queries, cfg, *, rows):
    # its own contiguous copy of the fold's training rows
    vectors = np.ascontiguousarray(train.vectors[rows])
    labels = [train.labels[i] for i in rows]
    return [
        knn_predict_exact_ref(vectors, labels, q, cfg.k, cfg.metric.value, cfg.weighting.value)
        for q in queries
    ]


def assert_report_matches_reference(monkeypatch, ds, knn):
    cfg = EvalConfig(folds=10, seed=7)
    fast = report_json(run_eval(ds, knn, cfg))
    monkeypatch.setattr(evaluation, "predict_batch", reference_predict_batch)
    assert report_json(run_eval(ds, knn, cfg)) == fast


class TestReportParity:
    """Reports are byte-identical to those of the original per-query scan."""

    @pytest.mark.parametrize("name", ["sum", "concat", "lbp", "wld"])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize(
        "k, weighting",
        [
            (1, "uniform"),
            (3, "uniform"),
            (3, "inverse_distance"),
            (5, "uniform"),
            (5, "inverse_distance"),
        ],
    )
    def test_matches_reference_loop(
        self, small_corpus_datasets, monkeypatch, name, metric, k, weighting
    ):
        knn = KnnConfig(k=k, metric=metric, weighting=weighting)
        assert_report_matches_reference(monkeypatch, small_corpus_datasets[name], knn)


class TestGemvReportParity:
    """Cosine reports on the benchmark's corpora are byte-identical to those of
    the gemv scan, :func:`knn_predict_exact_ref`. Its distances may differ
    from the classifier's per-pair ones in their last bits, and so may the
    inverse-distance votes built from them."""

    @pytest.mark.parametrize("seed", [20240601, 20240602])
    @pytest.mark.parametrize("name", ["sum", "concat"])
    @pytest.mark.parametrize("k, weighting", [(1, "uniform"), (5, "inverse_distance")])
    def test_benchmark_corpora(self, sweep_records, monkeypatch, seed, name, k, weighting):
        table = sweep_records if seed == 20240601 else sweep_table(seed)
        knn = KnnConfig(k=k, metric="cosine", weighting=weighting)
        assert_report_matches_reference(monkeypatch, dataset_from_records(table, name), knn)

    def test_short_windows_with_near_ties(self, monkeypatch):
        ds = dataset_from_records(sweep_table(20240601, window_len=256), "sum")
        knn = KnnConfig(k=5, metric="cosine", weighting="inverse_distance")
        assert_report_matches_reference(monkeypatch, ds, knn)
