"""Cross-validated evaluation: stratified folds, accuracy, macro-F1.

Fold assignment is driven by numpy's PCG64 generator seeded from the config,
so a (dataset order, seed) pair reproduces the exact same partition on any
platform, and reports serialize byte-identically across runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .classify import KnnConfig, LabeledDataset, predict_batch
from .errors import InvalidConfig, TooFewClasses, TooFewSamplesPerClass


@dataclass(frozen=True)
class EvalConfig:
    folds: int = 10
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise InvalidConfig("folds must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in an unsigned 64-bit integer")


@dataclass
class FoldScore:
    fold: int
    accuracy: float
    macro_f1: float
    test_size: int


@dataclass
class EvalReport:
    """Per-fold and pooled evaluation results.

    ``mean_accuracy`` is pooled over the summed confusion matrix, i.e. exactly
    trace(confusion)/sum(confusion); ``mean_macro_f1`` is the unweighted mean
    of the per-fold macro-F1 values.
    """

    class_labels: list[str]
    per_fold: list[FoldScore]
    mean_accuracy: float
    mean_macro_f1: float
    confusion: np.ndarray
    seed: int

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


def stratified_folds(
    ds: LabeledDataset, cfg: EvalConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition dataset indices into (train, test) pairs, one per fold.

    Every index lands in exactly one test set. In stratified mode each class
    is shuffled and dealt round-robin, so per-class test counts differ by at
    most one across folds; remainders go to the earliest folds.
    """
    n = len(ds)
    rng = np.random.default_rng(cfg.seed)
    fold_of = np.empty(n, dtype=np.int64)
    if cfg.stratified:
        labels = np.asarray(ds.labels)
        for label in sorted(set(ds.labels)):
            members = np.flatnonzero(labels == label)
            if members.size < cfg.folds:
                raise TooFewSamplesPerClass(
                    f"class {label!r} has {members.size} items, "
                    f"fewer than {cfg.folds} folds"
                )
            fold_of[rng.permutation(members)] = np.arange(members.size) % cfg.folds
    else:
        if n < cfg.folds:
            raise TooFewSamplesPerClass(
                f"dataset has {n} items, fewer than {cfg.folds} folds"
            )
        for f, chunk in enumerate(np.array_split(rng.permutation(n), cfg.folds)):
            fold_of[chunk] = f
    return [
        (np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
        for f in range(cfg.folds)
    ]


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over a square confusion matrix.

    A class absent from both the true and predicted axes is excluded from the
    mean; a class that is present but never correctly predicted contributes 0.
    """
    c = np.asarray(confusion, dtype=np.int64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("confusion matrix must be square")
    if c.min() < 0:
        raise ValueError("confusion counts must be non-negative")
    tp = np.diag(c)
    actual = c.sum(axis=1)
    predicted = c.sum(axis=0)
    scores = []
    for i in range(c.shape[0]):
        if actual[i] == 0 and predicted[i] == 0:
            continue
        precision = tp[i] / predicted[i] if predicted[i] > 0 else 0.0
        recall = tp[i] / actual[i] if actual[i] > 0 else 0.0
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores)) if scores else 0.0


def run_eval(ds: LabeledDataset, knn: KnnConfig, cfg: EvalConfig) -> EvalReport:
    """Cross-validate a KNN classifier over the dataset.

    Each fold trains on its complement and predicts the fold; per-fold scores
    and the summed confusion matrix go into the report. Deterministic in
    (dataset order, seed, configs). The report holds no config identity: the
    CLI writes the whole pipeline config and its fingerprint next to it.
    """
    labels = ds.class_set
    if len(labels) < 2:
        raise TooFewClasses(
            f"evaluation requires at least two classes, found {labels}"
        )
    index_of = {label: i for i, label in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    per_fold = []
    for f, (train_idx, test_idx) in enumerate(stratified_folds(ds, cfg)):
        train = LabeledDataset(ds.vectors[train_idx], [ds.labels[i] for i in train_idx])
        predictions = predict_batch(train, ds.vectors[test_idx], knn)
        fold_conf = np.zeros_like(confusion)
        for i, predicted in zip(test_idx, predictions):
            fold_conf[index_of[ds.labels[i]], index_of[predicted]] += 1
        confusion += fold_conf
        per_fold.append(
            FoldScore(
                fold=f,
                accuracy=float(np.trace(fold_conf) / fold_conf.sum()),
                macro_f1=macro_f1(fold_conf),
                test_size=int(test_idx.size),
            )
        )
    return EvalReport(
        class_labels=labels,
        per_fold=per_fold,
        mean_accuracy=float(np.trace(confusion) / confusion.sum()),
        mean_macro_f1=float(np.mean([f.macro_f1 for f in per_fold])),
        confusion=confusion,
        seed=cfg.seed,
    )
