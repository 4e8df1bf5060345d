"""Exact nearest-neighbor classification over feature vectors.

Predictions are bit-for-bit those of a full per-query scan with the exact
formulas below, but most of the scan is replaced by matrix products.

Euclidean uses filter-and-refine. One GEMM per block of queries gives
approximate squared distances ``|t|^2 + |q|^2 - 2 q.t``. Dot-product rounding
bounds (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1) put
both that value and the exact ``sum((t - q)**2)`` within
``gamma_{d+3} (|t| + |q|)^2`` of the true one. So an item whose approximate
value is more than twice that bound, widened by a few ulp, above the k-th
smallest cannot be, or tie with, one of the k nearest after ``sqrt``. Only
the remaining candidates, about k per query on real features, are re-ranked
with the exact formula. A non-finite threshold keeps every item.

Cosine is not shortlisted: gemv rounds a row's dot product differently
depending on where the row sits in the matrix, so only the product over the
whole training matrix reproduces the scan's distances bit for bit. It keeps
one gemv per query and computes the norms once per call.

Tie rules are fully specified because accuracy figures depend on them:
neighbors tied at the k-th distance are taken in ascending training-item
order, and vote ties go to the lexicographically smallest label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidConfig,
    NonFiniteDistance,
)
from .fusion import FusionStrategy


class Metric(str, enum.Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


class VoteWeighting(str, enum.Enum):
    UNIFORM = "uniform"
    INVERSE_DISTANCE = "inverse_distance"


_INVERSE_DISTANCE_FLOOR = 1e-12
# queries per approximate-distance block, so memory stays O(block x n)
_QUERY_BLOCK = 256
# float64 elements of candidate differences re-ranked at a time
_RERANK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class KnnConfig:
    """k, distance metric and vote weighting. k=1 forces uniform weighting."""

    k: int = 1
    metric: Metric = Metric.EUCLIDEAN
    weighting: VoteWeighting = VoteWeighting.UNIFORM

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", Metric(self.metric))
        object.__setattr__(self, "weighting", VoteWeighting(self.weighting))
        if self.k < 1:
            raise InvalidConfig("k must be at least 1")
        if self.k == 1:
            object.__setattr__(self, "weighting", VoteWeighting.UNIFORM)


@dataclass
class LabeledDataset:
    """Feature vectors with labels, stored as one (n, d) matrix.

    ``strategy`` records the fusion strategy the vectors came from; it is None
    for single-descriptor datasets used in ablation runs.
    """

    vectors: np.ndarray
    labels: list[str]
    strategy: FusionStrategy | None = None

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = list(self.labels)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must form a 2D (n, d) matrix")
        if self.vectors.shape[0] != len(self.labels):
            raise ValueError("one label per vector required")

    @property
    def class_set(self) -> list[str]:
        return sorted(set(self.labels))

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def _euclidean_candidates(train: np.ndarray, queries: list[np.ndarray], k: int):
    """Per block of queries: (query, item) pairs that may be among the k
    nearest, with their exact distances.

    The approximate value A and the exact one X are each within E/2 of the
    true squared distance, E = 2 gamma_{d+3} (max|t| + |q|)^2. An item with
    A above the k-th smallest A plus 2E therefore has X above that of k other
    items; the ulp widening keeps it above them after sqrt as well.
    """
    d = train.shape[1]
    eps = np.finfo(np.float64).eps
    gamma = (d + 3) * (eps / 2) / (1.0 - (d + 3) * (eps / 2))
    tsq = np.einsum("ij,ij->i", train, train)
    tmax = np.sqrt(np.max(tsq))  # NaN in any row makes every threshold NaN
    step = max(1, _RERANK_ELEMENTS // d)
    for start in range(0, len(queries), _QUERY_BLOCK):
        block = np.stack(queries[start : start + _QUERY_BLOCK])
        qsq = np.einsum("ij,ij->i", block, block)
        approx = (tsq + qsq[:, None]) - 2.0 * (block @ train.T)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        bound = 2.0 * gamma * (tmax + np.sqrt(qsq)) ** 2
        thr = kth + 2.0 * bound
        thr = thr + np.abs(thr) * (16 * eps) + np.finfo(np.float64).tiny
        # a NaN or +inf threshold keeps every item, and NaN entries stay in;
        # -inf cannot occur, as an overflowing product makes the bound inf
        keep = ~(approx > thr[:, None])
        rows, cols = np.nonzero(keep)
        dist = np.empty(rows.size)
        for lo in range(0, rows.size, step):
            diff = train[cols[lo : lo + step]] - block[rows[lo : lo + step]]
            dist[lo : lo + step] = np.sqrt(np.sum(diff * diff, axis=1))
        yield rows, cols, dist


def _cosine_candidates(train: np.ndarray, queries: list[np.ndarray], k: int):
    """Per block of queries: (query, item) pairs at or below each query's k-th
    distance, with their exact distances (one gemv per query, no shortlist).
    """
    tn = np.sqrt(np.sum(train * train, axis=1))
    qn = np.array([np.sqrt(np.dot(q, q)) for q in queries])
    if np.any(tn == 0.0) or np.any(qn == 0.0):
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    for start in range(0, len(queries), _QUERY_BLOCK):
        block = queries[start : start + _QUERY_BLOCK]
        products = np.stack([train @ q for q in block])
        dist = 1.0 - products / (tn * qn[start : start + len(block), None])
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(~(dist > kth[:, None]))
        yield rows, cols, dist[rows, cols]


def _vote(
    labels: list[str], nearest: np.ndarray, dist: np.ndarray, weighting: VoteWeighting
) -> str:
    votes: dict[str, float] = {}
    for i, di in zip(nearest.tolist(), dist):
        if weighting is VoteWeighting.UNIFORM:
            weight = 1.0
        else:
            weight = 1.0 / (di + _INVERSE_DISTANCE_FLOOR)
        label = labels[i]
        votes[label] = votes.get(label, 0.0) + weight
    best = max(votes.values())
    winners = [label for label, weight in votes.items() if weight == best]
    if not winners:
        raise NonFiniteDistance("a NaN distance made the neighbor vote undecidable")
    return min(winners)


def predict(
    train: LabeledDataset, query: np.ndarray, cfg: KnnConfig
) -> str:
    """Label of the (weighted) majority among the k nearest training vectors."""
    return predict_batch(train, [query], cfg)[0]


def predict_batch(
    train: LabeledDataset,
    queries: np.ndarray | list[np.ndarray],
    cfg: KnnConfig,
) -> list[str]:
    """:func:`predict` for every query; output order matches query order."""
    qs = [np.asarray(q, dtype=np.float64) for q in queries]
    if not qs:
        return []
    if len(train) == 0:
        raise EmptyTrainingSet("training set has no items")
    dim = train.vectors.shape[1]
    for q in qs:
        if q.shape != (dim,):
            raise DimensionMismatch(
                f"query has {q.shape} components, training vectors have {dim}"
            )
    k = min(cfg.k, len(train))
    if cfg.metric is Metric.EUCLIDEAN:
        blocks = _euclidean_candidates(train.vectors, qs, k)
    else:
        blocks = _cosine_candidates(train.vectors, qs, k)
    predictions = []
    for rows, cols, dist in blocks:
        # every query has at least k candidates; the stable sort keeps equal
        # distances in ascending training-item order, as a full scan would
        order = np.lexsort((dist, rows))
        counts = np.bincount(rows)
        for first in (np.cumsum(counts) - counts).tolist():
            take = order[first : first + k]
            predictions.append(
                _vote(train.labels, cols[take], dist[take], cfg.weighting)
            )
    return predictions
