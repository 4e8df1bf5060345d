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
with the exact formula. A non-finite threshold keeps every item. The bound
holds however the GEMM rounds, so a subset of the matrix's rows (a fold's
training rows) is never copied: the GEMM runs over the whole matrix, keeps
the subset's columns, and re-ranking gathers each candidate row from it.

Cosine is not shortlisted: gemv rounds a row's dot product differently
depending on where the row sits in the matrix, so only the product over the
whole contiguous training matrix reproduces the scan's distances bit for
bit, and a subset of rows is copied first. It computes the norms once per
call. Each query's gemv is written into a row of one preallocated block,
and that row is divided and subtracted in place and partitioned for its
k-th distance: the same operations on the same values as the scan.

One element budget, ``_RERANK_ELEMENTS``, sizes every temporary larger than
a row. A block holds as many queries as fit against the GEMM's or the
gemv's rows, Euclidean re-ranks its candidates a chunk at a time (the
gathered training rows and the query rows subtracted from them share the
budget), and cosine sums its norms a chunk of rows at a time. A row's sum
does not depend on the chunk it is in, so no chunk changes a bit.

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


class Metric(str, enum.Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


class VoteWeighting(str, enum.Enum):
    UNIFORM = "uniform"
    INVERSE_DISTANCE = "inverse_distance"


_INVERSE_DISTANCE_FLOOR = 1e-12
# float64 elements per block of (queries x items) or chunk of rows
_RERANK_ELEMENTS = 1 << 16


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

    Which fusion strategy or descriptor made the vectors is the caller's
    record: the CLI writes it into the report's config.
    """

    vectors: np.ndarray
    labels: list[str]

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


def _euclidean_candidates(vectors: np.ndarray, rows: np.ndarray, queries: np.ndarray, k: int):
    """Per block of queries: (query, item) pairs that may be among the k
    nearest, with their exact distances. The items are ``vectors[rows]``,
    and an item is given as its position in ``rows``.

    The approximate value A and the exact one X are each within E/2 of the
    true squared distance, E = 2 gamma_{d+3} (max|t| + |q|)^2. An item with
    A above the k-th smallest A plus 2E therefore has X above that of k other
    items; the ulp widening keeps it above them after sqrt as well.
    """
    d = vectors.shape[1]
    eps = np.finfo(np.float64).eps
    gamma = (d + 3) * (eps / 2) / (1.0 - (d + 3) * (eps / 2))
    tsq = np.einsum("ij,ij->i", vectors, vectors)[rows]
    tmax = np.sqrt(np.max(tsq))  # NaN in any row makes every threshold NaN
    size = max(1, _RERANK_ELEMENTS // len(vectors))
    # each chunk gathers its candidate rows and the query rows taken from them
    step = max(1, _RERANK_ELEMENTS // (2 * d))
    for start in range(0, len(queries), size):
        block = queries[start : start + size]
        qsq = np.einsum("ij,ij->i", block, block)
        approx = (block @ vectors.T)[:, rows]
        approx *= 2.0
        np.subtract(tsq + qsq[:, None], approx, out=approx)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        bound = 2.0 * gamma * (tmax + np.sqrt(qsq)) ** 2
        thr = kth + 2.0 * bound
        thr = thr + np.abs(thr) * (16 * eps) + np.finfo(np.float64).tiny
        # a NaN or +inf threshold keeps every item, and NaN entries stay in;
        # -inf cannot occur, as an overflowing product makes the bound inf
        keep = ~(approx > thr[:, None])
        del approx
        qrows, cols = np.nonzero(keep)
        dist = np.empty(qrows.size)
        for lo in range(0, qrows.size, step):
            diff = vectors[rows[cols[lo : lo + step]]]
            diff -= block[qrows[lo : lo + step]]
            diff *= diff
            dist[lo : lo + step] = np.sqrt(np.sum(diff, axis=1))
        yield qrows, cols, dist


def _cosine_candidates(train: np.ndarray, queries: np.ndarray, k: int):
    """Per block of queries: (query, item) pairs at or below each query's k-th
    distance, with their exact distances (one gemv per query, no shortlist).
    """
    n = len(train)
    tn = np.empty(n)
    step = max(1, _RERANK_ELEMENTS // max(1, train.shape[1]))
    for lo in range(0, n, step):
        chunk = train[lo : lo + step]
        tn[lo : lo + step] = np.sum(chunk * chunk, axis=1)
    np.sqrt(tn, out=tn)
    qn = np.array([np.sqrt(np.dot(q, q)) for q in queries])
    if np.any(tn == 0.0) or np.any(qn == 0.0):
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    size = max(1, _RERANK_ELEMENTS // n)
    buffer = np.empty((min(size, len(queries)), n))
    for start in range(0, len(queries), size):
        dist = buffer[: len(queries[start : start + size])]
        kth = np.empty(len(dist))
        for r, q in enumerate(queries[start : start + size]):
            row = dist[r]
            # the same bits as ``train @ q`` (a test checks every row offset)
            np.matmul(train, q, out=row)
            row /= tn * qn[start + r]
            np.subtract(1.0, row, out=row)
            kth[r] = np.partition(row, k - 1)[k - 1]
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
    *,
    rows: np.ndarray | None = None,
) -> list[str]:
    """:func:`predict` for every query; output order matches query order.

    ``rows``, increasing indices into ``train``, restricts the training items
    to those rows (a fold's training rows), as if ``train`` held only them;
    Euclidean KNN then makes no copy of them.
    """
    qs = [np.asarray(q, dtype=np.float64) for q in queries]
    if not qs:
        return []
    rows = np.arange(len(train)) if rows is None else np.asarray(rows)
    if rows.size and (
        rows.ndim != 1
        or rows.dtype.kind not in "iu"
        or np.any(rows[1:] <= rows[:-1])
        or rows[0] < 0
        or rows[-1] >= len(train)
    ):
        raise ValueError("rows must be increasing indices of training items")
    if rows.size == 0:
        raise EmptyTrainingSet("training set has no items")
    dim = train.vectors.shape[1]
    for q in qs:
        if q.shape != (dim,):
            raise DimensionMismatch(
                f"query has {q.shape} components, training vectors have {dim}"
            )
    # one (m, dim) matrix, which a float64 matrix passed in already is
    qs = np.asarray(queries, dtype=np.float64) if isinstance(queries, np.ndarray) else np.stack(qs)
    k = min(cfg.k, rows.size)
    if cfg.metric is Metric.EUCLIDEAN:
        blocks = _euclidean_candidates(train.vectors, rows, qs, k)
    elif rows.size == len(train):
        blocks = _cosine_candidates(train.vectors, qs, k)
    else:
        blocks = _cosine_candidates(train.vectors[rows], qs, k)
    predictions = []
    for qrows, cols, dist in blocks:
        # every query has at least k candidates; the stable sort keeps equal
        # distances in ascending training-item order, as a full scan would
        order = np.lexsort((dist, qrows))
        counts = np.bincount(qrows)
        for first in (np.cumsum(counts) - counts).tolist():
            take = order[first : first + k]
            predictions.append(
                _vote(train.labels, rows[cols[take]], dist[take], cfg.weighting)
            )
    return predictions
