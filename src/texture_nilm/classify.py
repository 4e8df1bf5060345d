"""Exact nearest-neighbor classification over feature vectors.

Predictions are bit-for-bit those of a full per-query scan with the exact
formulas ``sqrt(sum((t - q)**2))`` (Euclidean) and ``1 - sum(t * q) /
(|t| |q|)`` (cosine), both norms ``sqrt(sum(x * x))`` of their own row, but
most of the scan is replaced by matrix products.

Both metrics use one filter-and-refine driver, :func:`_candidates`. One GEMM
per block of queries runs over the whole matrix and keeps the columns of the
training rows (a fold's rows are never copied); it gives approximate
distances ``|t|^2 + |q|^2 - 2 q.t`` or ``1 - (q.t) / |t| / |q|``. A bound on
their rounding, derived in :func:`_candidates` from dot-product rounding
bounds (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1),
holds however the GEMM rounds, and shortlists about k candidates per query
on real features. Only those are re-ranked with the exact formula, on rows
gathered from the matrix, so no block, chunk or row position changes a bit.

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
    ZeroNormVector,
)


class Metric(str, enum.Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


class VoteWeighting(str, enum.Enum):
    UNIFORM = "uniform"
    INVERSE_DISTANCE = "inverse_distance"


_INVERSE_DISTANCE_FLOOR = 1e-12
# float64 elements in every temporary larger than a row: a block of queries
# against the GEMM's rows, or a chunk of rows for norms or re-ranking
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


def _sums_of_squares(x: np.ndarray, step: int) -> np.ndarray:
    """``np.sum(r * r)`` of each row ``r`` of ``x``, ``step`` rows at a time;
    a row's sum does not depend on the chunk it is in."""
    return np.concatenate([np.sum(np.square(x[lo : lo + step]), axis=1) for lo in range(0, len(x), step)])


def _gamma(n: int) -> float:
    u = np.finfo(np.float64).eps / 2
    return n * u / (1.0 - n * u)


def _candidates(vectors: np.ndarray, rows: np.ndarray, queries: np.ndarray, k: int, metric: Metric):
    """Per block of queries: (query, item) pairs that may be among the k
    nearest, with their exact distances. The items are ``vectors[rows]``,
    and an item is given as its position in ``rows``.

    B bounds |A - X| for every pair, A the approximate distance and X the
    exact one, so an item with A above the k-th smallest A plus 2B cannot be,
    or tie with, one of the k nearest. Below, u = eps / 2 and
    g_n = n u / (1 - n u) (Higham's gamma_n).

    Euclidean: A and X are each within B/2 of the true squared distance,
    B = 2 g_{d+3} (max|t| + |q|)^2; the ulp widening of the threshold covers
    the sqrt after re-ranking. An overflowing norm makes B inf, a NaN one NaN.

    Cosine: A = 1 - fl(fl(G / n_t) / n_q), G the GEMM's q.t, and
    X = 1 - fl(S / fl(n_t n_q)), S = ``sum(t * q)``, share the norms
    n = fl(sqrt(fl(sum x_i^2))). Let s = q.t, N = n_t n_q and c = s / N,
    exactly, and g = g_{d+1}. Any d-term dot product is within
    g_d sum|q_i t_i| <= g_d ||q|| ||t|| of s (Cauchy-Schwarz, any signs). As
    n >= ||x|| sqrt(1 - g)(1 - u), ||q|| ||t|| <= rho N with
    rho = 1 / ((1 - g)(1 - u)^2): |c| <= rho, and G and S are within g rho N
    of s. Two roundings (A's divisions; X's product and division) give
    R = (G or S) / N (1 + th), |th| <= g_2, so |R - c| <= r =
    g rho (1 + g_2) + rho g_2, and 1 - R adds u |1 - R| <= u (1 + rho + r).
    So A and X are within E = r + u (1 + rho + r) of 1 - c, and B = 2E for
    any magnitudes. This needs every norm in [2**-300, 2**300]: then nothing
    overflows, underflowing squares or products add at most d 2**-1074 to
    sums of at least 2**-601 (under u of them, hence g_{d+1}), and an
    underflowing quotient at most 2**-773 (under the ulp widening). A norm
    outside the range, or NaN, gives B = inf to every query it meets.
    """
    d = vectors.shape[1]
    u = np.finfo(np.float64).eps / 2
    # a chunk of rows and the rows combined with it, or its square
    step = max(1, _RERANK_ELEMENTS // (2 * max(1, d)))
    tsq = _sums_of_squares(vectors, step)[rows]
    qsq = _sums_of_squares(queries, step)
    cosine = metric is Metric.COSINE
    if cosine:
        tn, qn = np.sqrt(tsq), np.sqrt(qsq)
        if np.any(tn == 0.0) or np.any(qn == 0.0):
            raise ZeroNormVector("cosine distance is undefined for zero-norm vectors")
        g, g2 = _gamma(d + 1), _gamma(2)
        rho = 1.0 / ((1.0 - g) * (1.0 - u) ** 2)
        r = g * rho * (1.0 + g2) + rho * g2
        # comparisons with NaN are False, so a NaN norm fails the range too
        small, large = 2.0**-300, 2.0**300
        fits = (qn >= small) & (qn <= large) & (np.min(tn) >= small) & (np.max(tn) <= large)
        bound = np.where(fits, 2.0 * (r + u * (1.0 + rho + r)), np.inf)
    else:
        bound = 2.0 * _gamma(d + 3) * (np.sqrt(np.max(tsq)) + np.sqrt(qsq)) ** 2
    size = max(1, _RERANK_ELEMENTS // len(vectors))
    for start in range(0, len(queries), size):
        block = queries[start : start + size]
        approx = (block @ vectors.T)[:, rows]
        if cosine:
            approx /= tn
            approx /= qn[start : start + size, None]
            np.subtract(1.0, approx, out=approx)
        else:
            approx *= 2.0
            np.subtract(tsq + qsq[start : start + size, None], approx, out=approx)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        thr = kth + 2.0 * bound[start : start + size]
        thr = thr + np.abs(thr) * (32 * u) + np.finfo(np.float64).tiny
        # a NaN or +inf threshold keeps every item, and NaN entries stay in;
        # -inf cannot occur, as the overflow it takes makes the bound inf
        keep = ~(approx > thr[:, None])
        del approx
        qrows, cols = np.nonzero(keep)
        dist = np.empty(qrows.size)
        for lo in range(0, qrows.size, step):
            q, c = qrows[lo : lo + step], cols[lo : lo + step]
            chunk = vectors[rows[c]]
            if cosine:
                chunk *= block[q]
                dist[lo : lo + step] = 1.0 - np.sum(chunk, axis=1) / (tn[c] * qn[start + q])
            else:
                chunk -= block[q]
                chunk *= chunk
                dist[lo : lo + step] = np.sqrt(np.sum(chunk, axis=1))
            del chunk
        yield qrows, cols, dist


def _vote(labels: list[str], nearest: np.ndarray, dist: np.ndarray, weighting: VoteWeighting) -> str:
    votes: dict[str, float] = {}
    uniform = weighting is VoteWeighting.UNIFORM
    for i, di in zip(nearest.tolist(), dist):
        weight = 1.0 if uniform else 1.0 / (di + _INVERSE_DISTANCE_FLOOR)
        votes[labels[i]] = votes.get(labels[i], 0.0) + weight
    best = max(votes.values())
    winners = [label for label, weight in votes.items() if weight == best]
    if not winners:
        raise NonFiniteDistance("a NaN distance made the neighbor vote undecidable")
    return min(winners)


def predict(train: LabeledDataset, query: np.ndarray, cfg: KnnConfig) -> str:
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
    KNN then makes no copy of them. Cosine raises :class:`ZeroNormVector`
    for a zero-norm query or training row before any distance is computed.
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
            raise DimensionMismatch(f"query has {q.shape} components, training vectors have {dim}")
    # one (m, dim) matrix, which a float64 matrix passed in already is
    qs = np.asarray(queries, dtype=np.float64) if isinstance(queries, np.ndarray) else np.stack(qs)
    k = min(cfg.k, rows.size)
    predictions = []
    for qrows, cols, dist in _candidates(train.vectors, rows, qs, k, cfg.metric):
        # every query has at least k candidates; the stable sort keeps equal
        # distances in ascending training-item order, as a full scan would
        order = np.lexsort((dist, qrows))
        counts = np.bincount(qrows)
        for first in (np.cumsum(counts) - counts).tolist():
            take = order[first : first + k]
            predictions.append(_vote(train.labels, rows[cols[take]], dist[take], cfg.weighting))
    return predictions
