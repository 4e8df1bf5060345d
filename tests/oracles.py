"""Independent brute-force reference implementations.

Everything in this module is deliberately scalar, loop-based and written
directly from the operation definitions, so the vectorized production code
can be cross-checked against a second, independent path. Keep it dumb.

Eight functions are frozen copies of original production code rather than
independent derivations: :func:`knn_predict_exact_ref` (the per-query
classifier scan, its cosine distances from one gemv per query),
:func:`fuse_ref` (the one-window histogram fusion), :func:`load_csv_ref`
(the row-by-row CSV reader), :func:`write_corpus_ref` (the per-row corpus
writer), :func:`detect_events_ref` (the per-run, per-window event
detector), :func:`stratified_folds_ref` (the per-fold index lists), and
:func:`config_to_dict_ref` and :func:`report_to_dict_ref` (the config and
report dicts written out field by field). They pin outputs bit for bit, and
error messages too, where the scalar oracles only pin the definitions.
:func:`knn_predict_per_pair_ref` is the scan with cosine computed pair by
pair: the classifier matches it bit for bit, and matches the gemv scan on
the pinned corpora's predictions and report bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from texture_nilm.errors import (
    DegenerateProduct,
    EmptyHistogram,
    MalformedCsv,
    NonMonotoneTimestamps,
    TooFewSamplesPerClass,
)
from texture_nilm.signals import PowerSignal

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0

# clockwise ring from the top-left neighbor
RING = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]


def impute_ref(values):
    """Neighbor-mean zero repair, nearest non-zero on each side."""
    n = len(values)
    out = list(values)
    for i, v in enumerate(values):
        if v != 0:
            continue
        left = None
        for j in range(i - 1, -1, -1):
            if values[j] != 0:
                left = values[j]
                break
        right = None
        for j in range(i + 1, n):
            if values[j] != 0:
                right = values[j]
                break
        if left is None and right is None:
            raise ValueError("all-zero signal")
        if left is None:
            out[i] = right
        elif right is None:
            out[i] = left
        else:
            out[i] = (left + right) / 2.0
    return out


def detect_onsets_ref(values, delta, steady, window_len):
    """Peak-per-run change detection with onset suppression."""
    n = len(values)
    if n < 2 * steady:
        return []
    score = {}
    for i in range(steady, n - steady + 1):
        after = sum(values[i : i + steady]) / steady
        before = sum(values[i - steady : i]) / steady
        score[i] = abs(after - before)
    runs = []
    current = []
    for i in range(steady, n - steady + 1):
        if score[i] > delta:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    onsets = []
    last = None
    for run in runs:
        best = run[0]
        for i in run[1:]:
            if score[i] > score[best]:
                best = i
        if last is not None and best - last <= window_len:
            continue
        onsets.append(best)
        last = best
    return onsets


def detect_events_ref(signal, cfg):
    """Frozen from the original detect_events: one argmax per run of
    super-threshold scores and one slice per window.

    Returns one plain ``(samples, onset, pad_count)`` tuple per window."""
    x = signal.samples
    w = cfg.steady_len
    length = cfg.window_len
    n = x.size
    if n < 2 * w:
        return []

    csum = np.concatenate(([0.0], np.cumsum(x)))
    pos = np.arange(w, n - w + 1)
    mean_after = (csum[pos + w] - csum[pos]) / w
    mean_before = (csum[pos] - csum[pos - w]) / w
    score = np.abs(mean_after - mean_before)

    hot = np.flatnonzero(score > cfg.delta_watts)
    if hot.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(hot) > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [hot.size - 1]))

    onsets = []
    last = None
    for s, e in zip(run_starts, run_ends):
        lo, hi = hot[s], hot[e]
        peak = lo + int(np.argmax(score[lo : hi + 1]))
        onset = int(pos[peak])
        if last is not None and onset - last <= length:
            continue
        onsets.append(onset)
        last = onset

    windows = []
    for onset in onsets:
        observed = min(length, n - onset)
        samples = np.empty(length, dtype=np.float64)
        samples[:observed] = x[onset : onset + observed]
        samples[observed:] = x[n - 1]
        windows.append((samples, onset, length - observed))
    return windows


def reshape_ref(values):
    """Round-half-up min-max quantization into a row-major ceil-sqrt grid."""
    n = len(values)
    lo = min(values)
    hi = max(values)
    if hi > lo:
        q = [math.floor((v - lo) / (hi - lo) * 255.0 + 0.5) for v in values]
    else:
        q = [0] * n
    side = 1
    while side * side < n:
        side += 1
    flat = q + [q[-1]] * (side * side - n)
    return [flat[r * side : (r + 1) * side] for r in range(side)]


def lbp_code_ref(cells, r, c):
    center = cells[r][c]
    code = 0
    for n, (dr, dc) in enumerate(RING):
        if cells[r + dr][c + dc] - center >= 0:
            code += 2**n
    return code


def lbp_histogram_ref(cells):
    rows = len(cells)
    cols = len(cells[0])
    bins = [0] * 256
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            bins[lbp_code_ref(cells, r, c)] += 1
    return bins


def wld_response_ref(cells, r, c, epsilon=1.0):
    center = cells[r][c]
    ring_sum = sum(cells[r + dr][c + dc] for dr, dc in RING)
    excitation = math.atan((ring_sum - 8 * center) / max(center, epsilon))
    vertical = cells[r + 1][c] - cells[r - 1][c]
    horizontal = cells[r][c - 1] - cells[r][c + 1]
    orientation = math.atan2(vertical, horizontal)
    if orientation < 0.0:
        orientation += TWO_PI
    if orientation >= TWO_PI:
        orientation = 0.0
    return excitation, orientation


def wld_bin_ref(excitation, orientation, orientation_bins=8, excitation_bins=32):
    t = min(int(orientation / TWO_PI * orientation_bins), orientation_bins - 1)
    e = int((excitation + HALF_PI) / math.pi * excitation_bins)
    e = min(max(e, 0), excitation_bins - 1)
    return t * excitation_bins + e


def wld_histogram_ref(cells, orientation_bins=8, excitation_bins=32, epsilon=1.0):
    rows = len(cells)
    cols = len(cells[0])
    bins = [0] * (orientation_bins * excitation_bins)
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            response = wld_response_ref(cells, r, c, epsilon)
            bins[wld_bin_ref(*response, orientation_bins, excitation_bins)] += 1
    return bins


def knn_predict_ref(train_vectors, labels, query, k, metric="euclidean"):
    """Brute-force KNN with the documented tie rules, uniform votes."""
    distances = []
    for idx, vec in enumerate(train_vectors):
        if metric == "euclidean":
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(vec, query)))
        else:
            dot = sum(a * b for a, b in zip(vec, query))
            nv = math.sqrt(sum(a * a for a in vec))
            nq = math.sqrt(sum(b * b for b in query))
            d = 1.0 - dot / (nv * nq)
        distances.append((d, idx))
    distances.sort(key=lambda pair: pair)
    votes = {}
    for d, idx in distances[: min(k, len(distances))]:
        votes[labels[idx]] = votes.get(labels[idx], 0) + 1
    best = max(votes.values())
    return min(label for label, count in votes.items() if count == best)


def knn_predict_exact_ref(
    train_vectors, labels, query, k, metric="euclidean", weighting="uniform"
):
    """Per-query full scan, frozen from the original numpy classifier.

    Unlike :func:`knn_predict_ref` this is bitwise: the same distance
    formulas, stable argsort, inverse-distance floor and smallest-label vote
    tie rule as the scan that produced the pinned reports, so a faster
    classifier can be held to identical predictions, near-ties included.
    """
    train = np.asarray(train_vectors, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if metric == "euclidean":
        diff = train - q
        d = np.sqrt(np.sum(diff * diff, axis=1))
    else:
        qn = np.sqrt(np.dot(q, q))
        tn = np.sqrt(np.sum(train * train, axis=1))
        if qn == 0.0 or np.any(tn == 0.0):
            raise ValueError("cosine distance is undefined for zero-norm vectors")
        d = 1.0 - (train @ q) / (tn * qn)
    return _vote_exact_ref(d, labels, k, weighting)


def knn_predict_per_pair_ref(
    train_vectors, labels, query, k, metric="euclidean", weighting="uniform"
):
    """:func:`knn_predict_exact_ref` with cosine computed one pair at a time.

    Each distance is ``1 - sum(t * q) / (|t| |q|)``, with both norms
    ``sqrt(sum(x * x))`` of their own row, so its bits do not depend on
    where the row sits in the matrix, as the gemv's do. Euclidean is the
    same per-pair formula as in :func:`knn_predict_exact_ref`.
    """
    if metric == "euclidean":
        return knn_predict_exact_ref(train_vectors, labels, query, k, metric, weighting)
    train = np.asarray(train_vectors, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    qn = np.sqrt(np.sum(q * q))
    tn = [np.sqrt(np.sum(t * t)) for t in train]
    if qn == 0.0 or any(n == 0.0 for n in tn):
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    d = np.array([1.0 - np.sum(t * q) / (n * qn) for t, n in zip(train, tn)])
    return _vote_exact_ref(d, labels, k, weighting)


def _vote_exact_ref(d, labels, k, weighting):
    if k == 1:
        weighting = "uniform"
    nearest = np.argsort(d, kind="stable")[: min(k, len(labels))]
    votes = {}
    for i in nearest:
        weight = 1.0 if weighting == "uniform" else 1.0 / (d[i] + 1e-12)
        votes[labels[i]] = votes.get(labels[i], 0.0) + weight
    best = max(votes.values())
    return min(label for label, weight in votes.items() if weight == best)


def fuse_ref(lbp_bins, wld_bins, strategy):
    """Fused vector values, frozen from the original one-window fuse."""
    normalized = []
    for kind, bins in (("lbp", lbp_bins), ("wld", wld_bins)):
        total = float(np.asarray(bins).sum())
        if total == 0:
            raise EmptyHistogram(f"{kind} histogram has zero total mass")
        normalized.append(np.asarray(bins, dtype=np.float64) / total)
    a, b = normalized
    if strategy == "sum":
        v = a + b
    elif strategy == "concat":
        v = np.concatenate([a, b])
    else:
        v = a * b
        if not v.any():
            raise DegenerateProduct(
                "histograms have disjoint support; their product is all-zero"
            )
    return v / v.sum()


def stratified_folds_ref(ds, cfg):
    """Frozen from the original stratified_folds: per-fold index lists,
    sorted, with each train set the complement of its test set."""
    n = len(ds)
    rng = np.random.default_rng(cfg.seed)
    test_sets = [[] for _ in range(cfg.folds)]
    if cfg.stratified:
        labels = np.asarray(ds.labels)
        for label in sorted(set(ds.labels)):
            members = np.flatnonzero(labels == label)
            if members.size < cfg.folds:
                raise TooFewSamplesPerClass(
                    f"class {label!r} has {members.size} items, "
                    f"fewer than {cfg.folds} folds"
                )
            dealt = rng.permutation(members)
            for f in range(cfg.folds):
                test_sets[f].extend(int(i) for i in dealt[f :: cfg.folds])
    else:
        if n < cfg.folds:
            raise TooFewSamplesPerClass(
                f"dataset has {n} items, fewer than {cfg.folds} folds"
            )
        for f, chunk in enumerate(np.array_split(rng.permutation(n), cfg.folds)):
            test_sets[f].extend(int(i) for i in chunk)

    out = []
    everything = np.arange(n)
    for members in test_sets:
        test = np.sort(np.asarray(members, dtype=np.int64))
        train = np.setdiff1d(everything, test, assume_unique=True)
        out.append((train, test))
    return out


def macro_f1_ref(confusion):
    """Exact-rational macro F1 with the absent-class exclusion rule."""
    size = len(confusion)
    scores = []
    for i in range(size):
        actual = sum(confusion[i])
        predicted = sum(confusion[r][i] for r in range(size))
        if actual == 0 and predicted == 0:
            continue
        tp = confusion[i][i]
        precision = Fraction(tp, predicted) if predicted else Fraction(0)
        recall = Fraction(tp, actual) if actual else Fraction(0)
        if precision + recall == 0:
            scores.append(Fraction(0))
        else:
            scores.append(2 * precision * recall / (precision + recall))
    if not scores:
        return 0.0
    return float(sum(scores) / len(scores))


def _parse_timestamp_ref(raw, path):
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not np.isfinite(value):
            raise MalformedCsv(f"{path}: non-finite timestamp {raw!r}")
        return value
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise MalformedCsv(f"{path}: unparseable timestamp {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_csv_ref(path, label):
    """One recording, frozen from the original row-by-row CSV reader."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(f"{path}: file is empty") from None
        if tuple(col.strip() for col in header) != ("timestamp", "power_w"):
            raise MalformedCsv(
                f"{path}: expected header {'timestamp,power_w'!r}, got {header!r}"
            )
        timestamps = []
        powers = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise MalformedCsv(f"{path}: line {lineno} has {len(row)} fields")
            timestamps.append(_parse_timestamp_ref(row[0], path))
            try:
                power = float(row[1])
            except ValueError:
                raise MalformedCsv(
                    f"{path}: line {lineno} has unparseable power {row[1]!r}"
                ) from None
            if not np.isfinite(power):
                raise MalformedCsv(f"{path}: line {lineno} has non-finite power")
            powers.append(power)

    if len(powers) < 1:
        raise MalformedCsv(f"{path}: {len(powers)} data rows; at least 1 required")
    ts = np.asarray(timestamps)
    deltas = np.diff(ts)
    if np.any(deltas <= 0):
        raise NonMonotoneTimestamps(f"{path}: timestamps are not strictly increasing")
    return PowerSignal(np.asarray(powers), label, path.stem)


def write_corpus_ref(signals, root):
    """Frozen from the original corpus writer: one f-string per sample."""
    root = Path(root)
    counts = {}
    for signal in sorted(signals, key=lambda s: (s.label, s.source_id)):
        class_dir = root / signal.label
        class_dir.mkdir(parents=True, exist_ok=True)
        path = class_dir / f"{signal.source_id}.csv"
        lines = ["timestamp,power_w"]
        for i, value in enumerate(signal.samples):
            lines.append(f"{i},{float(value)!r}")
        path.write_text("\n".join(lines) + "\n")
        counts[signal.label] = counts.get(signal.label, 0) + 1
    return counts


def config_to_dict_ref(cfg):
    """Frozen from the original config serializer: every block field by field."""
    return {
        "detector": dataclasses.asdict(cfg.detector),
        "descriptor": dataclasses.asdict(cfg.descriptor),
        "fusion_strategy": cfg.fusion_strategy.value,
        "knn": {
            "k": cfg.knn.k,
            "metric": cfg.knn.metric.value,
            "weighting": cfg.knn.weighting.value,
        },
        "eval": dataclasses.asdict(cfg.eval),
        "io": {
            "output": cfg.io.output,
            "input_root": cfg.io.input_root,
            "synth": (
                None
                if cfg.io.synth is None
                else {**dataclasses.asdict(cfg.io.synth), "classes": list(cfg.io.synth.classes)}
            ),
            "report_csv": cfg.io.report_csv,
        },
    }


def report_to_dict_ref(report):
    """Frozen from the original ``EvalReport.to_dict``, less the config
    fingerprint, which the CLI writes next to the config."""
    return {
        "class_labels": list(report.class_labels),
        "per_fold": [
            {
                "fold": f.fold,
                "accuracy": f.accuracy,
                "macro_f1": f.macro_f1,
                "test_size": f.test_size,
            }
            for f in report.per_fold
        ],
        "mean_accuracy": report.mean_accuracy,
        "mean_macro_f1": report.mean_macro_f1,
        "confusion": [[int(v) for v in row] for row in report.confusion],
        "seed": report.seed,
    }

