"""Per-layer tracing from outside the program.

Run as a script, this file runs one CLI command through
`texture_nilm.cli.main(argv)` with timing wrappers installed around each
module's public functions, and writes the spans and counts to a JSON file:

    python3 perfbench/tracing.py SPANS.json extract --config config.json

Each traced command runs in a fresh process, like the untraced CLI, so its
timings are comparable with the untraced run's. Wrappers are installed at the
name where the caller looks a function up (the modules import functions by
name). They only observe: arguments and results pass through unchanged. A
span records its name, start, end, thread, thread CPU time and the span that
caused it; a span opened on an extract pool thread belongs to the span open
on the main thread. A name a later refactor removes is skipped, and the
metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span and counter store, shared by every traced thread."""

    def __init__(self) -> None:
        # [name, start, end, thread, parent index, thread CPU at start, at end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.broken: set[str] = set()
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, threading.get_ident(), parent, time.thread_time(), None]
            )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[6] = time.thread_time()
        span[2] = time.perf_counter()
        self._stack().pop()

    def add(self, counts: dict[str, int]) -> None:
        with self._lock:
            for name, value in counts.items():
                self.counts[name] += int(value)

    def dump(self, path: str | Path) -> None:
        doc = {
            "spans": self.spans,
            "counts": self.counts,
            "broken": sorted(self.broken),
            "missing": self.missing,
        }
        Path(path).write_text(json.dumps(doc))

    def merge(self, path: str | Path) -> None:
        """Append the spans and counts another process dumped."""
        doc = json.loads(Path(path).read_text())
        offset = len(self.spans)
        for span in doc["spans"]:
            if span[4] is not None:
                span[4] += offset
            self.spans.append(span)
        self.add(doc["counts"])
        self.broken.update(doc["broken"])
        self.missing += [m for m in doc["missing"] if m not in self.missing]


def _wrap(tracer: Tracer, original, span: str, count_names, counter):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        error = return_value = None
        index = tracer.open(span)
        try:
            return_value = original(*args, **kwargs)
        except Exception as exc:
            error = exc
            raise
        finally:
            tracer.close(index)
            if counter is not None:
                try:
                    tracer.add(counter(args, kwargs, return_value, error))
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    tracer.broken.update(count_names)
        return return_value

    return traced


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _csv_bytes(args, kwargs) -> int:
    root = Path(_arg(args, kwargs, 0, "root"))
    return sum(p.stat().st_size for p in root.glob("*/*.csv"))


def _fuse_counts(args, kwargs, result, error):
    if error is not None:
        return {"fusion.degenerate": type(error).__name__ == "DegenerateProduct"}
    return {"fusion.vectors": 1}


# (module, attribute, span name, count names, counter). The counter receives
# (args, kwargs, result, error) after the span has closed.
HOOKS = (
    ("texture_nilm.cli", "generate", "data.generate", (), None),
    (
        "texture_nilm.cli",
        "write_corpus",
        "data.write_corpus",
        ("data.rows_written",),
        lambda a, k, r, e: {
            "data.rows_written": sum(len(s.samples) for s in _arg(a, k, 0, "signals"))
        },
    ),
    (
        "texture_nilm.cli",
        "load_dataset",
        "data.load_dataset",
        ("data.rows_read", "data.bytes_read"),
        lambda a, k, r, e: {
            "data.rows_read": sum(len(s.samples) for s in r),
            "data.bytes_read": _csv_bytes(a, k),
        },
    ),
    (
        "texture_nilm.cli",
        "extract_records",
        "pipeline.extract_records",
        ("pipeline.pool_workers",),
        lambda a, k, r, e: {"pipeline.pool_workers": k.get("workers", a[3] if len(a) > 3 else 1)},
    ),
    ("texture_nilm.pipeline", "_extract_one", "pipeline.extract_one", (), None),
    (
        "texture_nilm.pipeline",
        "impute_zeros",
        "signals.impute_zeros",
        ("signals.zeros_repaired",),
        lambda a, k, r, e: {
            "signals.zeros_repaired": (_arg(a, k, 0, "signal").samples == 0.0).sum()
        },
    ),
    (
        "texture_nilm.pipeline",
        "detect_events",
        "signals.detect_events",
        ("signals.windows", "signals.padded_windows"),
        lambda a, k, r, e: {
            "signals.windows": len(r),
            "signals.padded_windows": sum(1 for w in r if w.pad_count > 0),
        },
    ),
    (
        "texture_nilm.pipeline",
        "reshape",
        "transform2d.reshape",
        ("transform2d.cells",),
        lambda a, k, r, e: {"transform2d.cells": r.cells.size},
    ),
    (
        "texture_nilm.pipeline",
        "lbp_histogram",
        "descriptors.lbp_histogram",
        ("descriptors.interior_cells",),
        lambda a, k, r, e: {"descriptors.interior_cells": r.bins.sum()},
    ),
    ("texture_nilm.pipeline", "wld_histogram", "descriptors.wld_histogram", (), None),
    (
        "texture_nilm.cli",
        "records_to_jsonl",
        "pipeline.records_to_jsonl",
        ("pipeline.jsonl_bytes",),
        lambda a, k, r, e: {"pipeline.jsonl_bytes": len(r.encode())},
    ),
    ("texture_nilm.cli", "load_records", "pipeline.load_records", (), None),
    ("texture_nilm.cli", "dataset_from_records", "pipeline.dataset_from_records", (), None),
    (
        "texture_nilm.pipeline",
        "fuse",
        "fusion.fuse",
        ("fusion.vectors", "fusion.degenerate"),
        _fuse_counts,
    ),
    ("texture_nilm.cli", "run_eval", "evaluation.run_eval", (), None),
    (
        "texture_nilm.evaluation",
        "stratified_folds",
        "evaluation.stratified_folds",
        ("evaluation.folds",),
        lambda a, k, r, e: {"evaluation.folds": len(r)},
    ),
    ("texture_nilm.evaluation", "macro_f1", "evaluation.macro_f1", (), None),
    (
        "texture_nilm.evaluation",
        "predict_batch",
        "classify.predict_batch",
        ("classify.queries", "classify.distance_pairs"),
        lambda a, k, r, e: {
            "classify.queries": len(_arg(a, k, 1, "queries")),
            "classify.distance_pairs": len(_arg(a, k, 0, "train"))
            * len(_arg(a, k, 1, "queries")),
        },
    ),
    ("texture_nilm.classify", "predict", "classify.predict", (), None),
)
COUNT_SPANS = {name: span for _, _, span, names, _ in HOOKS for name in names}

# The span around each traced CLI command.
MAIN_SPAN = "cli.main"


def install(tracer: Tracer) -> None:
    """Install every hook whose target exists, for the rest of the process."""
    for module_name, attr, span, count_names, counter in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(tracer, original, span, count_names, counter))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _span_times(tracer: Tracer):
    """Per span name: [summed wall time, summed self time, summed CPU time of
    its direct children, calls].

    Self time is wall time, so on a pool thread it includes waiting for the
    interpreter lock; child CPU time does not.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        if span[4] is not None:
            children[span[4]].append(index)
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
    for index, (name, start, end, *_) in enumerate(tracer.spans):
        kids = [tracer.spans[c] for c in children[index]]
        wall = end - start
        entry = out[name]
        entry[0] += wall
        entry[1] += wall - _covered([(k[1], k[2]) for k in kids], start, end)
        entry[2] += sum(k[6] - k[5] for k in kids)
        entry[3] += 1
    return out


LAYERS = (
    "cli",
    "data",
    "signals",
    "transform2d",
    "descriptors",
    "pipeline",
    "fusion",
    "classify",
    "evaluation",
)

# metric -> span names whose self times it sums
SELF_TIMES = {
    "cli.main_self_s": (MAIN_SPAN,),
    "data.generate_s": ("data.generate",),
    "data.write_corpus_s": ("data.write_corpus",),
    "data.load_dataset_s": ("data.load_dataset",),
    "signals.impute_zeros_s": ("signals.impute_zeros",),
    "signals.detect_events_s": ("signals.detect_events",),
    "transform2d.reshape_s": ("transform2d.reshape",),
    "descriptors.lbp_histogram_s": ("descriptors.lbp_histogram",),
    "descriptors.wld_histogram_s": ("descriptors.wld_histogram",),
    "pipeline.extract_records_self_s": ("pipeline.extract_records",),
    "pipeline.extract_one_self_s": ("pipeline.extract_one",),
    "pipeline.records_to_jsonl_s": ("pipeline.records_to_jsonl",),
    "pipeline.load_records_s": ("pipeline.load_records",),
    "pipeline.dataset_from_records_self_s": ("pipeline.dataset_from_records",),
    "fusion.fuse_s": ("fusion.fuse",),
    "classify.predict_s": ("classify.predict_batch", "classify.predict"),
    "evaluation.stratified_folds_s": ("evaluation.stratified_folds",),
    "evaluation.macro_f1_s": ("evaluation.macro_f1",),
    "evaluation.run_eval_self_s": ("evaluation.run_eval",),
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics as {name: (value, unit)}, and self time per layer.

    A metric is present only when a span it is measured at was recorded.
    """
    times = _span_times(tracer)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, spans in SELF_TIMES.items():
        seen = [times[s] for s in spans if s in times]
        if seen:
            metrics[metric] = (sum(t[1] for t in seen), "s")
    for metric, span in COUNT_SPANS.items():
        if span in times and metric not in tracer.broken:
            unit = "bytes" if "bytes" in metric else "count"
            metrics[metric] = (tracer.counts.get(metric, 0), unit)
    if MAIN_SPAN in times:
        metrics["cli.commands"] = (times[MAIN_SPAN][3], "count")

    extract = times.get("pipeline.extract_records")
    if extract is not None:
        metrics["pipeline.extract_records_s"] = (extract[0], "s")
        workers = metrics.get("pipeline.pool_workers", (0, ""))[0]
        if workers > 0 and extract[0] > 0:
            metrics["pipeline.pool_busy_ratio"] = (extract[2] / (extract[0] * workers), "ratio")
    pairs = metrics.get("classify.distance_pairs", (0, ""))[0]
    if pairs > 0 and "classify.predict_s" in metrics:
        metrics["classify.ns_per_pair"] = (metrics["classify.predict_s"][0] * 1e9 / pairs, "ns")

    per_layer = defaultdict(float)
    for name, entry in times.items():
        per_layer[name.split(".", 1)[0]] += entry[1]
    return metrics, {layer: per_layer[layer] for layer in LAYERS if layer in per_layer}


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from texture_nilm import cli

    tracer = Tracer()
    install(tracer)
    index = tracer.open(MAIN_SPAN)
    try:
        return cli.main(cli_argv)
    finally:
        tracer.close(index)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
