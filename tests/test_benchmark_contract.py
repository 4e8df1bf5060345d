"""The traced benchmark run still measures every per-layer metric it declares.

perfbench/tracing.py times layers by wrapping names the program looks up at
call time. A refactor that deletes or renames one of them makes the metrics
built on it vanish from a ``--trace 1`` run, which leaves that run's result
without metrics BENCHMARK.json declares. This runs the tracer on a small
``extract`` and ``eval``, as the benchmark does, and reads their metrics.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import write_config

ROOT = Path(__file__).resolve().parents[1]

# computed by perfbench/run.py from a traced and an untraced run, not by
# the tracer
NOT_FROM_TRACER = {"trace.overhead_s"}
# counts of the write_config corpus at window_len 16, as commit fa30808, the
# last one that extracted one window at a time, measured them
PINNED_COUNTS = {
    "cli.commands": 1,
    "signals.zeros_repaired": 32,
    "signals.windows": 118,
    "signals.padded_windows": 1,
    "transform2d.cells": 1888,
    "descriptors.interior_cells": 472,
    "pipeline.pool_workers": 1,
    "pipeline.jsonl_bytes": 131128,
}
# hooked names already absent at that commit
KNOWN_MISSING = {"texture_nilm.pipeline.fuse"}


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config(tmp_path):
    return write_config(
        tmp_path / "c.json",
        detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16},
    )


def run_traced(tmp_path, *argv):
    """The tracer of one traced CLI command, as perfbench/run.py runs it."""
    spans = tmp_path / f"spans-{argv[0]}.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tracer = load_tracing().Tracer()
    tracer.merge(spans)
    return tracer


def test_traced_extract_measures_every_declared_metric(tmp_path):
    tracer = run_traced(tmp_path, "extract", "--config", str(small_config(tmp_path)))
    metrics, _ = load_tracing().layer_metrics(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared} - NOT_FROM_TRACER
    assert PINNED_COUNTS.keys() <= expected
    assert sorted(expected - metrics.keys()) == []
    assert sorted(name for name in expected if metrics[name][0] == 0) == []
    assert {name: metrics[name][0] for name in PINNED_COUNTS} == PINNED_COUNTS
    assert set(tracer.missing) <= KNOWN_MISSING
    assert tracer.broken == set()


def test_traced_eval_counts_one_query_per_window(tmp_path):
    cfg = str(small_config(tmp_path))
    run_traced(tmp_path, "extract", "--config", cfg)
    tracer = run_traced(tmp_path, "eval", "--config", cfg)
    metrics, _ = load_tracing().layer_metrics(tracer)
    assert tracer.broken == set()
    assert set(tracer.missing) <= KNOWN_MISSING
    assert metrics["classify.queries"][0] == PINNED_COUNTS["signals.windows"]
