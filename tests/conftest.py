import json
import tracemalloc

import numpy as np
import pytest

from texture_nilm import (
    DescriptorConfig,
    EventDetectorConfig,
    LabeledDataset,
    Matrix2D,
    SynthConfig,
    generate,
)
from texture_nilm.fusion import fuse_rows
from texture_nilm.pipeline import FeatureTable, extract_records


# the two ways config and report dicts are written: report files and fingerprints
JSON_FORMS = ({"indent": 2}, {"separators": (",", ":")})


@pytest.fixture
def descriptor_cfg():
    return DescriptorConfig()


def sweep_table(seed: int, window_len: int = 1024) -> FeatureTable:
    """The windows of the eval-sweep benchmark's corpus (the README quick
    start's corpus) on ``seed``."""
    synth = SynthConfig(signals_per_class=50, signal_len=4096, noise_sigma=3.0, seed=seed)
    return FeatureTable.joined(
        extract_records(
            generate(synth), EventDetectorConfig(window_len=window_len), DescriptorConfig()
        )
    )


@pytest.fixture(scope="session")
def sweep_records():
    """The 1,050 windows of the eval-sweep benchmark's corpus on its seed, 20240601."""
    return sweep_table(20240601)


def traced_peak(call):
    """``call()``'s result and the peak of memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_matrix(rng: np.random.Generator, rows: int = 8, cols: int = 8) -> Matrix2D:
    return Matrix2D(rng.integers(0, 256, size=(rows, cols)))


def constant_matrix(value: int, rows: int, cols: int | None = None) -> Matrix2D:
    return Matrix2D(np.full((rows, cols or rows), value, dtype=np.int64))


def dataset_from_single_descriptor(table, kind: str) -> LabeledDataset:
    """L1-normalized single-descriptor dataset for ablation comparisons."""
    if kind not in ("lbp", "wld"):
        raise ValueError("kind must be 'lbp' or 'wld'")
    bins = np.asarray(getattr(table, kind), dtype=np.float64)
    return LabeledDataset(bins / bins.sum(axis=1)[:, None], table.label)


def fuse_one(lbp, wld, strategy):
    """One window's fused vector, as the one-row case of fuse_rows."""
    return fuse_rows(np.asarray(lbp)[None], np.asarray(wld)[None], strategy)[0]


def write_config(path, **overrides):
    """Write a pipeline config JSON; keyword blocks replace the defaults."""
    doc = {
        "detector": {"delta_watts": 15.0, "steady_len": 5, "window_len": 256},
        "eval": {"folds": 3, "seed": 11, "stratified": True},
        "io": {
            "output": str(path.parent / "out"),
            "synth": {
                "classes": ["square_wave", "staircase", "duty_cycled"],
                "signals_per_class": 4,
                "signal_len": 1024,
                "noise_sigma": 2.0,
                "seed": 7,
            },
        },
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return path
