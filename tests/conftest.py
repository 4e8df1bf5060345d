import json

import numpy as np
import pytest

from texture_nilm import DescriptorConfig, LabeledDataset, Matrix2D
from texture_nilm.fusion import fuse_rows


@pytest.fixture
def descriptor_cfg():
    return DescriptorConfig()


def random_matrix(rng: np.random.Generator, rows: int = 8, cols: int = 8) -> Matrix2D:
    return Matrix2D(rng.integers(0, 256, size=(rows, cols)))


def constant_matrix(value: int, rows: int, cols: int | None = None) -> Matrix2D:
    return Matrix2D(np.full((rows, cols or rows), value, dtype=np.int64))


def dataset_from_single_descriptor(records, kind: str) -> LabeledDataset:
    """L1-normalized single-descriptor dataset for ablation comparisons."""
    if kind not in ("lbp", "wld"):
        raise ValueError("kind must be 'lbp' or 'wld'")
    vectors = []
    for r in records:
        bins = np.asarray(getattr(r, kind), dtype=np.float64)
        vectors.append(bins / bins.sum())
    return LabeledDataset(np.vstack(vectors), [r.label for r in records])


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
