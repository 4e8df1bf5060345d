"""Appliance identification from power traces via fused 2D texture histograms.

The pipeline: raw power signal -> zero repair -> event windows -> 8-bit 2D
matrix -> LBP and WLD histograms -> fused feature vector -> nearest-neighbor
classification -> cross-validated report.
"""

__version__ = "0.1.0"

from .classify import KnnConfig, LabeledDataset, Metric, VoteWeighting, predict, predict_batch
from .data import ARCHETYPES, SynthConfig, generate, load_dataset, write_corpus
from .descriptors import (
    DescriptorConfig,
    DescriptorHistogram,
    lbp_histogram,
    wld_histogram,
)
from .evaluation import EvalConfig, EvalReport, macro_f1, run_eval, stratified_folds
from .fusion import FusionStrategy
from .signals import (
    EventDetectorConfig,
    EventWindow,
    PowerSignal,
    detect_events,
    impute_zeros,
)
from .transform2d import Matrix2D, reshape

__all__ = [
    "ARCHETYPES",
    "DescriptorConfig",
    "DescriptorHistogram",
    "EvalConfig",
    "EvalReport",
    "EventDetectorConfig",
    "EventWindow",
    "FusionStrategy",
    "KnnConfig",
    "LabeledDataset",
    "Matrix2D",
    "Metric",
    "PowerSignal",
    "SynthConfig",
    "VoteWeighting",
    "detect_events",
    "generate",
    "impute_zeros",
    "lbp_histogram",
    "load_dataset",
    "macro_f1",
    "predict",
    "predict_batch",
    "reshape",
    "run_eval",
    "stratified_folds",
    "wld_histogram",
    "write_corpus",
    "__version__",
]
