"""Exception taxonomy for the pipeline stages."""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(PipelineError):
    """A configuration value violates its documented constraints."""


class AllZeroSignal(PipelineError):
    """Zero repair is impossible because the signal has no non-zero sample."""


class WindowTooShort(PipelineError):
    """An event window is too short to form a 3x3-capable matrix."""


class MatrixTooSmall(PipelineError):
    """A matrix has no interior cells (needs at least 3 rows and 3 columns)."""


class WindowError(PipelineError):
    """A failure of one window in a stack; ``row`` is its index in the stack."""

    def __init__(self, message: str, row: int = 0) -> None:
        super().__init__(message)
        self.row = row


class EmptyHistogram(WindowError):
    """A histogram with total mass zero cannot be normalized."""


class DegenerateProduct(WindowError):
    """Multiplicative fusion of histograms with disjoint support is all-zero."""


class DimensionMismatch(PipelineError):
    """Query and training vectors have different lengths."""


class EmptyTrainingSet(PipelineError):
    """Prediction requires at least one training vector."""


class NonFiniteDistance(PipelineError, ValueError):
    """A NaN distance left a weighted vote with no winning label."""


class ZeroNormVector(PipelineError, ValueError):
    """Cosine distance is undefined for a zero-norm query or training vector."""


class TooFewClasses(PipelineError, ValueError):
    """Evaluation needs at least two classes to tell apart."""


class TooFewSamplesPerClass(PipelineError):
    """Stratified folding needs at least `folds` members in every class."""


class MalformedCsv(PipelineError):
    """An input file (recording CSV or feature dump) violates its format."""


class NonMonotoneTimestamps(PipelineError):
    """A recording's timestamps are not strictly increasing."""


class EmptyDataset(PipelineError):
    """No recordings were found under the dataset root."""


class NoEvents(PipelineError):
    """Extraction found no event window in any signal."""


class WorkerDied(PipelineError):
    """A corpus I/O worker process ended before it reported back."""


class RangeOverflow(WindowError):
    """A window's max - min overflows float64, so it cannot be quantized."""
