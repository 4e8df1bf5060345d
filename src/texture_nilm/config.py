"""Pipeline configuration: JSON parsing, validation, fingerprinting."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .classify import KnnConfig
from .data import SynthConfig
from .descriptors import DescriptorConfig
from .errors import InvalidConfig
from .evaluation import EvalConfig
from .fusion import FusionStrategy
from .signals import EventDetectorConfig


@dataclass(frozen=True)
class IoConfig:
    """Where data comes from and where artifacts go.

    Exactly one of ``input_root`` (a corpus on disk) and ``synth`` (a
    generator config) must be present. ``output`` is the artifact root; the
    CLI derives `corpus/`, `features.jsonl` and `report.json` under it unless
    a command-level --out overrides the specific target.
    """

    output: str = "out"
    input_root: str | None = None
    synth: SynthConfig | None = None
    sampling_rate_hz: float | None = None
    report_csv: str | None = None

    def __post_init__(self) -> None:
        if (self.input_root is None) == (self.synth is None):
            raise InvalidConfig(
                "exactly one of io.input_root and io.synth must be set"
            )
        if self.sampling_rate_hz is not None and not self.sampling_rate_hz > 0:
            raise InvalidConfig("sampling_rate_hz must be positive when set")


@dataclass(frozen=True)
class PipelineConfig:
    detector: EventDetectorConfig = EventDetectorConfig()
    descriptor: DescriptorConfig = DescriptorConfig()
    fusion_strategy: FusionStrategy = FusionStrategy.SUM
    knn: KnnConfig = KnnConfig()
    eval: EvalConfig = EvalConfig()
    io: IoConfig = IoConfig(synth=SynthConfig())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fusion_strategy", FusionStrategy(self.fusion_strategy)
        )
        if self.io.synth is not None:
            if self.io.synth.signal_len < self.detector.window_len:
                raise InvalidConfig(
                    "synth.signal_len must be at least detector.window_len "
                    f"({self.io.synth.signal_len} < {self.detector.window_len})"
                )


# what a config value must be, by its field's annotated type; enum and nested
# config fields are left to their own constructors
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    bool: ("true or false", lambda v: type(v) is bool),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[str, ...]: (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
    ),
}


def _check_type(value, hint, key: str) -> None:
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in kinds:
        return
    for kind in kinds:
        if kind in _JSON_TYPES:
            what, fits = _JSON_TYPES[kind]
            if not fits(value):
                raise InvalidConfig(f"{key} must be {what}, got {json.dumps(value)}")


def _build(cls, block: dict, where: str, **flags):
    """``cls`` from a raw block, with each flag that is not None written in."""
    if not isinstance(block, dict):
        raise InvalidConfig(f"{where} must be a JSON object")
    block = {**block, **{key: value for key, value in flags.items() if value is not None}}
    hints = typing.get_type_hints(cls)
    unknown = set(block) - set(hints)
    if unknown:
        raise InvalidConfig(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in block.items():
        _check_type(value, hints[key], f"{where}.{key}")
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad {where} block: {exc}") from exc


def config_from_dict(
    raw: dict,
    *,
    strategy: str | None = None,
    k: int | None = None,
    metric: str | None = None,
    folds: int | None = None,
    seed: int | None = None,
) -> PipelineConfig:
    """Validate a raw config with the CLI flags written into it.

    A flag that is not None sets its key as if the file held that value, so
    it is checked the same way; ``seed`` sets the eval seed and, when there
    is a synth block, the synth seed.
    """
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be a JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(PipelineConfig)}
    if unknown:
        raise InvalidConfig(f"unknown top-level keys: {sorted(unknown)}")

    io_block = raw.get("io", {})
    if isinstance(io_block, dict) and io_block.get("synth") is not None:
        synth = _build(SynthConfig, io_block["synth"], "io.synth", seed=seed)
        io_block = {**io_block, "synth": synth}

    if strategy is None:
        strategy = raw.get("fusion_strategy", "sum")
    try:
        strategy = FusionStrategy(strategy)
    except ValueError as exc:
        raise InvalidConfig(f"bad fusion_strategy: {exc}") from exc

    return PipelineConfig(
        detector=_build(EventDetectorConfig, raw.get("detector", {}), "detector"),
        descriptor=_build(DescriptorConfig, raw.get("descriptor", {}), "descriptor"),
        fusion_strategy=strategy,
        knn=_build(KnnConfig, raw.get("knn", {}), "knn", k=k, metric=metric),
        eval=_build(EvalConfig, raw.get("eval", {}), "eval", folds=folds, seed=seed),
        io=_build(IoConfig, io_block, "io"),
    )


def load_config(path: str | Path, **flags) -> PipelineConfig:
    """Read and validate a pipeline config file, with ``flags`` as in
    :func:`config_from_dict`.

    IO errors propagate as OSError; content problems raise InvalidConfig.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON, or text that does not decode
        raise InvalidConfig(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw, **flags)


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-JSON view of a config, canonical enough to fingerprint."""
    return dataclasses.asdict(cfg)


def config_fingerprint(cfg: PipelineConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
