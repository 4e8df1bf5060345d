"""The benchmark's workloads: one corpus shape and one command list each.

Each workload stresses a different cost centre of the pipeline, because each
cost grows with a different input property: CSV ingest with the number of
samples, per-window extraction with the number of windows, and KNN
cross-validation with the square of the number of windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240601
# A second documented seed: a claim written against DEFAULT_SEED should also
# hold here. Only invariants are checked on it, no recorded values.
SECOND_SEED = 20240602

CLASSES = (
    "square_wave",
    "staircase",
    "spike_decay",
    "sinusoid",
    "constant_drift",
    "duty_cycled",
)
DETECTOR = {"delta_watts": 15.0, "steady_len": 5}
EVAL_SEED = 7
FOLDS = 10


@dataclass(frozen=True)
class EvalVariant:
    strategy: str
    metric: str
    k: int
    weighting: str

    @property
    def name(self) -> str:
        return f"{self.strategy}-{self.metric}-k{self.k}-{self.weighting}"


@dataclass(frozen=True)
class Workload:
    name: str
    signals_per_class: int
    signal_len: int
    window_len: int
    synth: bool
    evals: tuple[EvalVariant, ...]

    def synth_block(self, seed: int) -> dict:
        return {
            "classes": list(CLASSES),
            "signals_per_class": self.signals_per_class,
            "signal_len": self.signal_len,
            "noise_sigma": 3.0,
            "seed": seed,
        }

    def config(self, seed: int, weighting: str = "uniform") -> dict:
        # k=1 forces uniform votes when the config is loaded, and a --k
        # override keeps the loaded weighting, so the file itself needs k > 1
        k = 1 if weighting == "uniform" else 5
        return {
            "detector": {**DETECTOR, "window_len": self.window_len},
            "fusion_strategy": "sum",
            "knn": {"k": k, "metric": "euclidean", "weighting": weighting},
            "eval": {"folds": FOLDS, "seed": EVAL_SEED, "stratified": True},
            "io": {"output": "out", "synth": self.synth_block(seed)},
        }

    def write_configs(self, job_dir: Path, seed: int) -> None:
        """Write the config files the command list refers to."""
        for weighting in sorted({v.weighting for v in self.evals} | {"uniform"}):
            path = job_dir / config_name(weighting)
            path.write_text(json.dumps(self.config(seed, weighting), indent=2) + "\n")

    def commands(self) -> list[tuple[str, list[str]]]:
        """(step name, CLI argv) in run order; paths are relative to the job dir."""
        steps = []
        if self.synth:
            steps.append(("synth", ["synth", "--config", config_name("uniform")]))
        steps.append(("extract", ["extract", "--config", config_name("uniform")]))
        for v in self.evals:
            steps.append(
                (
                    f"eval:{v.name}",
                    [
                        "eval",
                        "--config",
                        config_name(v.weighting),
                        "--strategy",
                        v.strategy,
                        "--metric",
                        v.metric,
                        "--k",
                        str(v.k),
                        "--out",
                        report_path(v),
                    ],
                )
            )
        return steps


def config_name(weighting: str) -> str:
    # the CLI has no weighting flag, so each weighting gets its own config file
    return "config.json" if weighting == "uniform" else f"config-{weighting}.json"


def report_path(v: EvalVariant) -> str:
    return f"out/reports/{v.name}.json"


FEATURES_PATH = "out/features.jsonl"
CORPUS_PATH = "out/corpus"

# mult and --strategy all are left out: both exit 3 on these corpora at the
# seed commit, so a fix would read as an eval_s regression.
SWEEP = tuple(
    EvalVariant(strategy, metric, k, weighting)
    for strategy in ("sum", "concat")
    for metric in ("euclidean", "cosine")
    for k, weighting in ((1, "uniform"), (5, "inverse_distance"))
)

WORKLOADS = {
    w.name: w
    for w in (
        # few long recordings: CSV writing and parsing are ~90% of the job
        Workload(
            name="csv-ingest",
            signals_per_class=10,
            signal_len=32768,
            window_len=4096,
            synth=True,
            evals=(EvalVariant("sum", "euclidean", 1, "uniform"),),
        ),
        # the README corpus and the user's parameter sweep: KNN is ~75%
        Workload(
            name="eval-sweep",
            signals_per_class=50,
            signal_len=4096,
            window_len=1024,
            synth=True,
            evals=SWEEP,
        ),
        # 16k short windows generated in memory: all per-window work, no CSV
        # and no eval (cross-validation over 16k windows takes minutes)
        Workload(
            name="dense-events",
            signals_per_class=100,
            signal_len=4096,
            window_len=64,
            synth=False,
            evals=(),
        ),
    )
}
