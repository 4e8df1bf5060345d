"""Command-line pipeline: synth, extract, eval, report.

One JSON config drives everything; a handful of flags set the sweep
parameters, as if written in the config, so strategy/k/metric comparisons
are one-liners. All randomness
flows from config seeds, so re-running any command with the same inputs
produces byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 IO or input-data error,
4 zero events detected corpus-wide.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter, deque
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import PipelineConfig, config_fingerprint, config_to_dict, load_config
from .data import generate, load_dataset, write_corpus
from .errors import InvalidConfig, MalformedCsv, NoEvents, PipelineError
from .evaluation import EvalReport, run_eval
from .fusion import FusionStrategy
from .pipeline import (
    FeatureTable,
    dataset_from_records,
    extract_records,
    load_records,
    records_to_jsonl,
)
from .signals import PowerSignal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_EVENTS = 4

STRATEGY_NAMES = [s.value for s in FusionStrategy]


@contextmanager
def _atomic_file(path: Path):
    """A text file that replaces ``path`` if the block succeeds, else is removed.

    A ``path`` that exists and is not a regular file, such as a device or a
    FIFO, is written in place and never replaced.
    """
    # "\n" ends each line on every platform, as the dump reader reads them
    if path.exists() and not path.is_file():
        with path.open("w", newline="\n") as f:
            yield f
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    strategy = getattr(args, "strategy", None)
    return load_config(
        args.config,
        strategy=None if strategy == "all" else strategy,
        k=getattr(args, "k", None),
        metric=getattr(args, "metric", None),
        folds=getattr(args, "folds", None),
        seed=args.seed,
    )


def _signals(cfg: PipelineConfig) -> Iterator[PowerSignal]:
    """The config's signals in (label, source_id) order, one at a time.

    A synthetic signal is generated only when it is taken, and a loaded corpus
    lets go of each recording as it hands it on.
    """
    if cfg.io.input_root is not None:
        queue = deque(load_dataset(cfg.io.input_root))
        return (queue.popleft() for _ in range(len(queue)))
    synth = cfg.io.synth
    count = len(synth.classes) * synth.signals_per_class
    return (generate(synth, slice(i, i + 1))[0] for i in range(count))


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if cfg.io.synth is None:
        raise InvalidConfig("synth requires an io.synth block")
    out_root = Path(args.out) if args.out else Path(cfg.io.output) / "corpus"
    # each signal is generated only when the writes reach it
    counts = write_corpus(_signals(cfg), out_root)
    for label in sorted(counts):
        print(f"class={label} files={counts[label]}")
    print(f"total={sum(counts.values())} root={out_root}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out) if args.out else Path(cfg.io.output) / "features.jsonl"
    signals = _signals(cfg)
    counts = Counter()
    with _atomic_file(out) as f:

        def write(stack: FeatureTable) -> None:
            f.write(records_to_jsonl(stack))
            counts.update(stack.label)

        # each stack is written as soon as it is described, and not kept
        extract_records(signals, cfg.detector, cfg.descriptor, emit=write)
        if not counts:
            # raised inside, so an earlier dump is kept
            raise NoEvents("no events detected in any signal")
    for label in sorted(counts):
        print(f"class={label} windows={counts[label]}")
    print(f"total={counts.total()} dump={out}")
    return EXIT_OK


def _records_for_eval(cfg: PipelineConfig):
    dump = Path(cfg.io.output) / "features.jsonl"
    if dump.is_file():
        # never empty: extract writes no dump when it finds no window
        return load_records(dump)
    records = FeatureTable.joined(extract_records(_signals(cfg), cfg.detector, cfg.descriptor))
    if not records:
        raise NoEvents("no events detected in any signal")
    return records


def _single_report_doc(cfg: PipelineConfig, report: EvalReport) -> dict:
    return {
        "tool_version": __version__,
        "config": config_to_dict(cfg),
        "config_fingerprint": config_fingerprint(cfg),
        **report.to_dict(),
    }


def _ordering_section(accuracies: dict[str, float]) -> dict:
    confirmed = accuracies["sum"] >= accuracies["concat"] >= accuracies["mult"]
    observed = " ".join(f"{name}={accuracies[name]!r}" for name in STRATEGY_NAMES)
    return {
        "expected": "sum >= concat >= mult on mean accuracy",
        "observed": observed,
        "confirmed": confirmed,
        "deviation": None if confirmed else f"expected sum >= concat >= mult; observed {observed}",
    }


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    records = _records_for_eval(cfg)
    run_all = args.strategy == "all"
    strategies = list(FusionStrategy) if run_all else [cfg.fusion_strategy]
    docs, lines = {}, []
    rows = ["strategy,fold,accuracy,macro_f1" if run_all else "fold,accuracy,macro_f1"]
    for strategy in strategies:
        cfg_s = dataclasses.replace(cfg, fusion_strategy=strategy)
        # no name holds the dataset, so it is freed before the next one is fused
        report = run_eval(dataset_from_records(records, strategy), cfg_s.knn, cfg_s.eval)
        name = strategy.value
        docs[name] = _single_report_doc(cfg_s, report)
        column = f"{name}," if run_all else ""
        rows += [f"{column}{f.fold},{f.accuracy!r},{f.macro_f1!r}" for f in report.per_fold]
        rows.append(f"{column}aggregate,{report.mean_accuracy!r},{report.mean_macro_f1!r}")
        prefix = f"{name}: " if run_all else ""
        lines.append(f"{prefix}accuracy={report.mean_accuracy!r} macro_f1={report.mean_macro_f1!r}")

    if run_all:
        ordering = _ordering_section({name: d["mean_accuracy"] for name, d in docs.items()})
        doc = {
            "tool_version": __version__,
            "config": config_to_dict(cfg),
            "config_fingerprint": config_fingerprint(cfg),
            "strategies": docs,
            "ordering": ordering,
        }
        if ordering["confirmed"]:
            lines.append("ordering confirmed: sum >= concat >= mult")
        else:
            lines.append(f"ordering deviation: {ordering['deviation']}")
    else:
        doc = docs[cfg.fusion_strategy.value]

    out = Path(args.out) if args.out else Path(cfg.io.output) / "report.json"
    with _atomic_file(out) as f:
        f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if cfg.io.report_csv:
        with _atomic_file(Path(cfg.io.report_csv)) as f:
            f.write("\n".join(rows) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _report_table(doc: dict, indent: str = "") -> list[str]:
    lines = [f"{indent}{'fold':>9}  {'accuracy':>9}  {'macro_f1':>9}  {'test_size':>9}"]
    for fold in doc["per_fold"]:
        lines.append(
            f"{indent}{fold['fold']:>9}  {fold['accuracy']:>9.4f}  "
            f"{fold['macro_f1']:>9.4f}  {fold['test_size']:>9}"
        )
    lines.append(
        f"{indent}{'aggregate':>9}  {doc['mean_accuracy']:>9.4f}  "
        f"{doc['mean_macro_f1']:>9.4f}  {sum(f['test_size'] for f in doc['per_fold']):>9}"
    )
    labels = doc["class_labels"]
    width = max(len(l) for l in labels)
    lines.append(f"{indent}confusion (rows=true, cols=predicted):")
    for label, row in zip(labels, doc["confusion"]):
        cells = " ".join(f"{v:>6}" for v in row)
        lines.append(f"{indent}  {label:<{width}} {cells}")
    lines.append(f"{indent}fingerprint={doc['config_fingerprint']} seed={doc['seed']}")
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON, or text that does not decode
        raise MalformedCsv(f"{path}: not valid JSON: {exc}") from exc
    # the whole document is rendered before any of it is printed
    try:
        if "strategies" in doc:
            lines = []
            for name in STRATEGY_NAMES:
                if name in doc["strategies"]:
                    lines += [f"[{name}]", *_report_table(doc["strategies"][name], indent="  ")]
            if not lines:
                raise ValueError(f"'strategies' holds none of {', '.join(STRATEGY_NAMES)}")
            ordering = doc.get("ordering", {})
            if ordering:
                status = "confirmed" if ordering.get("confirmed") else "DEVIATION"
                lines.append(f"ordering {status}: {ordering.get('observed', '')}")
        else:
            lines = _report_table(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedCsv(f"{path}: not a report file ({exc})") from exc
    print("\n".join(lines))
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="pipeline config JSON")
    sub.add_argument("--out", help="override the command's output path")
    sub.add_argument("--seed", type=int, help="seed override (eval and synth)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texture-nilm",
        description="Appliance identification from power traces via fused "
        "2D texture histograms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="write a synthetic CSV corpus")
    _add_common(synth)
    synth.set_defaults(func=cmd_synth)

    extract = subs.add_parser("extract", help="extract descriptor histograms")
    _add_common(extract)
    extract.set_defaults(func=cmd_extract)

    evaluate = subs.add_parser("eval", help="cross-validate and write a report")
    _add_common(evaluate)
    evaluate.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES + ["all"],
        help="fusion strategy override ('all' evaluates every strategy)",
    )
    evaluate.add_argument("--k", type=int, help="neighbor count override")
    evaluate.add_argument(
        "--metric", choices=["euclidean", "cosine"], help="distance metric override"
    )
    evaluate.add_argument("--folds", type=int, help="cross-validation fold override")
    evaluate.set_defaults(func=cmd_eval)

    report = subs.add_parser("report", help="pretty-print a report JSON")
    report.add_argument("path", help="report file to print")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidConfig):
            return EXIT_CONFIG
        return EXIT_NO_EVENTS if isinstance(exc, NoEvents) else EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
