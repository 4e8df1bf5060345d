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
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import PipelineConfig, config_fingerprint, config_to_dict, load_config
from .data import generate, load_dataset, write_corpus
from .errors import InvalidConfig, MalformedCsv, PipelineError
from .evaluation import EvalReport, run_eval
from .fusion import FusionStrategy
from .pipeline import (
    FeatureTable,
    dataset_from_records,
    extract_records,
    load_records,
    records_to_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_EVENTS = 4

STRATEGY_NAMES = [s.value for s in FusionStrategy]


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


@contextmanager
def _atomic_file(path: Path):
    """A text file that replaces ``path`` if the block succeeds, else is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # opened as Path.write_text opens it, so the bytes are the same
        with tmp.open("w") as f:
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


def _resolve_signals(cfg: PipelineConfig):
    if cfg.io.input_root is not None:
        return load_dataset(cfg.io.input_root, cfg.io.sampling_rate_hz)
    return generate(cfg.io.synth)


def _extract(cfg: PipelineConfig) -> list[FeatureTable]:
    # handed over as an iterator, so each signal is freed once its windows are cut
    return extract_records(iter(_resolve_signals(cfg)), cfg.detector, cfg.descriptor)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if cfg.io.synth is None:
        raise InvalidConfig("synth requires an io.synth block")
    out_root = Path(args.out) if args.out else Path(cfg.io.output) / "corpus"
    counts = write_corpus(generate(cfg.io.synth), out_root)
    for label in sorted(counts):
        print(f"class={label} files={counts[label]}")
    print(f"total={sum(counts.values())} root={out_root}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    stacks = _extract(cfg)
    if not stacks:
        _err("no events detected in any signal")
        return EXIT_NO_EVENTS
    out = Path(args.out) if args.out else Path(cfg.io.output) / "features.jsonl"
    with _atomic_file(out) as f:
        f.writelines(records_to_jsonl(stack) for stack in stacks)
    counts = Counter(label for stack in stacks for label in stack.label)
    for label in sorted(counts):
        print(f"class={label} windows={counts[label]}")
    print(f"total={counts.total()} dump={out}")
    return EXIT_OK


def _records_for_eval(cfg: PipelineConfig):
    dump = Path(cfg.io.output) / "features.jsonl"
    if dump.is_file():
        return load_records(dump)
    return FeatureTable.joined(_extract(cfg))


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
    if not records:
        _err("no events detected in any signal")
        return EXIT_NO_EVENTS

    run_all = args.strategy == "all"
    strategies = list(FusionStrategy) if run_all else [cfg.fusion_strategy]
    docs, lines = {}, []
    rows = ["strategy,fold,accuracy,macro_f1" if run_all else "fold,accuracy,macro_f1"]
    for strategy in strategies:
        cfg_s = dataclasses.replace(cfg, fusion_strategy=strategy)
        dataset = dataset_from_records(records, strategy)
        report = run_eval(dataset, cfg_s.knn, cfg_s.eval)
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


def _print_report_table(doc: dict, indent: str = "") -> None:
    print(f"{indent}{'fold':>9}  {'accuracy':>9}  {'macro_f1':>9}  {'test_size':>9}")
    for fold in doc["per_fold"]:
        print(
            f"{indent}{fold['fold']:>9}  {fold['accuracy']:>9.4f}  "
            f"{fold['macro_f1']:>9.4f}  {fold['test_size']:>9}"
        )
    print(
        f"{indent}{'aggregate':>9}  {doc['mean_accuracy']:>9.4f}  "
        f"{doc['mean_macro_f1']:>9.4f}  {sum(f['test_size'] for f in doc['per_fold']):>9}"
    )
    labels = doc["class_labels"]
    width = max(len(l) for l in labels)
    print(f"{indent}confusion (rows=true, cols=predicted):")
    for label, row in zip(labels, doc["confusion"]):
        cells = " ".join(f"{v:>6}" for v in row)
        print(f"{indent}  {label:<{width}} {cells}")
    print(f"{indent}fingerprint={doc['config_fingerprint']} seed={doc['seed']}")


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON, or text that does not decode
        raise MalformedCsv(f"{path}: not valid JSON: {exc}") from exc
    try:
        if "strategies" in doc:
            for name in STRATEGY_NAMES:
                if name not in doc["strategies"]:
                    continue
                print(f"[{name}]")
                _print_report_table(doc["strategies"][name], indent="  ")
            ordering = doc.get("ordering", {})
            if ordering:
                status = "confirmed" if ordering.get("confirmed") else "DEVIATION"
                print(f"ordering {status}: {ordering.get('observed', '')}")
        else:
            _print_report_table(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCsv(f"{path}: not a report file ({exc})") from exc
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
    except InvalidConfig as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except (OSError, PipelineError) as exc:
        _err(str(exc))
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
