#!/usr/bin/env python3
"""Benchmark of the texture-nilm CLI on one workload.

Runs the workload's `synth` / `extract` / `eval` commands one at a time, each
in a fresh `python -m texture_nilm.cli` subprocess and each job from an empty
output directory, repeating the job until --seconds have passed. Outputs are
checked after each job, outside the timed region. With --trace 1 it instead
runs the job once untraced and once traced (each command through
`tracing.py`, which wraps each module's public functions with timers), checks
that both wrote the same bytes, and reports per-layer metrics.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, holding the metrics BENCHMARK.json declares. The line before it
holds every metric with its sample count, plus the environment record.

Run from the repository root:
    python3 perfbench/run.py --workload eval-sweep --seed 20240601 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from checks import Command, Expected, check_job
from launcher import Launcher
from tracing import Tracer, layer_metrics
from workloads import DEFAULT_SEED, SECOND_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 7  # at least this many per run
SETUP_PER_JOB = 2
# The run must exit within 180 s; no job starts that would end after this.
DEADLINE_S = 150.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy

    from texture_nilm import pipeline

    worker_count = getattr(pipeline, "worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "extract_workers": worker_count() if worker_count else None,
        "load_1m_start": os.getloadavg()[0],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # commands import from the bytecode cache, as an installed package does,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(launcher: Launcher, cmd: Command, argv: list[str], cwd: Path, deadline: float) -> None:
    """Run one command in a subprocess; record wall time and its own max RSS."""
    reply = launcher.run(argv, cwd, cwd / "stderr.log", max(deadline - time.monotonic(), 1.0))
    cmd.seconds = reply["seconds"]
    cmd.returncode = reply["returncode"]
    cmd.rss_mb = reply["maxrss_kb"] / 1024.0
    cmd.stdout = reply["stdout"]
    if cmd.returncode != 0:
        tail = (cwd / "stderr.log").read_text(errors="replace").strip().splitlines()[-1:]
        cmd.errors.append(f"exit {cmd.returncode}: {' '.join(tail)}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_job(workload, seed, job_dir, launcher, deadline, tracer=None) -> tuple[list[Command], float]:
    """Run the workload's commands in order from an empty directory.

    With a tracer, each command runs through tracing.py instead of the CLI's
    own entry point, and its spans are merged into the tracer afterwards.
    """
    fresh_dir(job_dir)
    workload.write_configs(job_dir, seed)
    commands = []
    start = time.perf_counter()
    for i, (step, argv) in enumerate(workload.commands()):
        cmd = Command(step, argv)
        commands.append(cmd)
        if tracer is None:
            prefix = [sys.executable, "-m", "texture_nilm.cli"]
        else:
            prefix = [sys.executable, str(HERE / "tracing.py"), f"spans-{i}.json"]
        launch(launcher, cmd, prefix + argv, job_dir, deadline)
        if cmd.returncode != 0:
            break
    job_s = time.perf_counter() - start
    if tracer is not None:
        for i in range(len(commands)):
            spans = job_dir / f"spans-{i}.json"
            if spans.is_file():
                tracer.merge(spans)
    return commands, job_s


def _median(values: list[float]) -> dict | None:
    if not values:
        return None
    return {"median": statistics.median(values), "n": len(values), "samples": values}


def end_to_end(jobs: list[tuple[list[Command], float]], setup: list[float]) -> dict:
    """Medians over the run's jobs; a command a workload never runs is absent."""

    def per_job(select):
        values = []
        for commands, _ in jobs:
            picked = [c for c in commands if select(c.step)]
            if picked:
                values.append(sum(c.seconds for c in picked))
        return values

    found = {
        "setup_s": (_median(setup), "s"),
        "job_s": (_median([job_s for _, job_s in jobs]), "s"),
        "synth_s": (_median(per_job(lambda s: s == "synth")), "s"),
        "extract_s": (_median(per_job(lambda s: s == "extract")), "s"),
        "eval_s": (_median(per_job(lambda s: s.startswith("eval:"))), "s"),
        "peak_rss_mb": (
            _median([max(c.rss_mb for c in commands) for commands, _ in jobs if commands]),
            "MB",
        ),
    }
    return {name: {**stat, "unit": unit} for name, (stat, unit) in found.items() if stat}


def setup_launch(launcher: Launcher, work: Path, deadline: float) -> Command:
    """One launch of `--version`: interpreter start plus the whole package import."""
    cmd = Command("setup", ["--version"])
    launch(launcher, cmd, [sys.executable, "-m", "texture_nilm.cli", "--version"], work, deadline)
    if cmd.returncode == 0 and not cmd.stdout.strip():
        cmd.errors.append("--version printed nothing")
    return cmd


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"generator seed (default {DEFAULT_SEED}; {SECOND_SEED} is the second seed "
        "for checking a claim on a seed it was not written against)",
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to repeat the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (SRC / "texture_nilm" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no texture_nilm sources or test oracles under {ROOT}", file=sys.stderr)
        return 2

    # a terminated run still stops its processes and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    # started first, while this process is small; see launcher.py
    launcher = Launcher(child_env())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload]
    commands: list[Command] = []
    detail: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    try:
        sys.path.insert(0, str(SRC))
        env_record = environment()
        if env_record["load_1m_start"] >= (env_record["nproc"] or 1):
            print(
                f"warning: 1-minute load {env_record['load_1m_start']:.2f} is at least "
                f"nproc={env_record['nproc']}; timings will be noisy",
                file=sys.stderr,
            )
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = Expected.build(workload, args.seed, ROOT)
        fresh_dir(work)
        if args.trace == 0:
            # The machine's speed drifts over seconds, so the setup launches
            # are spread over the run instead of made back to back.
            commands.append(setup_launch(launcher, work, deadline))  # fills the bytecode cache
            launches: list[Command] = []
            jobs = []
            reference = None
            stop = time.monotonic() + args.seconds
            while True:
                launches += [setup_launch(launcher, work, deadline) for _ in range(SETUP_PER_JOB)]
                job_start = time.monotonic()
                cmds, job_s = run_job(workload, args.seed, work / "job", launcher, deadline)
                reference = check_job(workload, cmds, expected, work / "job", reference)
                commands += cmds
                jobs.append((cmds, job_s))
                now = time.monotonic()
                if any(c.failed for c in cmds) or now >= stop or now + (now - job_start) > deadline:
                    break
            while len(launches) < SETUP_LAUNCHES:
                launches.append(setup_launch(launcher, work, deadline))
            commands += launches
            setup = [c.seconds for c in launches if not c.failed]
            detail["end_to_end"] = end_to_end(jobs, setup)
            measured = {k: (v["median"], v["unit"]) for k, v in detail["end_to_end"].items()}
            section = "end_to_end"
        else:
            cmds, job_s = run_job(workload, args.seed, work / "untraced", launcher, deadline)
            reference = check_job(workload, cmds, expected, work / "untraced", None)
            commands += cmds
            tracer = Tracer()
            traced, traced_s = run_job(workload, args.seed, work / "traced", launcher, deadline, tracer)
            check_job(workload, traced, expected, work / "traced", reference)
            commands += traced
            measured, layer_self = layer_metrics(tracer)
            measured["trace.overhead_s"] = (traced_s - job_s, "s")
            detail["end_to_end"] = end_to_end([(cmds, job_s)], [])
            detail["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
            detail["layer_self_s"] = layer_self
            detail["missing_hooks"] = tracer.missing
            section = "per_layer"
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failed = [c for c in commands if c.failed]
    env_record["load_1m_end"] = os.getloadavg()[0]
    detail["environment"] = env_record
    detail["attempted"] = len(commands)
    detail["error_rate"] = len(failed) / len(commands)
    detail["failures"] = [{"step": c.step, "errors": c.errors} for c in failed]
    for c in failed:
        print(f"FAILED {c.step}: {'; '.join(c.errors)}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": measured[m["name"]][0], "unit": measured[m["name"]][1]}
        for m in declared[section]
        if m["name"] in measured
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(commands),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
