"""A small process that starts the CLI commands and measures each one.

A child's max RSS includes the memory of the process that forked it, at the
moment of the fork. The benchmark process grows (numpy, oracle data), so it
does not start the commands itself: it starts this launcher first, while it
is still small, and sends it one request per command. For each command the
launcher reports the wall time from start to exit, the exit code, the
command's own max RSS and its stdout.

Protocol: one JSON object per line in each direction.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path


def serve() -> None:
    running: list[subprocess.Popen] = []

    def stop(signum, frame):
        # ends the command in flight too, so no process outlives the benchmark
        for proc in running:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=subprocess.PIPE, stderr=err)
            running.append(proc)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                running.remove(proc)
                timer.cancel()
                timer.join()
                proc.stdout.close()
            seconds = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "seconds": seconds,
            "returncode": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out.decode(errors="replace"),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client side: owns the launcher process until close()."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], cwd: Path, stderr: Path, timeout: float) -> dict:
        req = {"argv": argv, "cwd": str(cwd), "stderr": str(stderr), "timeout": timeout}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        """Stop the launcher, and the command it is running if any."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=2)  # an idle launcher exits at end of input
        except subprocess.TimeoutExpired:
            self._proc.terminate()  # busy: its SIGTERM handler ends the command
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    serve()
