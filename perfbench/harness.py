"""Child-process measurement: wall time, CPU and peak RSS of one command.

All three numbers describe the benchmark's own child and the
descendants it waited for (pool workers): CPU and peak RSS come from the
rusage that `os.wait4` returns for that child, wall time from spawn to
reap. Nothing system-wide is read.

A child that runs past its time limit is killed with its whole process
group, so a degenerate input cannot hang the benchmark; the caller
counts such a run as failed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def _kill_group(pgid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], *, cwd: Path, env: dict, stdout: Path, stderr: Path,
              timeout_s: float) -> ChildResult:
    """Run `argv` to completion (or to `timeout_s`) and measure it."""
    fired = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid, fired))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        timed_out=fired.is_set(),
    )
