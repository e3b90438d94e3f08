"""One closed-loop client: start a qdesk child, wait for it, time it.

Each request is its own ``python -m qdesk ...`` process, as users run it.
The timed interval runs from just before the spawn to the return of
``os.wait4``, whose rusage gives the child's own peak RSS.  The report goes
to an unnamed file in the work directory so that a multi-megabyte report never
blocks on a pipe, and is read only after the timed interval.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from plan import WORK_DIR

#: A request still running after this long is killed and counted as failed.
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Outcome:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    out: bytes
    err: bytes


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QDESK_SEED", None)  # every request passes --seed explicitly
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def qdesk_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "qdesk", *argv]


def spawn(root: Path, command: list[str], env: dict[str, str],
          timeout: float = REQUEST_TIMEOUT_S) -> Outcome:
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read())
