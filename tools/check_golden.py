"""Check that every golden benchmark request still gives its recorded report.

Run from the root of a qdesk checkout:

    python3 tools/check_golden.py

Each item of ``perfbench/golden.json`` runs once through the CLI, after its
input files are written into the git-ignored ``.perfbench_work/``.  Its
exit code, report digest, schema and semantic referee are checked by the
benchmark's own gate.  Every mismatch is printed; the exit status is 1 if
there is any.  A summary line per golden class follows: its item count, and
the median wall time and the largest peak RSS of its runs.  On Linux a
child's ``ru_maxrss`` starts at the high-water RSS of the process that
spawned it, so each request is spawned by a fresh launcher interpreter
(``_LAUNCHER``, about 10 MB) that reads the request's own ``os.wait4`` peak
and times it from spawn to exit, as the benchmark client does.  Unlike
``perfbench/make_golden.py`` this never rewrites ``golden.json``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks
import client
import plan as planmod

# Runs the command after its first argument, a timeout in seconds, with this
# launcher's stdin, stdout and stderr; kills it at the timeout; appends
# "<peak RSS in KB> <wall seconds>" of the command to stderr as a last line;
# and exits with the command's exit code (nonzero when it was killed).
_LAUNCHER = """\
import os, subprocess, sys, threading, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[2:])
killer = threading.Timer(float(sys.argv[1]), child.kill)
killer.start()
_, status, usage = os.wait4(child.pid, 0)
killer.cancel()
sys.stderr.write(f"\\n{usage.ru_maxrss} {time.perf_counter() - start}\\n")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "qdesk" / "__init__.py").is_file():
        print("run from the root of a qdesk checkout", file=sys.stderr)
        return 2
    items = planmod.load_golden()["items"]
    planmod.write_inputs(root, items)
    gate = checks.Gate(root)
    env = client.child_env(root)
    failed = 0
    runs: dict[str, list[tuple[float, float]]] = {}  # class -> (wall, peak)
    for item in items:
        launched = [sys.executable, "-c", _LAUNCHER, str(client.REQUEST_TIMEOUT_S),
                    *client.qdesk_command(item["argv"])]
        # the launcher enforces the request timeout, so it is never killed first
        outcome = client.spawn(root, launched, env, timeout=2 * client.REQUEST_TIMEOUT_S)
        err, _, reading = outcome.err.rstrip(b"\n").rpartition(b"\n")
        peak_kb, wall_s = reading.split()
        runs.setdefault(item["class"], []).append((float(wall_s), int(peak_kb) / 1024))
        problems = gate.check(item, outcome.returncode, outcome.out)
        if problems:
            failed += 1
            print(f"FAIL {planmod.request_key(item['argv'])}: {problems}\n"
                  f"{err.decode(errors='replace')}", flush=True)
    print(f"{len(items)} items, {failed} failed")
    for cls, rows in runs.items():
        walls, peaks = zip(*rows)
        print(f"{cls}: {len(rows)} items, median wall {statistics.median(walls):.2f} s, "
              f"max peak RSS {max(peaks):.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
