"""Check that every golden benchmark request still gives its recorded report.

Run from the root of a qdesk checkout:

    python3 tools/check_golden.py

Each item of ``perfbench/golden.json`` runs once through the CLI, after its
input files are written into the git-ignored ``.perfbench_work/``.  Its
exit code, report digest, schema and semantic referee are checked by the
benchmark's own gate.  Every mismatch is printed; the exit status is 1 if
there is any.  A summary line per golden class follows: its item count, the
median wall time and the largest peak RSS of its runs, and this checker's
own peak RSS when it spawned them.  On Linux a child's ``ru_maxrss`` starts
at the high-water RSS of the process that spawned it, so a reading equal to
the checker's is only an upper bound on the request's peak.  Unlike
``perfbench/make_golden.py`` this never rewrites ``golden.json``.
"""

from __future__ import annotations

import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks
import client
import plan as planmod


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
    runs: dict[str, list[tuple[float, float, float]]] = {}  # class -> (wall, peak, own peak)
    for item in items:
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome = client.spawn(root, client.qdesk_command(item["argv"]), env)
        runs.setdefault(item["class"], []).append((outcome.wall_s, outcome.peak_rss_mb, own_mb))
        problems = gate.check(item, outcome.returncode, outcome.out)
        if problems:
            failed += 1
            print(f"FAIL {planmod.request_key(item['argv'])}: {problems}\n"
                  f"{outcome.err.decode(errors='replace')}", flush=True)
    print(f"{len(items)} items, {failed} failed")
    for cls, rows in runs.items():
        walls, peaks, own = zip(*rows)
        print(f"{cls}: {len(rows)} items, median wall {statistics.median(walls):.2f} s, "
              f"max peak RSS {max(peaks):.1f} MB (checker {max(own):.1f} MB)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
