"""Check that every golden benchmark request still gives its recorded report.

Run from the root of a qdesk checkout:

    python3 tools/check_golden.py

Each item of ``perfbench/golden.json`` runs once through the CLI, after its
input files are written into the git-ignored ``.perfbench_work/``.  Its
exit code, report digest, schema and semantic referee are checked by the
benchmark's own gate.  Every mismatch is printed; the exit status is 1 if
there is any.  Unlike ``perfbench/make_golden.py`` this never rewrites
``golden.json``.
"""

from __future__ import annotations

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
    for item in items:
        outcome = client.spawn(root, client.qdesk_command(item["argv"]), env)
        problems = gate.check(item, outcome.returncode, outcome.out)
        if problems:
            failed += 1
            print(f"FAIL {planmod.request_key(item['argv'])}: {problems}\n"
                  f"{outcome.err.decode(errors='replace')}", flush=True)
    print(f"{len(items)} items, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
