"""Record the golden request pool: every candidate request and its report digest.

Run from the root of a checkout of the commit whose reports are the
reference (the benchmark's own commit), then commit ``golden.json``:

    python3 perfbench/make_golden.py

Each candidate runs once through the CLI.  Its report must pass the
schema and its semantic referee, or the script stops.  Factoring requests
whose single attempt drew an x sharing a factor with N are left out of the
pool: such a request ends at a gcd and never runs the order-finding
circuit that the oracle-period workload exists to measure.  Simon requests
are kept only when they stop after exactly n rounds, so that every Simon
request of one size does the same work (the round count otherwise ranges
from n to about 2n and would make a run's throughput depend on which
shifts the seed drew).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import client
import plan as planmod


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "qdesk" / "__init__.py").is_file():
        print("run from the root of a qdesk checkout", file=sys.stderr)
        return 2
    gate = checks.Gate(root)
    env = client.child_env(root)
    kept, dropped = [], 0
    for item in planmod.candidate_pool():
        planmod.write_inputs(root, [item])
        outcome = client.spawn(root, client.qdesk_command(item["argv"]), env)
        item["sha256"] = checks.digest(outcome.out)
        problems = gate.check(item, outcome.returncode, outcome.out)
        key = planmod.request_key(item["argv"])
        if problems:
            print(f"FAIL {key}: {problems}\n{outcome.err.decode(errors='replace')}",
                  file=sys.stderr)
            return 1
        result = json.loads(outcome.out)["result"]
        if item["argv"][0] == "factor" and result["attempts"][0]["lucky_gcd"]:
            dropped += 1
            print(f"drop {key} (gcd shortcut)", flush=True)
            continue
        if item["argv"][0] == "simon" and result["rounds"] != result["n"]:
            dropped += 1
            print(f"drop {key} ({result['rounds']} rounds)", flush=True)
            continue
        kept.append(item)
        print(f"ok   {outcome.wall_s:6.2f}s {outcome.peak_rss_mb:6.1f}MB {key}", flush=True)
    golden = {"items": kept}
    planmod.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(kept)} items kept, {dropped} dropped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
