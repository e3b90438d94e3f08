"""Closed-loop CLI benchmark for qdesk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qdesk checkout.  One client sends seeded requests,
each a ``python -m qdesk ...`` child process; the next starts only after
the previous one has exited.  Every report is checked (see checks.py)
after the timed loop.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics as a table.

``--trace 0`` measures the end-to-end metrics over a fixed plan sized to
take about S seconds at the seed commit (see plan.py).  ``--trace 1``
replays one fixed pass of the plan (each heavy class and each cycle class
once), every request once untraced and once through traced_qdesk.py, and
reports per-layer counts and self times, the tracing overhead, and the
kernel probe (kernel_probe.py) at n = 16/20/22/24.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import checks
import client
import plan as planmod

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: A run whose loop has taken this long sends no further requests, so that
#: it ends in bounded time even on a machine many times slower than expected.
LOOP_CAP_S = 120.0

#: (qubits, repeats) for the kernel probe; one repeat at the 24-qubit cap.
PROBE_SIZES = ((16, 5), (20, 5), (22, 3), (24, 1))
PROBE_TIMEOUT_S = 120.0

#: Bytes the kernel reads and writes per amplitude update (complex128 in and out).
BYTES_PER_AMP_UPDATE = 32


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(planmod.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------

def setup(root, golden, workload, seed, seconds, env):
    """Build the plan, write its input files and warm the interpreter.

    Repeated SETUP_REPEATS times; returns the plan and the median time.
    """
    passes = planmod.passes_for(workload, seconds)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = planmod.make_plan(golden, workload, seed, passes)
        planmod.write_inputs(root, plan)
        outcome = client.spawn(root, client.qdesk_command(["--version"]), env)
        times.append(time.perf_counter() - start)
        if outcome.returncode != 0 or not outcome.out.startswith(b"qdesk "):
            raise RuntimeError(
                f"qdesk --version failed: {outcome.err.decode(errors='replace')}"
            )
    return plan, statistics.median(times)


def closed_loop(root, plan, env):
    """Send the plan's requests one at a time, each after the previous exits."""
    results = []
    start = time.perf_counter()
    for item in plan:
        if time.perf_counter() - start >= LOOP_CAP_S:
            print(f"perfbench: loop cap of {LOOP_CAP_S:.0f} s reached after "
                  f"{len(results)} of {len(plan)} requests", file=sys.stderr)
            break
        results.append((item, client.spawn(root, client.qdesk_command(item["argv"]), env)))
    return results, time.perf_counter() - start


def check_all(gate, results):
    failed = 0
    for item, outcome in results:
        problems = gate.check(item, outcome.returncode, outcome.out)
        if problems:
            failed += 1
            print(f"FAILED {planmod.request_key(item['argv'])}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_pass(root, plan, workload, env):
    """Each request of one fixed pass, untraced then traced.

    A traced child that left no span file gets ``None`` for its spans.
    """
    count = len(workload.heavy) + len(workload.cycle)
    work = root / planmod.WORK_DIR
    pairs = []
    for i, item in enumerate(plan[:count]):
        plain = client.spawn(root, client.qdesk_command(item["argv"]), env)
        spans_path = work / f"spans-{os.getpid()}.json"
        traced_cmd = [sys.executable, str(planmod.BENCH_DIR / "traced_qdesk.py"),
                      str(spans_path), str(i), *item["argv"]]
        traced = client.spawn(root, traced_cmd, env)
        spans = None
        if spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        pairs.append((item, plain, traced, spans))
    return pairs


def _rank_raising_rounds(samples: list[str]) -> int:
    from qdesk.simon import gf2_rank

    rows = [int(s, 2) for s in samples]
    ranks = [gf2_rank(rows[:i]) for i in range(len(rows) + 1)]
    return sum(after > before for before, after in zip(ranks, ranks[1:]))


def layer_metrics(pairs):
    """Per-layer metrics summed over the traced requests of one pass."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    gate_ops = amp_updates = 0
    starts = []
    attempts = cf_miss = rounds = useful = 0
    for item, plain, traced, spans in pairs:
        if spans is None:
            continue
        for name, n in spans["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, ns in spans["self_ns"].items():
            self_ns[name] = self_ns.get(name, 0) + ns
        gate_ops += spans["gate_ops"]
        amp_updates += spans["amp_updates"]
        main_ns = sum(end - start for name, start, end, parent in spans["spans"]
                      if name == "cli.main" and parent < 0)
        starts.append(traced.wall_s - (main_ns + spans["install_ns"]) / 1e9)
        try:
            result = json.loads(plain.out)["result"]
        except (ValueError, KeyError):
            continue  # counted as failed by the correctness gate
        if item["argv"][0] == "factor":
            ran = [a for a in result["attempts"] if a["measured_c"] is not None]
            attempts += len(ran)
            cf_miss += sum(1 for a in ran if a["failure"] == "cf miss")
        elif item["argv"][0] == "simon":
            rounds += result["rounds"]
            useful += _rank_raising_rounds(result["samples"])

    def c(name):
        return {"value": calls.get(name, 0), "unit": "count"}

    def s(name):
        return {"value": self_ns.get(name, 0) / 1e9, "unit": "s"}

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    kernel_s = (self_ns.get("statevec.apply_gate", 0) + self_ns.get("statevec.run_circuit", 0)) / 1e9
    of_calls = calls.get("shor.order_finding_state", 0)
    hits = max(0, of_calls - calls.get("shor.pre_qft_state", 0))
    plain_wall = sum(p.wall_s for _, p, _, _ in pairs)
    traced_wall = sum(t.wall_s for _, _, t, _ in pairs)
    m = {}
    for name in ("statevec.apply_gate", "statevec.run_circuit", "statevec.apply_permutation",
                 "statevec.StateVector", "statevec.apply_diagonal", "statevec.distribution"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(name)
    m["statevec.measure_all.self_s"] = s("statevec.measure_all")
    m["statevec.gate_ops"] = {"value": gate_ops, "unit": "count"}
    m["statevec.kernel_amp_updates_per_s"] = {
        "value": amp_updates / kernel_s if kernel_s else 0.0, "unit": "1/s"}
    m["statevec.kernel_bytes_computed"] = {
        "value": amp_updates * BYTES_PER_AMP_UPDATE, "unit": "B"}
    m["gates.GateOp.calls"] = c("gates.GateOp")
    m["gates.GateOp.self_s"] = s("gates.GateOp")
    m["gates.phase_flip_target.self_s"] = s("gates.phase_flip_target")
    m["qft.qft_fidelity.self_s"] = s("qft.qft_fidelity")
    m["qft.build_qft_circuit.calls"] = c("qft.build_qft_circuit")
    m["qft.build_qft_circuit.self_s"] = s("qft.build_qft_circuit")
    m["shor.pre_qft_state.calls"] = c("shor.pre_qft_state")
    m["shor.pre_qft_state.self_s"] = s("shor.pre_qft_state")
    m["shor.order_finding_state.calls"] = c("shor.order_finding_state")
    m["shor.state_cache_hit_ratio"] = ratio(hits, of_calls)
    m["shor.recover_order.self_s"] = s("shor.recover_order")
    m["shor.circuit_attempts"] = {"value": attempts, "unit": "count"}
    m["shor.cf_miss_ratio"] = ratio(cf_miss, attempts)
    m["simon.sampling_state.calls"] = c("simon.sampling_state")
    m["simon.sampling_state.self_s"] = s("simon.sampling_state")
    m["simon.rounds"] = {"value": rounds, "unit": "count"}
    m["simon.useful_round_ratio"] = ratio(useful, rounds)
    m["simon.recover_shift.self_s"] = s("simon.recover_shift")
    m["grover.SearchProblem.self_s"] = s("grover.SearchProblem")
    m["grover.grover_iterate.calls"] = c("grover.grover_iterate")
    m["grover.grover_iterate.self_s"] = s("grover.grover_iterate")
    m["grover.marked_probability.calls"] = c("grover.marked_probability")
    m["grover.marked_probability.self_s"] = s("grover.marked_probability")
    m["cli.process_start_s"] = {"value": statistics.median(starts) if starts else 0.0,
                                "unit": "s"}
    m["cli.RunReport.to_json.self_s"] = s("cli.RunReport.to_json")
    m["cli.parse_circuit_file.self_s"] = s("cli.parse_circuit_file")
    m["cli.distribution_to_json.self_s"] = s("cli.distribution_to_json")
    m["trace_overhead_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    return m


def kernel_probe(root, env):
    """Probe metrics, or None if a probe child failed."""
    m = {}
    for n, repeats in PROBE_SIZES:
        cmd = [sys.executable, str(planmod.BENCH_DIR / "kernel_probe.py"), str(n), str(repeats)]
        outcome = client.spawn(root, cmd, env, timeout=PROBE_TIMEOUT_S)
        if outcome.returncode != 0:
            print(f"FAILED kernel probe n={n}: {outcome.err.decode(errors='replace')}",
                  file=sys.stderr)
            return None
        for name, seconds in json.loads(outcome.out).items():
            m[f"statevec.{name}.n{n}_s"] = {"value": seconds, "unit": "s"}
        if n == 24:
            m["statevec.n24_peak_rss_mb"] = {"value": outcome.peak_rss_mb, "unit": "MB"}
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qdesk" / "__init__.py").is_file():
        print("perfbench: run from the root of a qdesk checkout (no src/qdesk here)",
              file=sys.stderr)
        return 2
    workload = planmod.WORKLOADS[args.workload]
    golden = planmod.load_golden()
    env = client.child_env(root)
    gate = checks.Gate(root)
    plan, setup_s = setup(root, golden, workload, args.seed, args.seconds, env)

    if args.trace == 0:
        results, wall = closed_loop(root, plan, env)
        failed = check_all(gate, results)
        attempted = len(results)
        latencies = [o.wall_s for _, o in results]
        tail, tail_pct = tail_percentile(latencies)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "requests_per_s": {"value": (attempted - failed) / wall, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": max(o.peak_rss_mb for _, o in results), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        notes = [f"latency_tail_s is p{tail_pct:.1f} of {attempted} requests",
                 f"error_ratio {failed / attempted:.4f} ({failed} of {attempted} failed)"]
    else:
        pairs = traced_pass(root, plan, workload, env)
        results = [(item, o) for item, plain, traced, _ in pairs for o in (plain, traced)]
        failed = check_all(gate, results)
        attempted = len(results)
        lost = sum(1 for *_, spans in pairs if spans is None)
        if lost:
            print(f"FAILED {lost} traced requests wrote no spans", file=sys.stderr)
            failed += lost
        metrics = layer_metrics(pairs)
        probe = kernel_probe(root, env)
        if probe is None:
            failed += 1
            attempted += 1
            probe = {}
        metrics.update(probe)
        notes = [f"{len(pairs)} requests, each run untraced and traced"]

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
