"""Workloads, the request pool, seeded request plans and input files.

A workload is a fixed pool of CLI requests grouped into classes, stored
with their golden report digests in ``golden.json``.  The workload seed
only chooses which pool items run and in what order, so any seed yields
requests whose exact report bytes are known in advance.

A plan is built from two parts:

* ``heavy`` classes run once, first, in every run.  They are the large
  requests (21-qubit factoring, 20-qubit Simon, the 11-qubit transform)
  that set peak RSS, so every run must contain each of them, and one of
  each is all a run of about half a minute has room for.
* ``cycle`` classes then repeat for a whole number of passes, in a fresh
  seeded order on every pass, one pool item drawn per class slot.

A run sends every request of its plan.  The number of passes is fixed by
the requested run length and a per-class cost table measured at the seed
commit, so every run of a workload at one length sends the same number of
requests of each class, whatever the seed and however fast the machine
happens to be.  A run that stopped when a clock ran out would instead
send fewer light requests when the machine is slow while the heavy ones
still ran, and its throughput would swing by more than the machine's speed.

All randomness here comes from SplitMix64, written out below, so plans
and generated circuits are identical on every Python and numpy version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Input files live here, relative to the checkout root; the path is echoed
#: in circuit-run reports, so it is part of the golden bytes.
WORK_DIR = ".perfbench_work"

_MASK = (1 << 64) - 1


class SplitMix64:
    """Small, fully specified 64-bit generator (Steele, Lea, Flood 2014)."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffled(self, items: list) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def distinct(self, n: int, count: int) -> list[int]:
        seen: list[int] = []
        while len(seen) < count:
            v = self.below(n)
            if v not in seen:
                seen.append(v)
        return seen


@dataclass(frozen=True)
class Workload:
    name: str
    heavy: tuple[str, ...]
    cycle: tuple[str, ...]


# Cycle proportions put the median and the tail percentile (about p55 to
# p75 at the request counts one run reaches) inside one class of near-equal
# requests, not on a boundary between classes, where a shift of one request
# would move them by a large step: faster classes fill the bottom of the
# latency order, one main class the middle, slower classes the top.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-period",
                 heavy=("factor21", "simon10"),
                 cycle=("factor18",) * 5 + ("simon9",)),
        Workload("grover-search",
                 heavy=(),
                 cycle=("grover16t1", "grover16t2", "grover16t3", "grover16t4")
                 + ("grover17t1",) * 6 + ("grover18",) * 2),
        Workload("small-circuits",
                 heavy=("qft11",),
                 cycle=("circuit12", "circuit14", "circuit16") + ("qft9",) * 5 + ("qft10",)),
    )
}


#: Seconds per request of each class at the seed commit (2-core x86 machine,
#: Python 3.11, numpy 2.4); used only to size plans, never reported.
COST_S = {
    "factor18": 0.7, "factor21": 6.8, "simon9": 1.5, "simon10": 6.6,
    "grover16t1": 0.45, "grover16t2": 0.42, "grover16t3": 0.4, "grover16t4": 0.38,
    "grover17t1": 0.9, "grover18": 1.6,
    "qft9": 1.05, "qft10": 2.4, "qft11": 5.0,
    "circuit12": 0.25, "circuit14": 0.35, "circuit16": 0.8,
}


def passes_for(workload: Workload, seconds: float) -> int:
    """Cycle passes that make a plan last about ``seconds`` at the seed commit."""
    heavy = sum(COST_S[c] for c in workload.heavy)
    per_pass = sum(COST_S[c] for c in workload.cycle)
    return max(1, round((seconds - heavy) / per_pass))


# ---------------------------------------------------------------------------
# the pool (candidates; make_golden.py runs them and records digests)
# ---------------------------------------------------------------------------

#: Odd composites with two or more distinct prime factors: 6-bit moduli give
#: 18-qubit factoring machines, 7-bit moduli 21-qubit ones.
MODULI_18 = (33, 35, 39, 45, 51, 55, 57, 63)
MODULI_21 = (65, 69, 75, 77, 85, 87, 91, 93, 95, 99, 105, 111, 115, 117, 119, 123)

POOL_SEED = 20000503


def _circuit_text(wires: int, n_gates: int, seed: int) -> str:
    """A random H/CNOT/SWAP/TOFFOLI/CPHASE circuit with a dense output.

    It opens with a Hadamard on every wire so the output distribution is
    spread over the whole register before the random gates mix it.
    """
    rng = SplitMix64(seed)
    lines = [f"H {w}" for w in range(1, wires + 1)]
    kinds = ("H", "H", "CNOT", "SWAP", "TOFFOLI", "CPHASE", "CPHASE")
    for _ in range(n_gates):
        kind = kinds[rng.below(len(kinds))]
        if kind == "H":
            lines.append(f"H {rng.below(wires) + 1}")
        elif kind == "TOFFOLI":
            a, b, c = (w + 1 for w in rng.distinct(wires, 3))
            lines.append(f"TOFFOLI {a},{b},{c}")
        else:
            a, b = (w + 1 for w in rng.distinct(wires, 2))
            if kind == "CPHASE":
                k = 1 + rng.below(5)
                lines.append(f"CPHASE {a},{b} j=0 k={k}")
            else:
                lines.append(f"{kind} {a},{b}")
    return "\n".join(lines) + "\n"


def file_text(spec: dict) -> str:
    """Contents of one generated input file."""
    if spec["kind"] == "circuit":
        return _circuit_text(spec["wires"], spec["gates"], spec["seed"])
    if spec["kind"] == "targets":
        return "".join(f"{t}\n" for t in spec["values"])
    raise ValueError(f"unknown input file kind {spec['kind']!r}")


def candidate_pool() -> list[dict]:
    """Every request the workloads may send, before golden filtering."""
    rng = SplitMix64(POOL_SEED)
    items: list[dict] = []

    def add(workload, cls, argv, files=None):
        items.append({"workload": workload, "class": cls, "argv": argv,
                      "files": files or {}})

    for cls, moduli, seeds in (("factor18", MODULI_18, range(1, 5)),
                               ("factor21", MODULI_21, range(1, 3))):
        for n in moduli:
            for qs in seeds:
                add("oracle-period", cls,
                    ["factor", "--n", str(n), "--max-attempts", "1", "--seed", str(qs)])
    for cls, n, count in (("simon9", 9, 24), ("simon10", 10, 16)):
        for i in range(count):
            c = 1 + rng.below((1 << n) - 1)
            add("oracle-period", cls,
                ["simon", "--n", str(n), "--c", format(c, f"0{n}b"), "--seed", str(i + 1)])

    grover_classes = [(f"grover16t{t}", 16, t) for t in (1, 2, 3, 4) for _ in range(3)]
    grover_classes += [("grover17t1", 17, 1)] * 6
    grover_classes += [("grover18", 18, t) for t in (1, 2, 3, 4) for _ in range(2)]
    for i, (cls, k, t) in enumerate(grover_classes):
        targets = rng.distinct(1 << k, t)
        argv = ["grover", "--qubits", str(k)]
        files = {}
        if i % 3 == 1:  # one item in three reads its targets from a file
            path = f"{WORK_DIR}/targets_{i:02d}.txt"
            files[path] = {"kind": "targets", "values": targets}
            argv += ["--targets-file", path]
        else:
            for v in targets:
                argv += ["--target", str(v)]
        add("grover-search", cls, argv + ["--seed", str(i % 6 + 1)], files)

    # exact transforms at k = 9 and 10, the cutoff ceil(log2 k) + 2 = 6 at k = 11
    for cls, k, cutoff in (("qft9", 9, None), ("qft10", 10, None), ("qft11", 11, 6)):
        for qs in range(1, 5):
            argv = ["qft", "--qubits", str(k)]
            if cutoff is not None:
                argv += ["--cutoff", str(cutoff)]
            add("small-circuits", cls, argv + ["--seed", str(qs)])
    for i, wires in enumerate((12, 12, 12, 14, 14, 14, 16, 16, 16)):
        path = f"{WORK_DIR}/circuit_{i:02d}_w{wires}.qc"
        spec = {"kind": "circuit", "wires": wires, "gates": 3 * wires, "seed": POOL_SEED + i}
        add("small-circuits", f"circuit{wires}",
            ["circuit-run", "--file", path, "--seed", "1"], {path: spec})
    return items


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pool_by_class(golden: dict, workload: str) -> dict[str, list[dict]]:
    classes: dict[str, list[dict]] = {}
    for item in golden["items"]:
        if item["workload"] == workload:
            classes.setdefault(item["class"], []).append(item)
    return classes


def make_plan(golden: dict, workload: Workload, seed: int, passes: int) -> list[dict]:
    """Heavy items once, then ``passes`` seeded passes over the cycle."""
    rng = SplitMix64(seed)
    pool = pool_by_class(golden, workload.name)
    missing = [c for c in workload.heavy + workload.cycle if not pool.get(c)]
    if missing:
        raise ValueError(f"golden pool has no items for classes {missing}")
    plan = [pool[c][rng.below(len(pool[c]))] for c in workload.heavy]
    for _ in range(passes):
        for c in rng.shuffled(list(workload.cycle)):
            plan.append(pool[c][rng.below(len(pool[c]))])
    return plan


def write_inputs(root: Path, plan: list[dict]) -> None:
    """Write every input file the plan needs."""
    written = {}
    for item in plan:
        for rel, spec in item["files"].items():
            if rel not in written:
                written[rel] = file_text(spec)
    for rel, text in written.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
