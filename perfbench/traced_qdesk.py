"""Run one qdesk command with a span around every public function.

    python traced_qdesk.py SPANS_OUT REQUEST_ID qdesk-argv...

Before calling ``cli.main``, this wraps the public functions of the
statevec, gates, qft, shor, simon, grover and cli modules under every
name a qdesk module imported them by (``shor.build_qft_circuit``,
``simon.h_op``, ...), and the constructor and public methods of their
public classes in place (``StateVector`` counts constructions).  Private
helpers such as the gather/scatter kernel are not wrapped, so their time
is the self time of the public function that called them.

Spans (name, start, end, parent) stay in memory and are written to
SPANS_OUT as JSON when the command ends, together with per-name call
counts and self time (a span's duration minus the time its child spans
cover) and two kernel counters: gate applications and amplitudes updated.
The report bytes are the same as from ``python -m qdesk``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("statevec", "gates", "qft", "shor", "simon", "grover", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []
        self.gate_ops = 0
        self.amp_updates = 0

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def summary(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-name call counts and self time in nanoseconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - covered)
        return calls, self_ns


def _count_apply_gate(tracer: Tracer, args) -> None:
    tracer.gate_ops += 1
    tracer.amp_updates += 1 << args[0].n_qubits


def _count_run_circuit(tracer: Tracer, args) -> None:
    n_ops = len(args[1].ops)
    tracer.gate_ops += n_ops
    tracer.amp_updates += n_ops << args[0].n_qubits


COUNTERS = {"statevec.apply_gate": _count_apply_gate,
            "statevec.run_circuit": _count_run_circuit}


def install(tracer: Tracer) -> None:
    import importlib

    modules = {m: importlib.import_module(f"qdesk.{m}") for m in MODULES}
    replacements = {}  # id(original function) -> wrapper
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                replacements[id(obj)] = tracer.wrap(name, obj, COUNTERS.get(name))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if meth == "__init__":
                        setattr(obj, meth, tracer.wrap(f"{short}.{attr}", fn))
                    elif not meth.startswith("_"):
                        setattr(obj, meth, tracer.wrap(f"{short}.{attr}.{meth}", fn))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements and inspect.isfunction(obj):
                setattr(mod, attr, replacements[id(obj)])


def main(argv: list[str]) -> int:
    spans_out, request_id, qdesk_argv = argv[0], argv[1], argv[2:]
    from qdesk import cli

    started = time.perf_counter_ns()
    tracer = Tracer()
    install(tracer)
    installed = time.perf_counter_ns()
    rc = 1
    try:
        rc = cli.main(qdesk_argv)
    finally:
        calls, self_ns = tracer.summary()
        payload = {
            "request": request_id,
            "returncode": rc,
            "install_ns": installed - started,
            "calls": calls,
            "self_ns": self_ns,
            "gate_ops": tracer.gate_ops,
            "amp_updates": tracer.amp_updates,
            "spans": tracer.spans,
        }
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
