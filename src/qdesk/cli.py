"""Command-line front end: argument checks, seeding and JSON reports.

Every command emits a single JSON report, either to stdout or to the file
given with ``--output``.  Reports are byte-reproducible for a fixed seed:
floats are serialized with 12 significant digits, keys are sorted, and the
wall-clock time is logged to stderr rather than written into the report.
A ``circuit-run`` distribution is written one block of outcomes at a time,
so the report never exists whole in memory.
The master seed comes from ``--seed``, else the ``QDESK_SEED`` environment
variable, else the documented default.  Sub-seeds for independent streams
are derived from the master seed and a position index, never by sharing
generator state.
The front end (argument parsing, the checks of ``config_from_args``, error
reports) runs on the standard library alone: ``--version``, ``--help`` and
every usage or argument error are answered without loading numpy.  Only an
accepted request loads what its command runs, and the process entry freezes
the collector after that load.  ``qft`` loads ``gates`` and ``qft``, which
build, count and write out a circuit without numpy; it loads numpy only to
compute a fidelity that is not exactly 1 (a cutoff that drops a coupling,
or no swaps), after the freeze.  Every other command loads ``statevec``,
``gates`` and numpy with its own modules.  A capacity error is told from a
domain error by the package's ``CapacityError``, so either is reported
whatever the request has loaded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import re
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import CapacityError, __version__

if TYPE_CHECKING:
    from types import ModuleType

    import numpy as np

    from .gates import Circuit, GateOp

DEFAULT_SEED = 1729
SEED_ENV_VAR = "QDESK_SEED"


class RunConfig(NamedTuple):
    """A parsed command invocation."""

    command: str
    seed: int
    output_path: str | None
    params: dict[str, Any]


class RunReport(NamedTuple):
    """A finished run: config echo, result payload, version tag.

    A ``circuit-run`` result holds its final state under "distribution";
    the report text shows it as the outcome law (see :meth:`chunks`).
    """

    command: str
    config: dict[str, Any]
    result: dict[str, Any]
    version: str

    def chunks(self) -> Iterator[str]:
        """The report's JSON text in pieces, in order.

        Every field but a state under "distribution" is serialized whole by
        :func:`_dumps`, with a placeholder string for the state; the text is
        split at the placeholder's last occurrence, which is the one in the
        result (only the config echo, before it, holds user text).  The
        outcome law goes in between, one block at a time.
        """
        # a StateVector can only exist once statevec is loaded
        statevec = sys.modules.get(f"{__package__}.statevec")
        state = self.result.get("distribution")
        streamed = statevec is not None and isinstance(state, statevec.StateVector)
        text = _dumps({
            "command": self.command,
            "config": self.config,
            "result": {**self.result, "distribution": _PLACEHOLDER} if streamed else self.result,
            "version": self.version,
        })
        if not streamed:
            yield text
            return
        head, _, tail = text.rpartition(json.dumps(_PLACEHOLDER))
        yield head
        # result["distribution"] is two levels deep: its braces are indented 4
        yield from _distribution_chunks(statevec.probability_blocks(state), state.n_qubits,
                                        "    ")
        yield tail


def _round_floats(obj: Any) -> Any:
    """Recursively normalize a payload: 12 significant digits, plain types."""
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def _dumps(obj: Any) -> str:
    """Serialize a report or sidecar payload: rounded floats, sorted keys."""
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n"


# stands in for a streamed distribution in the text _dumps renders around
# it; no readable file path holds a NUL
_PLACEHOLDER = "\0distribution\0"

# kept entries per written chunk: a few hundred KB of text, and few enough
# Python strings at once that the chunk, not the list, sets the transient
_LINES_PER_CHUNK = 4096


def _distribution_chunks(blocks: Iterable[np.ndarray], width: int, indent: str) -> Iterator[str]:
    """The JSON object of an outcome law, as ``json.dumps(indent=2)`` writes it.

    ``blocks`` are consecutive runs of the 2^width probabilities, in index
    order.  Every p > 0.0 is an entry ``"<width-bit index>": p`` with p
    rounded as :func:`_round_floats` rounds it; the object opens where
    ``indent`` leaves it, its entries are indented two spaces deeper, and
    with no entry it is ``{}``.  The zero-padded keys of one width sort as
    their indices, so index order is ``sort_keys`` order.  The entries go
    out ``_LINES_PER_CHUNK`` at a time, each distinct probability of a
    chunk formatted once.
    """
    import numpy as np

    separator = ",\n" + indent + "  "
    opening = "{\n" + indent + "  "
    key = f"0{width}b"
    start = 0
    for block in blocks:
        kept = np.flatnonzero(block > 0.0)
        for first in range(0, kept.size, _LINES_PER_CHUNK):
            index = kept[first:first + _LINES_PER_CHUNK]
            values, which = np.unique(block[index], return_inverse=True)
            texts = [repr(_round_floats(p)) for p in values.tolist()]
            yield opening + separator.join(
                f'"{format(i, key)}": {texts[t]}'
                for i, t in zip((index + start).tolist(), which.tolist()))
            opening = separator
        start += block.size
    yield "{}" if opening != separator else "\n" + indent + "}"


# ---------------------------------------------------------------------------
# circuit text format
# ---------------------------------------------------------------------------

def _is_integer(text: str) -> bool:
    """One optional minus sign, then ASCII digits: what ``int`` should read here.

    ``int`` alone would also take "+3", "1_0" and non-ASCII digits.
    """
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        return False
    try:
        int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return False
    return True


# the most characters of one input token an error message repeats
_ECHO_CHARS = 32


def _echo(token: str, show: Callable[[str], str] = repr) -> str:
    """``show(token)`` for an error message, cut short when the token is long.

    A token over ``_ECHO_CHARS`` characters is shown by its first
    ``_ECHO_CHARS`` and its length, so a message stays short whatever the
    input holds.
    """
    if len(token) <= _ECHO_CHARS:
        return show(token)
    return f"{show(token[:_ECHO_CHARS])}... ({len(token)} characters)"


# a run of digits longer than the echo bound: the library modules repeat an
# integer argument whole ("target N out of range", "factoring N=..."), so
# an error report clips each such run as it would clip a token
_LONG_DIGITS = re.compile(rf"\d{{{_ECHO_CHARS + 1},}}")


class CircuitSyntaxError(ValueError):
    """Parse failure carrying a line/column diagnostic."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_circuit_text(text: str, n_wires: int | None = None) -> Circuit:
    """Parse the line-oriented circuit format into a Circuit.

    Grammar (one op per line; blank lines and ``#`` comments ignored)::

        H 1
        CNOT 1,4
        SWAP 2,3
        TOFFOLI 1,2,3
        CPHASE 2,5 j=1 k=3

    Only CPHASE takes parameters, and it takes each of j and k exactly
    once; a parameter on another gate or a repeated key is an error at
    that token, and so is a wire above ``n_wires`` when it is given.  When
    ``n_wires`` is omitted it defaults to the largest wire mentioned.
    """
    from .gates import NAMED_GATES, Circuit
    ops: list[GateOp] = []
    max_wire = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # (column, token) pairs; \S+ splits where str.split() does
        tokens = [(m.start() + 1, m.group())
                  for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not tokens:
            continue
        (column, name), *rest = tokens
        if name not in NAMED_GATES:
            raise CircuitSyntaxError(
                lineno, column,
                f"unknown gate {_echo(name)}; valid names: {', '.join(sorted(NAMED_GATES))}",
            )
        if not rest:
            raise CircuitSyntaxError(lineno, column + len(name), f"{name} needs wire indices")
        arity, build, _ = NAMED_GATES[name]
        (wire_col, wire_token), *param_tokens = rest
        wire_texts = wire_token.split(",")
        if not all(_is_integer(w) for w in wire_texts):
            raise CircuitSyntaxError(lineno, wire_col, f"bad wire list {_echo(wire_token)}")
        wires = tuple(int(w) for w in wire_texts)
        if len(wires) != arity:
            raise CircuitSyntaxError(
                lineno, wire_col, f"{name} takes {arity} wires, got {len(wires)}"
            )
        params = {}
        for tok_col, tok in param_tokens:
            if name != "CPHASE":
                raise CircuitSyntaxError(
                    lineno, tok_col, f"{name} takes no parameters, got {_echo(tok)}"
                )
            key, eq, value = tok.partition("=")
            if not eq or key not in ("j", "k") or not _is_integer(value):
                raise CircuitSyntaxError(lineno, tok_col, f"bad parameter {_echo(tok)}")
            if key in params:
                raise CircuitSyntaxError(lineno, tok_col, f"repeated parameter {key!r}")
            params[key] = int(value)
        if name == "CPHASE" and sorted(params) != ["j", "k"]:
            raise CircuitSyntaxError(
                lineno, column, "CPHASE needs parameters j=<int> k=<int>"
            )
        try:
            ops.append(build(*(params[key] for key in sorted(params)), *wires))
        except ValueError as exc:
            raise CircuitSyntaxError(lineno, column, str(exc)) from None
        max_wire = max(max_wire, *wires)
        if n_wires is not None and max_wire > n_wires:
            raise CircuitSyntaxError(lineno, wire_col, f"wire {_echo(str(max_wire), str)} "
                                                       f"exceeds n_wires={n_wires}")
    if n_wires is None:
        if max_wire == 0:
            raise ValueError(
                "empty circuit file: pass the wire count explicitly (--wires)"
            )
        n_wires = max_wire
    return Circuit(n_wires, tuple(ops))


def parse_circuit_file(path: str, n_wires: int | None = None) -> Circuit:
    """Read and parse a circuit file (see :func:`parse_circuit_text`)."""
    return parse_circuit_text(_read_text(path), n_wires)


def circuit_to_text(circuit: Circuit) -> str:
    """Emit a circuit in the line-oriented text format."""
    from .gates import NAMED_GATES
    lines = []
    for op in circuit.ops:
        if op.name not in NAMED_GATES:
            raise ValueError(f"gate {op.name!r} has no text form")
        params = "".join(f" {key}={value}" for key, value in zip("jk", op.params))
        lines.append(f"{op.name} {','.join(map(str, op.wires))}{params}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _run_factor(shor: ModuleType, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    from dataclasses import asdict

    n = params["n"]
    report = shor.factor(n, params["max_attempts"], seed)
    final = report.final
    result = {
        "N": n,
        "succeeded": report.succeeded,
        "factors": list(report.factors) if report.factors else None,
        "x": final.x,
        "measured_c": final.measured_c,
        "recovered_r": final.recovered_r,
        "failure": final.failure,
        "attempts": [asdict(a) for a in report.attempts],
    }
    dump_path = params.get("dump_distribution")
    if dump_path is not None:
        # the last attempt that ran the circuit; none when each shared a factor
        x = next((a.x for a in reversed(report.attempts) if a.measured_c is not None), None)
        dist = () if x is None else shor.first_register_distribution(shor.FactoringInstance(n, x))
        _write_text(dump_path, [_dumps({
            "N": n,
            "x": x,
            "distribution": {str(c): float(p) for c, p in enumerate(dist) if p > 1e-15},
        })])
    return result


def _run_grover(grover: ModuleType, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    k = params["qubits"]
    problem = grover.SearchProblem(k, params["targets"])
    result_obj = grover.run_grover(problem, seed)
    if params.get("trace_path") is not None:
        trace = {"marked_probability": list(result_obj.trace)}
        _write_text(params["trace_path"], [_dumps(trace)])
    return {
        "qubits": k,
        "n_items": problem.N,
        "targets": problem.marked.tolist(),
        "found": result_obj.found,
        "success": result_obj.success,
        "success_probability": result_obj.success_probability,
        "iterations": result_obj.iterations,
        "oracle_calls": result_obj.oracle_calls,
    }


def _run_simon(simon: ModuleType, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    n = params["n"]
    c = int(params["c"], 2)
    max_rounds = params.get("max_rounds")
    oracle = simon.make_oracle(n, c, simon.statevec.derive_seed(seed, 0))
    result = simon.run_simon(oracle, 4 * n if max_rounds is None else max_rounds,
                             simon.statevec.derive_seed(seed, 1))
    return {
        "n": n,
        "c": format(c, f"0{n}b"),
        "recovered_c": format(result.c, f"0{n}b") if result.c is not None else None,
        "succeeded": result.succeeded,
        "rounds": result.rounds,
        "samples": [format(y, f"0{n}b") for y in result.samples],
    }


def _run_simon_classical(simon: ModuleType, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    import numpy as np

    queries = np.asarray(simon.baseline_queries(params["n"], params["trials"], seed))
    return {
        "n": params["n"],
        "trials": params["trials"],
        "queries": {
            "median": float(np.median(queries)),
            "mean": float(queries.mean()),
            "min": int(queries.min()),
            "max": int(queries.max()),
        },
    }


def _run_qft(qft: ModuleType, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    spec = qft.QftSpec(
        k=params["qubits"],
        approx_cutoff=params.get("cutoff"),
        include_bit_reversal_swaps=not params.get("no_swaps", False),
    )
    circuit = qft.build_qft_circuit(spec)
    counts = qft.gate_counts(circuit)
    if params.get("emit_circuit_path") is not None:
        _write_text(params["emit_circuit_path"], [circuit_to_text(circuit)])
    return {
        "qubits": spec.k,
        "cutoff": spec.approx_cutoff,
        "swaps": spec.include_bit_reversal_swaps,
        "gate_counts": counts,
        "hadamard_phase_gates": counts.get("H", 0) + counts.get("CPHASE", 0),
        "total_ops": len(circuit),
        "fidelity": qft.phase_form_fidelity(circuit),
    }


def _run_circuit_file(statevec: ModuleType, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    circuit = parse_circuit_file(params["file"], params.get("wires"))
    return {
        "n_wires": circuit.n_wires,
        "ops": len(circuit),
        # the report writes the state as its outcome law (RunReport.chunks)
        "distribution": statevec._evolve(statevec._basis(circuit.n_wires, 0), circuit),
    }


# command -> (the module its handler runs, handler); :func:`_load` imports
# the module, and with it gates (and, but for qft, statevec and numpy), and
# :func:`run` hands it to the handler.
_HANDLERS: dict[str, tuple[str, Callable[[ModuleType, int, dict[str, Any]], dict[str, Any]]]] = {
    "factor": ("shor", _run_factor),
    "grover": ("grover", _run_grover),
    "simon": ("simon", _run_simon),
    "simon-classical": ("simon", _run_simon_classical),
    "qft": ("qft", _run_qft),
    "circuit-run": ("statevec", _run_circuit_file),
}


def run(config: RunConfig) -> RunReport:
    """Dispatch a validated config to its command handler."""
    if config.command not in _HANDLERS:
        raise ValueError(f"unknown command {config.command!r}")
    name, handler = _HANDLERS[config.command]
    result = handler(importlib.import_module(f".{name}", __package__), config.seed, config.params)
    echo = {k: v for k, v in config.params.items() if not k.endswith("_path")}
    return RunReport(config.command, {"seed": config.seed, **echo}, result, __version__)


def _read_text(path: str) -> str:
    """Read an input file; a failure is an error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from None


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write text chunks to a file atomically (temp file in place, then rename).

    A failure is an OSError naming ``path`` and leaves no temp file behind.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {_echo(env)}") from None
    return DEFAULT_SEED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors repeat no long input whole.

    argparse repeats a rejected token in its message (an invalid value or
    choice, an unrecognized argument), or the token's part after ``=`` or
    after a one-dash flag; :meth:`error` shows each such piece over
    ``_ECHO_CHARS`` characters as :func:`_echo` shows it.  The subcommand
    parsers are of this class too: ``add_subparsers`` builds its parsers
    with the class of the parser it is called on.
    """

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        pieces = {piece for token in self._tokens
                  for piece in (token, token.partition("=")[2], token[2:])
                  if len(piece) > _ECHO_CHARS}
        for piece in sorted(pieces, key=len, reverse=True):
            message = message.replace(repr(piece), _echo(piece))
            message = message.replace(piece, _echo(piece, str))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdesk",
        description="Desk-scale quantum algorithm simulator with JSON reports.",
    )
    parser.add_argument("--version", action="version", version=f"qdesk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        p.add_argument("--output", type=str, default=None,
                       help="write the JSON report here instead of stdout")

    p = sub.add_parser("factor", help="factor an odd composite by order finding")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-attempts", type=int, default=8)
    p.add_argument("--dump-distribution", type=str, default=None,
                   help="write the measured-register distribution to this file")
    common(p)

    p = sub.add_parser("grover", help="amplitude-amplification search")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--target", type=int, action="append", default=None,
                   dest="targets", metavar="TARGET", help="marked index (repeatable)")
    p.add_argument("--targets-file", type=str, default=None,
                   dest="targets_path", metavar="TARGETS_FILE",
                   help="file with one marked index per line")
    p.add_argument("--trace", type=str, default=None, dest="trace_path", metavar="TRACE",
                   help="write per-iteration marked probability to this file")
    common(p)

    p = sub.add_parser("simon", help="hidden-shift finding, quantum rounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=str, required=True, help="hidden shift as a bit string")
    p.add_argument("--max-rounds", type=int, default=None)
    common(p)

    p = sub.add_parser("simon-classical", help="classical collision baseline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    common(p)

    p = sub.add_parser("qft", help="build a Fourier circuit, report counts/fidelity")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--no-swaps", action="store_true")
    p.add_argument("--emit-circuit", type=str, default=None,
                   dest="emit_circuit_path", metavar="EMIT_CIRCUIT",
                   help="write the circuit in the text format to this file")
    common(p)

    p = sub.add_parser("circuit-run", help="run a circuit file on the zero state")
    p.add_argument("--file", type=str, required=True)
    p.add_argument("--wires", type=int, default=None)
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Parsed arguments as a config: the argparse ``dest`` names are the param keys."""
    params = vars(args).copy()
    command, seed, output = params.pop("command"), params.pop("seed"), params.pop("output")
    if seed is None:
        seed = _default_seed()
    if command == "grover":
        targets = params["targets"] = list(args.targets or [])
        if args.targets_path is not None:
            lines = _read_text(args.targets_path).split("\n")
            for lineno, line in enumerate(lines, start=1):
                text = line.strip()
                if not text:
                    continue
                if not _is_integer(text):
                    raise ValueError(f"{args.targets_path}, line {lineno}: target must "
                                     f"be an integer, got {_echo(text)}")
                targets.append(int(text))
        if not targets:
            raise ValueError("grover needs --target or --targets-file")
    elif command == "simon":
        if not args.c or set(args.c) - {"0", "1"}:
            raise ValueError(f"--c must be a bit string, got {_echo(args.c)}")
        if len(args.c) != args.n:
            raise ValueError(f"--c must have exactly n={args.n} bits, got {_echo(args.c)}")
    return RunConfig(command, seed, output, params)


def main(argv: list[str] | None = None) -> int:
    """Run one command in this process and return its exit status.

    ``--help``, ``--version`` and usage errors leave through argparse's
    ``SystemExit``.  The collector is left as it is (see :func:`_entry`).
    """
    return _load(argv)()


def _load(argv: list[str] | None) -> Callable[[], int]:
    """Parse and check the arguments, then load what the command runs.

    Returns the step that runs the command and writes its report, so that
    the process entry can freeze between the load and the run.  A request
    the front end refuses loads nothing; its step writes the error report.
    """
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        return functools.partial(_fail, exc, args.output)
    importlib.import_module(f".{_HANDLERS[config.command][0]}", __package__)
    return functools.partial(_run, config, start)


def _run(config: RunConfig, start: float) -> int:
    """Run a loaded command and write its report; the exit status."""
    try:
        report = run(config)
        _emit(config.output_path, report.chunks())
    except (ValueError, OSError) as exc:
        return _fail(exc, config.output_path)
    print(f"qdesk: {config.command} finished in {time.perf_counter() - start:.3f}s",
          file=sys.stderr)
    return 0


def _fail(exc: ValueError | OSError, output_path: str | None) -> int:
    """Write the error report for ``exc``; the exit status, 3 for capacity, else 1."""
    resource = isinstance(exc, CapacityError)
    message = _LONG_DIGITS.sub(lambda digits: _echo(digits.group(), str), str(exc))
    text = _dumps({"error": {"type": "resource" if resource else "domain",
                             "message": message}})
    try:
        _emit(output_path, [text])
    except OSError:  # an unwritable --output still gets its error on stdout
        sys.stdout.write(text)
    return 3 if resource else 1


def _entry() -> int:
    """The process entry of ``python -m qdesk``, ``python -m qdesk.cli`` and ``qdesk``.

    What the front end and the command's imports made lives until exit:
    frozen once the command is loaded, the collector skips it in every
    later full collection and in the one at shutdown.  An in-process
    :func:`main` never freezes, so callers that run it many times keep
    normal collection.
    """
    step = _load(sys.argv[1:])
    gc.freeze()
    return step()


def _emit(output_path: str | None, chunks: Iterable[str]) -> None:
    if output_path is not None:
        _write_text(output_path, chunks)
    else:
        sys.stdout.writelines(chunks)


if __name__ == "__main__":
    sys.exit(_entry())
