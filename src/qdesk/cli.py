"""Command-line front end: JSON reports, seeding, majority-vote amplifier.

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
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from . import __version__, grover, qft, shor, simon, statevec
from .gates import Circuit, GateOp, cnot_op, cphase_op, h_op, swap_op, toffoli_op

DEFAULT_SEED = 1729
SEED_ENV_VAR = "QDESK_SEED"


@dataclass(frozen=True)
class RunConfig:
    """A parsed command invocation."""

    command: str
    seed: int
    output_path: str | None
    params: dict[str, Any]


@dataclass(frozen=True)
class RunReport:
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
        state = self.result.get("distribution")
        streamed = isinstance(state, statevec.StateVector)
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

    def to_json(self) -> str:
        """The whole report text: :meth:`chunks` joined."""
        return "".join(self.chunks())


def _round_floats(obj: Any) -> Any:
    """Recursively normalize a payload: 12 significant digits, plain types."""
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
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
    separator = ",\n" + indent + "  "
    opening = "{\n" + indent + "  "
    key = f"0{width}b"
    start = 0
    for block in blocks:
        kept = np.flatnonzero(block > 0.0)
        for first in range(0, kept.size, _LINES_PER_CHUNK):
            index = kept[first:first + _LINES_PER_CHUNK]
            values, which = np.unique(block[index], return_inverse=True)
            texts = [repr(float(f"{p:.12g}")) for p in values.tolist()]
            yield opening + separator.join(
                f'"{format(i, key)}": {texts[t]}'
                for i, t in zip((index + start).tolist(), which.tolist()))
            opening = separator
        start += block.size
    yield "{}" if opening != separator else "\n" + indent + "}"


# ---------------------------------------------------------------------------
# majority-vote amplifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorityVote:
    """Outcome of repeated trials decided by majority."""

    outcome: bool
    successes: int


def majority_amplify(
    trial: Callable[[int], bool], trials: int, rng_seed: int
) -> MajorityVote:
    """Run a boolean-outcome procedure repeatedly and take the majority.

    Each trial receives its own sub-seed derived from (rng_seed, index).
    ``trials`` must be odd so there is never a tie.  Amplification only
    helps when the per-trial success probability exceeds one half.
    """
    if trials < 1 or trials % 2 == 0:
        raise ValueError(f"trials must be an odd positive integer, got {trials}")
    successes = 0
    for i in range(trials):
        if trial(statevec.derive_seed(rng_seed, i)):
            successes += 1
    return MajorityVote(successes > trials // 2, successes)


# ---------------------------------------------------------------------------
# circuit text format
# ---------------------------------------------------------------------------

# name -> (wire count, builder); CPHASE's builder takes j and k before the wires
_GATES: dict[str, tuple[int, Callable[..., GateOp]]] = {
    "H": (1, h_op), "CNOT": (2, cnot_op), "SWAP": (2, swap_op),
    "TOFFOLI": (3, toffoli_op), "CPHASE": (2, cphase_op),
}


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
    ops: list[GateOp] = []
    max_wire = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # (column, token) pairs; \S+ splits where str.split() does
        tokens = [(m.start() + 1, m.group())
                  for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not tokens:
            continue
        (column, name), *rest = tokens
        if name not in _GATES:
            raise CircuitSyntaxError(
                lineno, column,
                f"unknown gate {_echo(name)}; valid names: {', '.join(sorted(_GATES))}",
            )
        if not rest:
            raise CircuitSyntaxError(lineno, column + len(name), f"{name} needs wire indices")
        arity, build = _GATES[name]
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
    lines = []
    for op in circuit.ops:
        if op.name not in _GATES:
            raise ValueError(f"gate {op.name!r} has no text form")
        params = "".join(f" {key}={value}" for key, value in zip("jk", op.params))
        lines.append(f"{op.name} {','.join(map(str, op.wires))}{params}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _run_factor(seed: int, params: dict[str, Any]) -> dict[str, Any]:
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
    if dump_path:
        circuit_attempts = [a for a in report.attempts if a.measured_c is not None]
        if circuit_attempts:
            x = circuit_attempts[-1].x
            dist = shor.first_register_distribution(shor.FactoringInstance(n, x))
            payload = {
                "N": n,
                "x": x,
                "distribution": {
                    str(c): float(p) for c, p in enumerate(dist) if p > 1e-15
                },
            }
        else:
            payload = {"N": n, "x": None, "distribution": {}}
        _write_text(dump_path, [_dumps(payload)])
    return result


def _run_grover(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    k = params["qubits"]
    problem = grover.SearchProblem(k, params["targets"])
    result_obj = grover.run_grover(problem, seed)
    if params.get("trace_path"):
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


def _run_simon(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    n = params["n"]
    c = int(params["c"], 2)
    max_rounds = params.get("max_rounds")
    oracle = simon.make_oracle(n, c, statevec.derive_seed(seed, 0))
    result = simon.run_simon(oracle, 4 * n if max_rounds is None else max_rounds,
                             statevec.derive_seed(seed, 1))
    return {
        "n": n,
        "c": format(c, f"0{n}b"),
        "recovered_c": format(result.c, f"0{n}b") if result.c is not None else None,
        "succeeded": result.succeeded,
        "rounds": result.rounds,
        "samples": [format(y, f"0{n}b") for y in result.samples],
    }


def _run_simon_classical(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    n = params["n"]
    trials = params["trials"]
    if not 1 <= n <= simon.BASELINE_MAX_BITS:
        raise ValueError(f"n must lie in [1, {simon.BASELINE_MAX_BITS}] for the baseline, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if trials > simon.BASELINE_MAX_TRIALS:
        raise ValueError(f"trials={trials} is over the cap of {simon.BASELINE_MAX_TRIALS}")
    shift_rng = statevec.make_rng(statevec.derive_seed(seed, 0))
    queries = []
    for i in range(trials):
        c = int(shift_rng.integers(1, 1 << n))
        oracle = simon.make_oracle(n, c, statevec.derive_seed(seed, i, 1))
        outcome = simon.classical_query_baseline(oracle, statevec.derive_seed(seed, i, 2))
        if oracle.f(0) != oracle.f(outcome.c):
            raise AssertionError("classical collision produced a bad shift")
        queries.append(outcome.queries)
    arr = np.asarray(queries)
    return {
        "n": n,
        "trials": trials,
        "queries": {
            "median": float(np.median(arr)),
            "mean": float(arr.mean()),
            "min": int(arr.min()),
            "max": int(arr.max()),
        },
    }


def _run_qft(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    spec = qft.QftSpec(
        k=params["qubits"],
        approx_cutoff=params.get("cutoff"),
        include_bit_reversal_swaps=not params.get("no_swaps", False),
    )
    circuit = qft.build_qft_circuit(spec)
    counts = qft.gate_counts(circuit)
    if params.get("emit_circuit_path"):
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


def _run_circuit_file(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    circuit = parse_circuit_file(params["file"], params.get("wires"))
    return {
        "n_wires": circuit.n_wires,
        "ops": len(circuit),
        # the report writes the state as its outcome law (RunReport.chunks)
        "distribution": statevec._Machine.basis(circuit.n_wires, 0).run(circuit).freeze(),
    }


_HANDLERS: dict[str, Callable[[int, dict[str, Any]], dict[str, Any]]] = {
    "factor": _run_factor,
    "grover": _run_grover,
    "simon": _run_simon,
    "simon-classical": _run_simon_classical,
    "qft": _run_qft,
    "circuit-run": _run_circuit_file,
}


def run(config: RunConfig) -> RunReport:
    """Dispatch a validated config to its command handler."""
    if config.command not in _HANDLERS:
        raise ValueError(f"unknown command {config.command!r}")
    result = _HANDLERS[config.command](config.seed, config.params)
    config_echo = {"seed": config.seed}
    config_echo.update(
        {k: v for k, v in config.params.items() if not k.endswith("_path")}
    )
    return RunReport(
        command=config.command,
        config=config_echo,
        result=result,
        version=__version__,
    )


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
        if args.targets_path:
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
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
        _emit(config.output_path, report.chunks())
    except (ValueError, OSError) as exc:
        kind = "resource" if isinstance(exc, statevec.CapacityError) else "domain"
        message = _LONG_DIGITS.sub(lambda digits: _echo(digits.group(), str), str(exc))
        text = _dumps({"error": {"type": kind, "message": message}})
        try:
            _emit(args.output, [text])
        except OSError:  # an unwritable --output still gets its error on stdout
            sys.stdout.write(text)
        return 3 if kind == "resource" else 1
    print(f"qdesk: {config.command} finished in {time.perf_counter() - start:.3f}s",
          file=sys.stderr)
    return 0


def _emit(output_path: str | None, chunks: Iterable[str]) -> None:
    if output_path:
        _write_text(output_path, chunks)
    else:
        sys.stdout.writelines(chunks)


if __name__ == "__main__":
    sys.exit(main())
