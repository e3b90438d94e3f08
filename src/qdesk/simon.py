"""Hidden-shift (period over F_2^n) finding, end to end.

An oracle is a function f on n-bit strings with f(x) = f(y) exactly when
y = x XOR c for a fixed nonzero shift c.  Each quantum round samples a
uniformly random y orthogonal to c (binary inner product zero); collecting
such rows until they span an (n-1)-dimensional space pins down c by
elimination over GF(2).  The classical baseline queries the oracle on
distinct random inputs until it sees a collision, which takes on the order
of 2^(n/2) queries - the exponential/polynomial separation this module
exists to measure.

Vectors over F_2^n are plain ints; bit n-1 (MSB) corresponds to wire 1,
matching the basis-index convention of :mod:`qdesk.statevec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevec
from .gates import hadamard_layer

#: The classical collision baseline is tabulated for n up to this bound.
BASELINE_MAX_BITS = 8

#: The most baseline trials one request runs; at n = 8 they take about 18 s.
BASELINE_MAX_TRIALS = 100_000


@dataclass(frozen=True, eq=False)
class SimonOracle:
    """Lookup-table oracle with the hidden-shift pairing property."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def f(self, x: int) -> int:
        return int(self.table[x])


def make_oracle(n: int, c: int, rng_seed: int) -> SimonOracle:
    """Build a random oracle with hidden shift ``c``.

    Pairs the inputs into cosets {x, x XOR c} and assigns each coset a
    distinct random n-bit output.  c = 0 is rejected: it would make f
    injective and leave nothing to find.
    """
    statevec.require_qubits(2 * n, f"Simon's problem with n={n}")
    c = int(c)
    if c == 0:
        raise ValueError("hidden shift c must be nonzero")
    if not 0 < c < (1 << n):
        raise ValueError(f"c={c} is not an {n}-bit value")
    rng = statevec.make_rng(rng_seed)
    outputs = rng.permutation(1 << n)[: 1 << (n - 1)]
    # each coset is numbered by its smaller member, in ascending order
    x = np.arange(1 << n)
    _, coset = np.unique(np.minimum(x, x ^ c), return_inverse=True)
    return SimonOracle(n, outputs[coset])


def sampling_state(oracle: SimonOracle) -> statevec.StateVector:
    """State of the 2n-qubit machine just before measurement.

    Wires 1..n hold the input register, wires n+1..2n the output register.
    The oracle enters as the reversible basis map (x, w) -> (x, w XOR f(x)).
    """
    transform = hadamard_layer(oracle.n)
    return statevec._Machine.period_finding(transform, oracle.table, oracle.n).freeze()


def _echelon(rows: list[int]) -> dict[int, int]:
    """Reduced row echelon form over GF(2): pivot bit position -> row."""
    echelon: dict[int, int] = {}
    for row in rows:
        for pos, b in echelon.items():
            if (row >> pos) & 1:
                row ^= b
        if row:
            pos = row.bit_length() - 1
            for other_pos in list(echelon):
                if (echelon[other_pos] >> pos) & 1:
                    echelon[other_pos] ^= row
            echelon[pos] = row
    return echelon


def gf2_rank(rows: list[int]) -> int:
    """Rank of a set of bit-vector rows over GF(2)."""
    return len(_echelon(rows))


def recover_shift(rows: list[int], n: int) -> int | None:
    """Solve for the unique nonzero c orthogonal to every row.

    Returns None when the rows span less than n-1 dimensions (not enough
    information yet).  Rows spanning all of F_2^n are impossible for a
    well-formed oracle and raise.
    """
    for row in rows:
        if row >> n:
            raise ValueError(f"row {row:#b} is wider than n={n} bits")
    echelon = _echelon(rows)
    rank = len(echelon)
    if rank == n:
        raise ValueError(
            "sampled rows span the full space; no nonzero shift is orthogonal "
            "to all of them (oracle violates the hidden-shift property)"
        )
    if rank < n - 1:
        return None
    free = next(pos for pos in range(n) if pos not in echelon)
    c = 1 << free
    for pos, row in echelon.items():
        if (row >> free) & 1:
            c |= 1 << pos
    return c


@dataclass(frozen=True)
class SimonResult:
    """Outcome of the sampling loop."""

    c: int | None
    rounds: int
    samples: tuple[int, ...]

    @property
    def succeeded(self) -> bool:
        return self.c is not None


def run_simon(oracle: SimonOracle, max_rounds: int, rng_seed: int) -> SimonResult:
    """Sample until the rows span n-1 dimensions, then solve for the shift.

    Every sample counts as a round; zero and repeated samples add nothing
    to the rank.  For n = 1 the orthogonal space is trivial and the unique
    candidate c = 1 is returned after zero rounds.

    Every round prepares the same state, so it is built once and measured
    each round with that round's sub-seed ``derive_seed(rng_seed, round)``:
    the samples are those of one fresh state measured per round.
    """
    n = oracle.n
    if max_rounds < n:
        raise ValueError(f"max_rounds must be at least n={n}, got {max_rounds}")
    state = sampling_state(oracle)
    samples: list[int] = []
    while (c := recover_shift(samples, n)) is None:
        if len(samples) >= max_rounds:
            return SimonResult(None, len(samples), tuple(samples))
        seed = statevec.derive_seed(rng_seed, len(samples))
        samples.append(statevec.measure_all(state, seed, 1)[0] >> n)
    if oracle.f(0) != oracle.f(c):
        raise ValueError("recovered shift fails the oracle spot check f(0) = f(c)")
    return SimonResult(c, len(samples), tuple(samples))


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of the classical collision search."""

    queries: int
    c: int


def classical_query_baseline(oracle: SimonOracle, rng_seed: int) -> BaselineResult:
    """Query f on distinct random inputs until two of them collide.

    Returns the number of queries spent; the shift is the XOR of the
    colliding inputs.  Expected cost grows like 2^(n/2) (birthday bound).
    """
    if oracle.n > BASELINE_MAX_BITS:
        raise ValueError(f"baseline is tabulated up to n={BASELINE_MAX_BITS}, got n={oracle.n}")
    rng = statevec.make_rng(rng_seed)
    seen: dict[int, int] = {}
    for queries, x in enumerate(rng.permutation(1 << oracle.n), start=1):
        x = int(x)
        value = oracle.f(x)
        if value in seen:
            return BaselineResult(queries, x ^ seen[value])
        seen[value] = x
    raise AssertionError("a collision is forced once more than half the inputs are seen")
