"""Amplitude-amplification search over 2^k items.

One search iteration applies the marking oracle (a diagonal sign flip on
the target indices) followed by inversion about the mean, which replaces
every amplitude a_i by 2m - a_i for the mean m.  The inversion is exactly
the composed operator -(H^k) Z0 (H^k) where Z0 flips the sign of index 0.
The mean formula is the one implemented here; the composed form, built
from gates, is its referee in ``tests/referees.py``.

Sign bookkeeping: with the iteration fixed as (inversion about mean after
the oracle flip), starting from the uniform state with single-target
amplitudes (alpha, beta), one step maps

    m     = ((N - 1) * alpha - beta) / N
    alpha -> 2m - alpha        (unmarked)
    beta  -> 2m + beta         (marked, the oracle sign folded in)

and this closed two-variable recurrence tracks the full simulation
exactly; it is the independent check used by the tests.

The state only ever holds two amplitudes: a at every unmarked index and
b at every marked one.  ``run_grover`` iterates on the pair with the
operations the full-state step makes - negate the marked amplitudes, then
reflect about the mean - and takes numpy's mean of the 2^k amplitudes
from where the b's lie (see ``_two_value_sum``).  Its trace and final
state are bit for bit those of the loop over the whole state, which
``tests/referees.py`` keeps.  The 2^k state is filled from the pair once,
after the loop, then validated and measured.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import statevec


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """A k-qubit search space and the indices its oracle marks.

    ``marked`` may hold the indices in any order, repeated or not; it is
    stored ascending and deduplicated as a read-only intp array.
    """

    k: int
    marked: np.ndarray

    def __post_init__(self):
        statevec.require_qubits(self.k, f"search over 2^{self.k} items")
        distinct = sorted({operator.index(t) for t in self.marked})
        for t in distinct:
            if not 0 <= t < self.N:
                raise ValueError(f"target {t} out of range [0, {self.N})")
        marked = np.array(distinct, dtype=np.intp)
        marked.setflags(write=False)
        object.__setattr__(self, "marked", marked)

    @property
    def N(self) -> int:
        return 1 << self.k


def _marked_mass(values: np.ndarray) -> float:
    """Sum of |v|^2 over a gather of the marked amplitudes, added in order."""
    return float(sum(np.abs(values) ** 2))


def grover_iterate(state: statevec.StateVector, problem: SearchProblem) -> statevec.StateVector:
    """One full search iteration: oracle sign flip, then inversion about mean."""
    amps = state.amps.copy()
    amps[problem.marked] *= -1
    np.subtract(2.0 * amps.mean(), amps, out=amps)
    return statevec.StateVector(state.n_qubits, amps, copy=False)


def iteration_schedule(n_items: int, target_count: int) -> int:
    """Iteration count round(pi/4 * sqrt(N/t) - 1/2).

    This maximizes the single-shot success probability of the
    two-dimensional rotation the iteration performs.
    """
    if target_count < 1 or target_count >= n_items:
        raise ValueError(
            f"target_count must lie in [1, {n_items}), got {target_count}"
        )
    return round(math.pi / 4 * math.sqrt(n_items / target_count) - 0.5)


def marked_probability(state: statevec.StateVector, problem: SearchProblem) -> float:
    """Total probability mass on the marked indices."""
    return _marked_mass(state.amps[problem.marked])


@dataclass(frozen=True)
class GroverResult:
    """Outcome of a scheduled search run."""

    found: int
    success: bool
    success_probability: float
    iterations: int
    oracle_calls: int
    trace: tuple[float, ...]  # marked probability after 0, 1, ... iterations


def _two_value_sum(k: int, marked: np.ndarray) -> Callable[[complex, complex], np.complex128]:
    """``np.add.reduce(amps)`` of the 2^k amplitudes holding b at ``marked`` and a elsewhere.

    On a contiguous complex128 array ``np.add.reduce`` adds numpy's pairwise
    sum to a zero start.  That sum takes a block of at most 64 amplitudes
    (``PW_BLOCKSIZE``, 128 doubles) as one leaf with its own unrolled loop,
    and a larger power-of-two block as the sum of its two halves.  So every
    block of 2^j a's sums to one value, which each level doubles, and only
    the blocks holding a marked index need sums of their own.

    The returned function reduces one row per pattern of marked offsets
    that a marked leaf has (leaves sharing a pattern share a sum), with a
    last row of a alone, in one ``sum(axis=1)``.  Then each level adds
    pairs from the sums below it: a block with one marked half takes the
    all-a sum for its other half, and a last pair doubles the all-a sum.  A
    wide level is one gather and add; narrow ones run on Python complex
    numbers, which add as numpy does.  A row's sum starts from zero, where
    numpy's leaf does not but its total does: no partial sum is then -0,
    and numpy's zero start makes its total's zeros +0 as well.  The tests
    pin the result to ``np.add.reduce(amps)`` bit for bit.
    """
    leaf_bits = min(k, 6)
    width = 1 << leaf_bits
    # marked is ascending, so each block's marked indices are one run of it,
    # found without np.unique: its sort and hash table add about 0.5 MB to
    # the peak RSS of a small search
    ids = marked >> leaf_bits
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    bits = np.left_shift(np.uint64(1), (marked % width).astype(np.uint64))
    masks = np.bitwise_or.reduceat(bits, starts).tolist()
    rows = {}  # each leaf's pattern of marked offsets -> the row of its sum
    row_of = [rows.setdefault(mask, len(rows)) for mask in masks]
    patterns = np.array(list(rows), dtype=np.uint64)
    slots = np.flatnonzero((patterns[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1))
    block = np.empty((len(rows) + 1, width), dtype=np.complex128)
    # where each block's sum is in the level below, then the all-a sum's place
    below = np.array(row_of + [len(rows)])
    levels = []  # per level: the index pairs into the level below
    blocks = ids[starts]
    for _ in range(leaf_bits, k):
        parents = blocks >> 1
        first = np.flatnonzero(np.diff(parents, prepend=-1))
        second = np.where(np.diff(first, append=blocks.size) == 2, first + 1, blocks.size)
        levels.append((below[np.append(first, blocks.size)], below[np.append(second, blocks.size)]))
        below = np.arange(first.size + 1)
        blocks = parents[first]
    # a numpy call costs about as much as 30 Python additions
    wide = [pair for pair in levels if pair[0].size > 32]
    narrow = [list(zip(first.tolist(), second.tolist())) for first, second in levels[len(wide):]]
    flat = block.reshape(-1)

    def total(a: complex, b: complex) -> np.complex128:
        block.fill(a)
        flat[slots] = b
        sums = block.sum(axis=1)
        for first, second in wide:
            sums = sums[first] + sums[second]
        sums = sums.tolist()
        for pairs in narrow:
            sums = [sums[i] + sums[j] for i, j in pairs]
        return np.complex128(sums[0])  # the whole state (a lone leaf is row 0)

    return total


def _iterate_pair(a: np.complex128, b: np.complex128, problem: SearchProblem,
                  total: Callable[[complex, complex], np.complex128]
                  ) -> tuple[np.complex128, np.complex128]:
    """One search iteration on the unmarked amplitude a and the marked one b.

    The same operations on the same inputs as the full-state step: the
    oracle negates b as ``amps[marked] *= -1`` negates its gather of the
    marked amplitudes, the mean is ``amps.mean()``'s sum over an intp
    count, and each amplitude is subtracted from 2m, one exactly rounded
    subtraction per component.
    """
    flipped = np.full(problem.marked.size, b)
    flipped *= -1
    b = flipped[0]
    two_m = 2.0 * (total(a, b) / np.intp(problem.N))
    return two_m - a, two_m - b


def run_grover(problem: SearchProblem, rng_seed: int) -> GroverResult:
    """Run the scheduled number of iterations from uniform, then measure.

    The iterations run on the state's two amplitudes (see the module
    docstring), and the 2^k state is filled from them once, at the end.
    ``oracle_calls`` counts applications of the marking transform - one per
    iteration - which is the quantity that scales like sqrt(N).
    """
    marked = problem.marked
    count = marked.size
    iterations = iteration_schedule(problem.N, count)
    total = _two_value_sum(problem.k, marked)
    a = b = statevec._hadamard_amplitude(problem.k)
    trace = [_marked_mass(np.full(count, b))]
    for _ in range(iterations):
        a, b = _iterate_pair(a, b, problem, total)
        trace.append(_marked_mass(np.full(count, b)))
    del total  # its leaf rows go before the state is filled
    amps = np.full(problem.N, a)
    amps[marked] = b
    state = statevec.StateVector(problem.k, amps, copy=False)
    outcome = statevec.measure_all(state, rng_seed, 1)[0]
    return GroverResult(
        found=outcome,
        success=outcome in marked,
        success_probability=trace[-1],
        iterations=iterations,
        oracle_calls=iterations,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class AmplitudePair:
    """Single-target amplitudes: alpha off the target, beta on it."""

    alpha: float
    beta: float


def analytic_recurrence(n_items: int, iterations: int) -> list[AmplitudePair]:
    """Closed-form single-target amplitude track, one entry per step.

    Starts from the uniform pair (1/sqrt(N), 1/sqrt(N)); entry i is the
    state after i iterations.  Matches the full simulation exactly under
    the sign convention documented in the module docstring.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if n_items < 2:
        raise ValueError(f"need at least 2 items, got {n_items}")
    alpha = beta = 1.0 / math.sqrt(n_items)
    track = [AmplitudePair(alpha, beta)]
    for _ in range(iterations):
        m = ((n_items - 1) * alpha - beta) / n_items
        alpha, beta = 2 * m - alpha, 2 * m + beta
        track.append(AmplitudePair(alpha, beta))
    return track
