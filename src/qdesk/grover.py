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

import functools
import itertools
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


def _marked_mass(b: np.complex128, count: int) -> float:
    """|b|^2 added ``count`` times in order: the full state's marked probability at ``count`` b's.

    Through ``np.abs``, whose last bit a numpy scalar's ``abs`` can miss,
    and ``reduce``, which adds in order where ``sum`` of Python floats
    compensates its rounding from Python 3.12 on.
    """
    v = float(np.abs(b))
    return functools.reduce(operator.add, itertools.repeat(v * v, count))


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

    The returned function reduces one row per leaf that holds a marked
    index, with a last row of a alone, in one ``sum(axis=1)``.  Then each
    level adds one pair of sums from the level below per block with a
    marked half, where a half with no marked index takes the all-a sum,
    and a last pair doubles the all-a sum.  The pairs add as Python
    complex numbers, which add as numpy does.  A row's sum starts from
    zero, where numpy's leaf does not but its total does: no partial sum
    is then -0, and numpy's zero start makes its total's zeros +0 as
    well.  The tests pin the result to ``np.add.reduce(amps)`` bit for bit.
    """
    leaf_bits = min(k, 6)
    width = 1 << leaf_bits
    # marked is ascending, so each leaf's marked indices are one run of it,
    # found without np.unique: its sort and hash table add about 0.5 MB to
    # the peak RSS of a small search
    ids = marked >> leaf_bits
    starts = np.diff(ids, prepend=-1) != 0
    slots = (np.cumsum(starts) - 1) * width + marked % width
    # each block holding a marked index -> the place of its sum (here, its row)
    places = {leaf: row for row, leaf in enumerate(ids[starts].tolist())}
    block = np.empty((len(places) + 1, width), dtype=np.complex128)
    levels = []  # per level: the index pairs into the level below
    for _ in range(leaf_bits, k):
        all_a = len(places)  # the place of the all-a sum in the level below
        parents = dict.fromkeys(child >> 1 for child in places)
        levels.append([(places.get(2 * p, all_a), places.get(2 * p + 1, all_a)) for p in parents]
                      + [(all_a, all_a)])
        places = {p: i for i, p in enumerate(parents)}
    flat = block.reshape(-1)

    def total(a: complex, b: complex) -> np.complex128:
        block.fill(a)
        flat[slots] = b
        sums = block.sum(axis=1).tolist()
        for pairs in levels:
            sums = [sums[i] + sums[j] for i, j in pairs]
        return np.complex128(sums[0])  # the whole state (a lone leaf is row 0)

    return total


def _iterate_pair(a: np.complex128, b: np.complex128, n_items: int,
                  total: Callable[[complex, complex], np.complex128]
                  ) -> tuple[np.complex128, np.complex128]:
    """One search iteration on the unmarked amplitude a and the marked one b.

    The same results as the full-state step: the oracle negates b (where
    ``amps[marked] *= -1`` may leave the other sign on a zero imaginary
    part, the bits after the step cannot differ: the mean sums at least
    one unmarked amplitude (t < N), whose imaginary part is +0, so 2m's is
    +0, and +0 - (+-0) = +0), the mean is ``amps.mean()``'s sum over an
    intp count, and each amplitude is subtracted from 2m, one exactly
    rounded subtraction per component.
    """
    b = -b
    two_m = 2.0 * (total(a, b) / np.intp(n_items))
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
    trace = [_marked_mass(b, count)]
    for _ in range(iterations):
        a, b = _iterate_pair(a, b, problem.N, total)
        trace.append(_marked_mass(b, count))
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
