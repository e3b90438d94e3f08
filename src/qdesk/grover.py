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
b at every marked one.  ``run_grover`` iterates on the pair - negate b,
then reflect both about the mean ((N - t) a + t b) / N - and records the
marked probability t |b|^2 after each step, which is sin^2((2j + 1) theta)
after j steps, with sin^2 theta = t / N, to rounding.  The tests hold the
trace to that law and to the loop over the whole state that
``tests/referees.py`` keeps.  No 2^k state is built: the measurement
draws from the outcome law the final pair gives, 2^k probabilities
checked to sum to 1, which is the filled state's law bit for bit.
"""

from __future__ import annotations

import math
import operator
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


def _iterate_pair(a: np.complex128, b: np.complex128, n_items: int,
                  count: int) -> tuple[np.complex128, np.complex128]:
    """One search iteration on the unmarked amplitude a and the ``count`` marked ones b.

    The oracle negates b, then both reflect about the mean of the 2^k
    amplitudes, ((N - t) a + t b) / N with N = ``n_items`` and t = ``count``.
    """
    b = -b
    two_m = 2.0 * ((n_items - count) * a + count * b) / n_items
    return two_m - a, two_m - b


def run_grover(problem: SearchProblem, rng_seed: int) -> GroverResult:
    """Run the scheduled number of iterations from uniform, then measure.

    The iterations run on the state's two amplitudes (see the module
    docstring), and the outcome is drawn from the law they give: |a|^2
    at every unmarked index and |b|^2 at every marked one.
    ``oracle_calls`` counts applications of the marking transform - one per
    iteration - which is the quantity that scales like sqrt(N).
    """
    marked = problem.marked
    count = marked.size
    iterations = iteration_schedule(problem.N, count)
    a = b = statevec._hadamard_amplitude(problem.k)
    trace = [float(count * abs(b) ** 2)]
    for _ in range(iterations):
        a, b = _iterate_pair(a, b, problem.N, count)
        trace.append(float(count * abs(b) ** 2))
    p_unmarked, p_marked = np.abs(np.array([a, b])) ** 2
    law = np.full(problem.N, p_unmarked)
    law[marked] = p_marked
    outcome = next(statevec._draws(law, [rng_seed]))
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
