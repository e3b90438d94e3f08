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

The iteration runs in place on the buffer of the machine that loaded the
uniform state - negate the marked amplitudes, then reflect about the mean -
and ``run_grover`` freezes that machine once, before measuring it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import statevec
from .gates import hadamard_layer


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


def _reflect_inplace(amps: np.ndarray) -> None:
    """Replace each amplitude a_i by 2m - a_i (m the mean amplitude)."""
    m = amps.mean()
    np.subtract(2.0 * m, amps, out=amps)


def _iterate_inplace(amps: np.ndarray, marked: np.ndarray) -> None:
    """One search iteration in place: oracle sign flip, then reflection.

    The same floating-point operations as the +-1 diagonal product then 2m - a.
    """
    amps[marked] *= -1
    _reflect_inplace(amps)


def _marked_mass(amps: np.ndarray, marked: np.ndarray) -> float:
    """Sum of |amp|^2 over the marked indices, added in ascending order."""
    return float(sum(np.abs(amps[marked]) ** 2))


def grover_iterate(state: statevec.StateVector, problem: SearchProblem) -> statevec.StateVector:
    """One full search iteration: oracle sign flip, then inversion about mean."""
    amps = state.amps.copy()
    _iterate_inplace(amps, problem.marked)
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
    return _marked_mass(state.amps, problem.marked)


@dataclass(frozen=True)
class GroverResult:
    """Outcome of a scheduled search run."""

    found: int
    success: bool
    success_probability: float
    iterations: int
    oracle_calls: int
    trace: tuple[float, ...]  # marked probability after 0, 1, ... iterations


def run_grover(problem: SearchProblem, rng_seed: int) -> GroverResult:
    """Run the scheduled number of iterations from uniform, then measure.

    ``oracle_calls`` counts applications of the marking transform - one per
    iteration - which is the quantity that scales like sqrt(N).
    """
    marked = problem.marked
    machine = statevec._Machine.basis(problem.k, 0).run(hadamard_layer(problem.k))
    iterations = iteration_schedule(problem.N, marked.size)
    trace = [_marked_mass(machine.amps, marked)]
    for _ in range(iterations):
        _iterate_inplace(machine.amps, marked)
        trace.append(_marked_mass(machine.amps, marked))
    outcome = statevec.measure_all(machine.freeze(), rng_seed, 1)[0]
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
