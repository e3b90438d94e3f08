"""Order finding on the simulator plus the classical factoring pipeline.

The circuit has 3L qubits for an L-bit modulus N, and the capacity check
counts all of them: a 2L-qubit exponent register (wires 1..2L) and an
L-qubit value register (wires 2L+1..3L).  The simulated state holds
2L + b qubits, b bits indexing the r values the powers take (see below).
After loading the uniform superposition of exponents, the oracle
(a, w) -> (a, w XOR x^a mod N) writes the modular powers, the Fourier
transform is applied to the exponent register, and measuring yields an
integer c concentrated near multiples of 2^(2L)/r where r is the
multiplicative order of x.  Continued-fraction convergents of c/2^(2L)
recover r, and gcd(x^(r/2) +- 1, N) splits N when r is even and
x^(r/2) is not congruent to -1.

No gate-level modular arithmetic is simulated: ``statevec._period_finding``
writes the state after the load and the oracle, amplitude 2^-L at each
(a, x^a mod N), straight into a buffer that keeps only the r values the
powers take (padded to a power of two), and runs the transform on it once.
Only ``statevec`` reads that layout: this module hands over the orbit,
keeps the law of c it gets back and draws c from that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevec
from .qft import QftSpec, build_qft_circuit

FAILURE_ODD_R = "odd r"
FAILURE_MINUS_ONE = "x^{r/2} == -1"
FAILURE_CF_MISS = "cf miss"

#: Widening of the convergent denominators: candidate orders are lam * q
#: for lam up to this bound, which recovers r when gcd(d, r) <= LAMBDA_MAX.
LAMBDA_MAX = 4


def _orbit(x: int, n: int) -> list[int]:
    """x^a mod n for a = 0 .. r-1, where r is the order of x mod n.

    A non-invertible x never returns to 1, so it is refused before the walk.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if math.gcd(x, n) != 1:
        raise ValueError(f"x={x} is not invertible mod {n}")
    orbit = [1]
    value = x % n
    while value != 1:
        orbit.append(value)
        value = value * x % n
    return orbit


def multiplicative_order(x: int, n: int) -> int:
    """Least positive r with x^r = 1 mod n, by exhaustive stepping."""
    return len(_orbit(x, n))


def is_trivial_case(n: int) -> str:
    """Classify N as 'even', 'prime', 'prime power' or 'composite-ok'.

    The quantum pipeline only applies to the last class; the others have
    classical shortcuts (division by two, nothing to do, taking a root).
    The class follows from the smallest prime factor p of an odd N, found
    by trial division: N itself, a power of p, or neither.
    """
    if n < 2:
        raise ValueError(f"N must be at least 2, got {n}")
    if n % 2 == 0:
        return "even"
    p = next((d for d in range(3, math.isqrt(n) + 1, 2) if n % d == 0), n)
    if p == n:
        return "prime"
    while n % p == 0:
        n //= p
    return "prime power" if n == 1 else "composite-ok"


@dataclass(frozen=True)
class FactoringInstance:
    """A modulus N together with a residue x coprime to it."""

    N: int
    x: int

    def __post_init__(self):
        if self.N < 15 or is_trivial_case(self.N) != "composite-ok":
            raise ValueError(
                f"N={self.N} must be an odd composite >= 15 with two or more "
                "distinct prime factors"
            )
        if not 1 <= self.x < self.N:
            raise ValueError(f"x={self.x} out of range [1, {self.N})")
        if math.gcd(self.x, self.N) != 1:
            raise ValueError(f"x={self.x} shares a factor with N={self.N}")

    @property
    def L(self) -> int:
        return self.N.bit_length()

    @property
    def n_qubits(self) -> int:
        return 3 * self.L


@dataclass(frozen=True)
class Attempt:
    """One pass of the factoring loop."""

    x: int
    measured_c: int | None
    recovered_r: int | None
    factors: tuple[int, int] | None
    failure: str | None
    lucky_gcd: bool = False


@dataclass(frozen=True)
class FactorReport:
    """Full record of a factoring run, attempt by attempt."""

    attempts: tuple[Attempt, ...]

    @property
    def final(self) -> Attempt | None:
        # factor() stops right after the attempt that splits N, so it is last
        return self.attempts[-1] if self.attempts else None

    @property
    def factors(self) -> tuple[int, int] | None:
        a = self.final
        return a.factors if a else None

    @property
    def succeeded(self) -> bool:
        return self.factors is not None


# ---------------------------------------------------------------------------
# circuit simulation
# ---------------------------------------------------------------------------

def _power_table(x: int, n: int, length: int) -> np.ndarray:
    """x^a mod n for a in [0, length), tiled from one orbit period."""
    orbit = _orbit(x, n)
    reps = -(-length // len(orbit))
    return np.tile(np.asarray(orbit, dtype=np.int64), reps)[:length]


def order_finding_state(inst: FactoringInstance) -> statevec.StateVector:
    """Final machine state just before measurement."""
    statevec.require_qubits(inst.n_qubits, f"factoring N={inst.N}")
    two_l = 2 * inst.L
    transform = build_qft_circuit(QftSpec(two_l))
    # the table is handed over, not kept, so it is freed before the
    # transform runs
    return statevec._period_finding(transform, _power_table(inst.x, inst.N, 1 << two_l), inst.L)


# One entry, 2^(2L) floats: the attempts draw from it and the dump reads the
# last one's.  The state it is summed from, up to 128 MB, is not kept.
_laws: dict[FactoringInstance, np.ndarray] = {}


def first_register_distribution(inst: FactoringInstance) -> np.ndarray:
    """Exact measurement distribution of c: the marginal over the value register (read-only)."""
    if inst not in _laws:
        _laws.clear()
        law = statevec._input_marginal(order_finding_state(inst), 2 * inst.L)
        law.setflags(write=False)
        _laws[inst] = law
    return _laws[inst]


def run_order_finding_circuit(inst: FactoringInstance, rng_seed: int) -> int:
    """Run the full circuit once and return the measured exponent-register c."""
    return next(statevec._draws(first_register_distribution(inst).copy(), [rng_seed]))


# ---------------------------------------------------------------------------
# continued fractions and order recovery
# ---------------------------------------------------------------------------

def continued_fraction_candidates(c: int, two_pow_2l: int, n: int) -> list[tuple[int, int]]:
    """Convergents (p, q) of c / two_pow_2l with q < n, in expansion order.

    Convergents are automatically in lowest terms; their denominators are
    the candidate orders (up to a small integer factor).
    """
    if not 0 <= c < two_pow_2l:
        raise ValueError(f"c={c} out of range [0, {two_pow_2l})")
    convergents: list[tuple[int, int]] = []
    num, den = c, two_pow_2l
    p_prev, p_cur = 0, 1  # numerator recurrence seeds h(-2), h(-1)
    q_prev, q_cur = 1, 0  # denominator recurrence seeds k(-2), k(-1)
    while den:
        quot, rem = divmod(num, den)
        p_prev, p_cur = p_cur, quot * p_cur + p_prev
        q_prev, q_cur = q_cur, quot * q_cur + q_prev
        if q_cur >= n:
            break
        convergents.append((p_cur, q_cur))
        num, den = den, rem
    return convergents


def recover_order(inst: FactoringInstance, c: int) -> int | None:
    """Recover the order of x from a measured c, or None on a miss.

    Each convergent denominator q is widened to lam*q for lam up to
    LAMBDA_MAX (undoing a shared factor between the peak number d and r),
    and the first of these exponents that modular exponentiation verifies
    is reduced to the least power giving 1, which is the exact order.  The
    order is accepted only when the measurement actually supports it, i.e.
    c/2^(2L) lies within 2^-(L+1) of a nonzero multiple d/r - otherwise an
    uninformative c (such as 0, whose only convergent has numerator 0)
    would be laundered into an answer it never witnessed.  The test never
    meets d = 0: that passes only for c <= 2^(L-1), where every convergent
    with p >= 1 has q >= 2^(L+1) > N, so None has already been returned.
    """
    q_total = 1 << (2 * inst.L)
    exponents = (lam * q for p, q in continued_fraction_candidates(c, q_total, inst.N) if p
                 for lam in range(1, LAMBDA_MAX + 1) if lam * q < inst.N)
    e = next((e for e in exponents if pow(inst.x, e, inst.N) == 1), None)
    if e is None:
        return None
    # e is a multiple of the order, and the order is its least divisor giving 1
    r = next(div for div in range(1, e + 1) if e % div == 0 and pow(inst.x, div, inst.N) == 1)
    # peak condition, in exact integers: |c/Q - d/r| <= 1/2^(L+1) for some d >= 1
    d = (2 * c * r + q_total) // (2 * q_total)  # nearest integer to c*r/Q
    half_width = 1 << (inst.L + 1)
    if abs(c * r - d * q_total) * half_width > q_total * r:
        return None
    return r


def extract_factors(n: int, x: int, r: int) -> tuple[tuple[int, int] | None, str | None]:
    """Split N from a known order r of x, or report why it cannot.

    Returns (factors, failure); exactly one of the two is set.  Requires r
    to be the exact order of x mod N.
    """
    if r < 1 or pow(x, r, n) != 1 or multiplicative_order(x, n) != r:
        raise ValueError(f"r={r} is not the multiplicative order of {x} mod {n}")
    if r % 2 == 1:
        return None, FAILURE_ODD_R
    half = pow(x, r // 2, n)
    if half == n - 1:
        return None, FAILURE_MINUS_ONE
    factors = (math.gcd(half + 1, n), math.gcd(half - 1, n))
    if not all(1 < f < n for f in factors):
        raise AssertionError(
            f"square root {half} of 1 mod {n} not in {{1, -1}} must split N"
        )
    return factors, None


def factor(n: int, max_attempts: int, rng_seed: int) -> FactorReport:
    """Repeatedly pick a random residue and try to split N through its order.

    A residue sharing a factor with N short-circuits to that factor
    ("lucky gcd").  Otherwise the circuit is run with a per-attempt
    sub-seed, the order recovered, and the congruence-of-squares split
    attempted; failed attempts are recorded and the loop retries.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    # the register size bounds the trial division below, so it is checked
    # first; N < 2 and even N are refused by is_trivial_case in O(1)
    if n >= 2 and n % 2:
        statevec.require_qubits(3 * n.bit_length(), f"factoring N={n}")
    kind = is_trivial_case(n)
    if kind != "composite-ok":
        raise ValueError(
            f"N={n} is {kind}; the order-finding method needs an "
            "odd composite with two or more distinct prime factors"
        )
    rng = statevec.make_rng(rng_seed)
    attempts: list[Attempt] = []
    for i in range(max_attempts):
        x = int(rng.integers(2, n - 1))  # uniform over [2, N-2]
        shared = math.gcd(x, n)
        if shared > 1:
            attempts.append(
                Attempt(x, None, None, (shared, n // shared), None, lucky_gcd=True)
            )
            break
        inst = FactoringInstance(n, x)
        c = run_order_finding_circuit(inst, statevec.derive_seed(rng_seed, i))
        r = recover_order(inst, c)
        if r is None:
            attempts.append(Attempt(x, c, None, None, FAILURE_CF_MISS))
            continue
        factors, failure = extract_factors(n, x, r)
        attempts.append(Attempt(x, c, r, factors, failure))
        if factors is not None:
            break
    return FactorReport(tuple(attempts))
