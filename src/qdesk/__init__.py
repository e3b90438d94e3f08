"""qdesk: a desk-scale state-vector quantum simulator and algorithm suite.

Modules
-------
statevec
    Dense state vector, view-based gate kernel, the period-finding state
    build, seeded measurement.
gates
    Gate matrices, circuit IR, dense expansion oracle.
qft
    Exact and approximate Fourier circuits and their fidelity check.
simon
    Hidden-shift finding over F_2^n plus the classical query baseline.
shor
    Order finding, continued-fraction recovery and factor extraction.
grover
    Search problem, the run on two amplitudes, schedule, analytic recurrence.
cli
    JSON-reporting command-line front end.

Importing the package loads none of these; ``from qdesk import shor`` (or
``import qdesk.shor``) loads a module and the ones it imports, so a
command starts with only the code it runs.  The package itself holds the
qubit budget (``MAX_QUBITS``, ``CapacityError``, ``require_qubits``; the
``statevec`` names are the same objects), so a request is checked against
the cap without loading numpy.  ``gates`` and ``qft`` load numpy only
where they build a matrix or minimise the fidelity of a transform that is
not exact.
"""

__version__ = "0.1.0"

import os

# Every gate is one BLAS product of a 2^k x 2^k matrix (k <= 3) with a
# 2^k x 2^(n-k) unfolding: memory-bound, so a second OpenBLAS thread buys
# little, and from about 2^12 amplitudes on it makes each product's time
# hang on whether another core is free.  Ask for one thread unless the
# caller chose a count; this only takes effect if numpy is not loaded yet.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

#: Hard cap on the simulated register: 2^24 complex doubles is 256 MB; one
#: such state, 1-2 MB of scratch and ~35 MB of interpreter peak near 295 MB.
MAX_QUBITS = 24


class CapacityError(ValueError):
    """Raised when a request would exceed the qubit budget."""


def require_qubits(needed: int, what: str) -> None:
    """Check a register size before anything is allocated for it.

    Below one qubit is a ValueError; above MAX_QUBITS is a CapacityError
    that reads "<what> needs N qubits (cap 24)".
    """
    if needed < 1:
        raise ValueError(f"{what} must use at least one qubit, got {needed}")
    if needed > MAX_QUBITS:
        raise CapacityError(f"{what} needs {needed} qubits (cap {MAX_QUBITS})")
