"""qdesk: a desk-scale state-vector quantum simulator and algorithm suite.

Modules
-------
statevec
    Dense state vector, view-based gate kernel, the period-finding state
    build, register marginal, qubit budget, seeded measurement.
gates
    Gate matrices, circuit IR, dense expansion oracle, linear routing.
qft
    Exact and approximate Fourier circuits and their fidelity check.
simon
    Hidden-shift finding over F_2^n plus the classical query baseline.
shor
    Order finding, continued-fraction recovery and factor extraction.
grover
    Search problem, in-place iteration, schedule, analytic recurrence.
cli
    JSON-reporting command-line front end and majority-vote amplifier.
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

from . import gates, grover, qft, shor, simon, statevec  # noqa: E402,F401
