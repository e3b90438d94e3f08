"""qdesk: a desk-scale state-vector quantum simulator and algorithm suite.

Modules
-------
statevec
    Dense state vector, view-based gate kernel, XOR oracle, register
    marginal, qubit budget, seeded measurement.
gates
    Gate matrices, circuit IR, dense expansion oracle, linear routing.
qft
    Exact and approximate Fourier circuits and their fidelity check.
simon
    Hidden-shift finding over F_2^n plus the classical query baseline.
shor
    Order finding, continued-fraction recovery and factor extraction.
grover
    Inversion about the mean, iteration schedule, analytic recurrence.
cli
    JSON-reporting command-line front end and majority-vote amplifier.
"""

__version__ = "0.1.0"

from . import gates, grover, qft, shor, simon, statevec  # noqa: E402,F401
