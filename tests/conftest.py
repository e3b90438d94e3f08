import numpy as np
import pytest

from qdesk import statevec


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state(rng, n):
    """Haar-ish random normalized state on n qubits."""
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return statevec.StateVector(n, amps)


def random_unitary(rng, dim):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()

