import numpy as np
import pytest

from decoq import tolerances as tol
from decoq.pauli import embed
from decoq.tensor import require_hermitian


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))


def random_unitary(rng, d: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the draw is well defined
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def random_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(rng, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Reference unitary ``exp(-i h t)`` for Hermitian ``h``, via eigendecomposition."""
    h = require_hermitian(h, tol.HERMITIAN_INPUT_TOL, "exponential input")
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * float(t))
    return (evecs * phases) @ evecs.conj().T


def evolve(h0, v: np.ndarray, t: float) -> np.ndarray:
    """Reference joint unitary exp(-i (H0 + V) t); ``h0`` is a ``FreeHamiltonian`` or None."""
    v = np.asarray(v, dtype=complex)
    h = v if h0 is None else h0.matrix() + v
    return expm_hermitian(h, t)


def single_flip_product(omegas, t: float) -> np.ndarray:
    """Closed form prod_l [cos(w_l t) + i sin(w_l t) sigma_x^l] = exp(+i H t) for the single-flip drive.

    All terms commute, so the product needs no ordering; the sign follows the product form.
    """
    omegas = [float(w) for w in omegas]
    n = len(omegas)
    u = np.eye(2 ** n, dtype=complex)
    for l, w in enumerate(omegas, start=1):
        u = u @ (np.cos(w * t) * np.eye(2 ** n) + 1j * np.sin(w * t) * embed(1, l, n))
    return u


def pair_flip_product(pair_omegas, n_qubits: int, t: float) -> np.ndarray:
    """Closed form prod over pairs [cos(w_kl t) + i sin(w_kl t) sigma_x^k sigma_x^l] = exp(+i H t)."""
    n = int(n_qubits)
    u = np.eye(2 ** n, dtype=complex)
    for (k, l), w in pair_omegas.items():
        gen = embed(1, k, n) @ embed(1, l, n)
        u = u @ (np.cos(float(w) * t) * np.eye(2 ** n) + 1j * np.sin(float(w) * t) * gen)
    return u
