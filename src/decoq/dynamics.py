"""Joint environment + register Hamiltonians.

The central object is a non-contact interaction

    V = sum_{l=1}^{n} sum_{mu=1}^{3} h^l_mu (x) sigma^l_mu,

one environment operator per qubit per Pauli axis and no multi-qubit terms.
The joint Hamiltonian is H = h_env (x) 1 + V, a plain matrix; the register
has no free term.  Contact interactions (products of Paulis on several
qubits), the flip drives among them, are register-only Pauli sums, so that
counterexamples can be driven through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol
from .tensor import DensityMatrix, require_hermitian
from .pauli import pauli_sum


@dataclass(frozen=True, eq=False)
class EnvironmentModel:
    """Environment Hilbert space, initial state and per-qubit couplings.

    ``couplings`` is given as n triples of d_e x d_e matrices (or one array)
    and stored as one complex (n, 3, d_e, d_e) array: ``couplings[l]`` holds
    the three Hermitian environment operators paired with sigma_x, sigma_y,
    sigma_z on qubit ``l + 1``.  The largest operator norm among them is the
    recorded coupling bound.
    """

    dim: int
    rho0: DensityMatrix
    h_env: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("environment dimension must be at least 1")
        if self.rho0.dim != self.dim:
            raise ShapeError(f"rho0 dimension {self.rho0.dim} does not match d_e = {self.dim}")
        object.__setattr__(
            self, "h_env", require_hermitian(self.h_env, tol.HERMITIAN_TOL, "environment Hamiltonian")
        )
        for l, triple in enumerate(self.couplings):
            if len(triple) != 3:
                raise ShapeError(f"qubit {l + 1} needs exactly three coupling operators")
            for mu, shape in enumerate(map(np.shape, triple)):
                if shape != (self.dim, self.dim):
                    raise ShapeError(f"coupling h[{l + 1}][{mu + 1}] must be {self.dim} x {self.dim}, got shape {shape}")
        stack = np.asarray(self.couplings, dtype=complex).reshape(-1, 3, self.dim, self.dim)
        defects = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))  # (n, 3), one Hermiticity check
        for l, mu in np.argwhere(~(defects <= tol.HERMITIAN_TOL))[:1]:  # the first offender in (l, mu) order, NaN too
            require_hermitian(stack[l, mu], tol.HERMITIAN_TOL, f"coupling h[{l + 1}][{mu + 1}]")
        object.__setattr__(self, "couplings", stack)

    @property
    def n_qubits(self) -> int:
        return len(self.couplings)

    @property
    def coupling_bound(self) -> float:
        if not len(self.couplings):
            return 0.0
        return float(np.linalg.norm(self.couplings, 2, axis=(-2, -1)).max())


def gibbs_weights(dim: int, beta: float) -> np.ndarray:
    """Normalized weights w_i proportional to exp(-beta * i); beta = 0 is maximally mixed."""
    with np.errstate(over="ignore"):  # -beta i past -1.8e308 is -inf, whose weight exp(-inf) = 0 is exact
        w = np.exp(-float(beta) * np.arange(dim, dtype=float))
    return w / w.sum()


def trivial_environment(n_qubits: int) -> EnvironmentModel:
    """One-dimensional environment with zero couplings, for register-only models."""
    rho = DensityMatrix(np.eye(1, dtype=complex), (1,))
    return EnvironmentModel(1, rho, np.zeros((1, 1), dtype=complex), np.zeros((n_qubits, 3, 1, 1), dtype=complex))


def random_environment(
    n_qubits: int,
    env_dim: int,
    coupling_bound: float = 1.0,
    beta: float = 0.0,
    seed: int = 42,
) -> EnvironmentModel:
    """Draw a seeded random environment with couplings of exact operator norm.

    Each coupling starts as the Hermitian part of an i.i.d. standard complex
    Gaussian matrix and is rescaled so its operator norm equals
    ``coupling_bound`` exactly.  The free environment Hamiltonian is a unit
    energy ladder and the initial state carries Gibbs-like diagonal weights
    for the inverse-temperature knob ``beta``.
    """
    if env_dim < 1:
        raise ShapeError("environment dimension must be at least 1")
    if coupling_bound < 0:
        raise ValidationError("coupling bound must be non-negative")
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n_qubits, 3, 2, env_dim, env_dim))  # per coupling: real part, then imaginary
    g = z[:, :, 0] + 1j * z[:, :, 1]
    h = (g + g.conj().swapaxes(-1, -2)) / 2.0
    norms = np.linalg.norm(h, 2, axis=(-2, -1))
    scale = np.divide(coupling_bound, norms, out=np.zeros_like(norms), where=norms > 0.0)
    h *= scale[:, :, None, None]
    h[scale == 0.0] = 0.0  # exact +0 entries, as a zero matrix has, not the signed zeros of h * 0
    rho0 = DensityMatrix(np.diag(gibbs_weights(env_dim, beta)).astype(complex), (env_dim,))
    h_env = np.diag(np.arange(env_dim, dtype=float)).astype(complex)
    return EnvironmentModel(env_dim, rho0, h_env, h)


def free_hamiltonian(env: EnvironmentModel) -> np.ndarray:
    """The free part h_env (x) 1 on environment (x) register; the register has no free term."""
    return np.kron(env.h_env, np.eye(2 ** env.n_qubits, dtype=complex))


def coupling_terms(env: EnvironmentModel, qubits) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The ``pauli_sum`` terms (h^l_mu, sigma^l_mu) of the 0-based ``qubits``, in (l, mu) order."""
    n = env.n_qubits
    return [
        (h, tuple(mu if i == l else 0 for i in range(n)))
        for l in qubits
        for mu, h in enumerate(env.couplings[l], start=1)
    ]


def build_noncontact(env: EnvironmentModel) -> np.ndarray:
    """Assemble V = sum_l sum_mu h^l_mu (x) sigma^l_mu on environment (x) register."""
    n = env.n_qubits
    v = pauli_sum(coupling_terms(env, range(n)), env.dim, n)
    require_hermitian(v, tol.HERMITIAN_TOL, "non-contact interaction")
    return v


def contact_hamiltonian(terms: Sequence[tuple[float, Sequence[int]]], n_qubits: int) -> np.ndarray:
    """Contact interaction sum_k omega_k sigma_{v_k} on a bare register, from ``(omega_k, v_k)`` pairs.

    Each v_k holds one Pauli letter per qubit, so strings of another length raise ``ShapeError``."""
    v = pauli_sum([(float(w), tuple(string)) for w, string in terms], 1, n_qubits)
    return require_hermitian(v, tol.HERMITIAN_TOL, "contact interaction")
