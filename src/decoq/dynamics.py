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
    """Environment initial state, free Hamiltonian and per-qubit couplings.

    The environment dimension d_e is read off ``rho0``.  ``couplings`` is
    given as n triples of d_e x d_e matrices (or one array) and stored as one
    complex (n, 3, d_e, d_e) array: ``couplings[l]`` holds the three
    Hermitian environment operators paired with sigma_x, sigma_y, sigma_z on
    qubit ``l + 1``.  Each matrix is checked Hermitian within HERMITIAN_TOL
    and its Hermitian part (h + h^dag) / 2 is stored.  The largest operator
    norm among the couplings is the recorded coupling bound.
    """

    rho0: DensityMatrix
    h_env: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        h_env = require_hermitian(self.h_env, tol.HERMITIAN_TOL, "environment Hamiltonian")
        if len(h_env) != self.dim:
            raise ShapeError(f"environment Hamiltonian is {len(h_env)} x {len(h_env)}, rho0 is {self.dim} x {self.dim}")
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
        # the Hermitian parts, exact on Hermitian input: defects within tolerance one at a time would add up in V
        object.__setattr__(self, "h_env", (h_env + h_env.conj().T) / 2.0)
        object.__setattr__(self, "couplings", (stack + stack.conj().swapaxes(-1, -2)) / 2.0)

    @property
    def dim(self) -> int:
        return self.rho0.dim

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
    beta = float(beta)
    ladder = np.arange(dim, dtype=float) - (0 if beta >= 0 else dim - 1)  # i - i_ref, i_ref the heaviest level: none overflows
    with np.errstate(over="ignore"):  # an exponent past -1.8e308 is -inf, whose weight exp(-inf) = 0 is exact
        w = np.exp(-beta * ladder)
    return w / w.sum()


def trivial_environment(n_qubits: int) -> EnvironmentModel:
    """One-dimensional environment with zero couplings, for register-only models."""
    rho = DensityMatrix(np.eye(1, dtype=complex))
    return EnvironmentModel(rho, np.zeros((1, 1), dtype=complex), np.zeros((n_qubits, 3, 1, 1), dtype=complex))


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
    rho0 = DensityMatrix(np.diag(gibbs_weights(env_dim, beta)).astype(complex))
    h_env = np.diag(np.arange(env_dim, dtype=float)).astype(complex)
    return EnvironmentModel(rho0, h_env, h)


def free_hamiltonian(env: EnvironmentModel, onto: np.ndarray | None = None) -> np.ndarray:
    """The free part h_env (x) 1 on environment (x) register; the register has no free term.

    With ``onto``, a complex d x d array such as V, h_env (x) 1 is added to it
    in place and ``onto`` is returned, equal to ``free_hamiltonian(env) + onto``
    with no second d x d array made: only the register diagonal of each
    environment block (e, f) moves, by h_env[e, f]."""
    dc = 2 ** env.n_qubits
    if onto is None:
        return np.kron(env.h_env, np.eye(dc, dtype=complex))
    d = env.dim * dc
    if not (isinstance(onto, np.ndarray) and onto.shape == (d, d) and onto.dtype == complex and onto.flags.c_contiguous):
        raise ShapeError(f"the free part goes onto a C-contiguous complex {d} x {d} array, got shape {np.shape(onto)}")
    diagonals = np.einsum("eifi->efi", onto.reshape(env.dim, dc, env.dim, dc))  # a writeable view of onto
    diagonals += env.h_env[:, :, None]
    return onto


def noncontact_strings(n_qubits: int) -> list[tuple[int, ...]]:
    """The Pauli strings sigma^l_mu of the non-contact coupling on ``n_qubits``, in the (l, mu) order of its couplings."""
    return [tuple(mu if i == l else 0 for i in range(n_qubits)) for l in range(n_qubits) for mu in (1, 2, 3)]


def build_noncontact(env: EnvironmentModel) -> np.ndarray:
    """Assemble V = sum_l sum_mu h^l_mu (x) sigma^l_mu on environment (x) register, one ``pauli_sum`` term per (l, mu)."""
    n, de = env.n_qubits, env.dim
    v = pauli_sum(list(zip(env.couplings.reshape(-1, de, de), noncontact_strings(n))), de, n)
    require_hermitian(v, tol.HERMITIAN_TOL, "non-contact interaction")
    return v


def contact_hamiltonian(terms: Sequence[tuple[float, Sequence[int]]], n_qubits: int) -> np.ndarray:
    """Contact interaction sum_k omega_k sigma_{v_k} on a bare register, from ``(omega_k, v_k)`` pairs.

    Each v_k holds one Pauli letter per qubit, so strings of another length raise ``ShapeError``."""
    v = pauli_sum([(float(w), tuple(string)) for w, string in terms], 1, n_qubits)
    return require_hermitian(v, tol.HERMITIAN_TOL, "contact interaction")
