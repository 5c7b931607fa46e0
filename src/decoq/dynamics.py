"""Joint environment + register Hamiltonians.

The central object is a non-contact interaction

    V = sum_{l=1}^{n} sum_{mu=1}^{3} h^l_mu (x) sigma^l_mu,

one environment operator per qubit per Pauli axis and no multi-qubit terms.
Free evolution is a sum of an environment part and independent single-qubit
parts; contact interactions (products of Paulis on several qubits) are
supported as explicit term lists so that counterexamples can be driven
through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol
from .tensor import DensityMatrix, kron, require_hermitian
from .pauli import pauli_sum


@dataclass(frozen=True)
class EnvironmentModel:
    """Environment Hilbert space, initial state and per-qubit couplings.

    ``couplings[l]`` holds the three Hermitian environment operators paired
    with sigma_x, sigma_y, sigma_z on qubit ``l + 1``.  The largest operator
    norm among them is the recorded coupling bound.
    """

    dim: int
    rho0: DensityMatrix
    h_env: np.ndarray
    couplings: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

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
        stack = np.array(self.couplings, dtype=complex).reshape(-1, 3, self.dim, self.dim)
        defects = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))  # (n, 3), one Hermiticity check
        for l, mu in np.argwhere(~(defects <= tol.HERMITIAN_TOL))[:1]:  # the first offender in (l, mu) order, NaN too
            require_hermitian(stack[l, mu], tol.HERMITIAN_TOL, f"coupling h[{l + 1}][{mu + 1}]")
        object.__setattr__(self, "couplings", tuple(tuple(triple) for triple in stack))

    @property
    def n_qubits(self) -> int:
        return len(self.couplings)

    @property
    def coupling_bound(self) -> float:
        if not self.couplings:
            return 0.0
        return float(np.linalg.norm(np.array(self.couplings), 2, axis=(-2, -1)).max())


def gibbs_weights(dim: int, beta: float) -> np.ndarray:
    """Normalized weights w_i proportional to exp(-beta * i); beta = 0 is maximally mixed."""
    w = np.exp(-float(beta) * np.arange(dim, dtype=float))
    return w / w.sum()


def trivial_environment(n_qubits: int) -> EnvironmentModel:
    """One-dimensional environment with zero couplings, for register-only models."""
    zero = np.zeros((1, 1), dtype=complex)
    rho = DensityMatrix(np.eye(1, dtype=complex), (1,))
    return EnvironmentModel(1, rho, zero, tuple((zero, zero, zero) for _ in range(n_qubits)))


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
    couplings = tuple(tuple(triple) for triple in h)
    rho0 = DensityMatrix(np.diag(gibbs_weights(env_dim, beta)).astype(complex), (env_dim,))
    h_env = np.diag(np.arange(env_dim, dtype=float)).astype(complex)
    return EnvironmentModel(env_dim, rho0, h_env, couplings)


@dataclass(frozen=True)
class FreeHamiltonian:
    """Non-interacting part: an environment term plus independent qubit terms."""

    env_term: np.ndarray
    qubit_terms: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "env_term", require_hermitian(self.env_term, tol.HERMITIAN_TOL, "free environment term")
        )
        checked = []
        for l, q in enumerate(self.qubit_terms):
            q = require_hermitian(q, tol.HERMITIAN_TOL, f"free qubit term {l + 1}")
            if q.shape != (2, 2):
                raise ShapeError(f"free qubit term {l + 1} must be 2x2, got {q.shape}")
            checked.append(q)
        object.__setattr__(self, "qubit_terms", tuple(checked))

    @property
    def env_dim(self) -> int:
        return self.env_term.shape[0]

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_terms)

    def matrix(self) -> np.ndarray:
        """Full matrix on environment (x) register."""
        de, n = self.env_dim, self.n_qubits
        dc = 2 ** n
        out = kron(self.env_term, np.eye(dc))
        eye_e = np.eye(de, dtype=complex)
        for l, q in enumerate(self.qubit_terms, start=1):
            if not np.any(q):
                continue
            single = np.kron(
                np.kron(np.eye(2 ** (l - 1), dtype=complex), q),
                np.eye(2 ** (n - l), dtype=complex),
            )
            out += kron(eye_e, single)
        return out


def free_hamiltonian(env: EnvironmentModel, qubit_terms: Sequence[np.ndarray] | None = None) -> FreeHamiltonian:
    """Free Hamiltonian using the environment's own term; qubit terms default to zero."""
    if qubit_terms is None:
        qubit_terms = tuple(np.zeros((2, 2), dtype=complex) for _ in range(env.n_qubits))
    return FreeHamiltonian(env.h_env, tuple(qubit_terms))


@dataclass(frozen=True)
class ContactTerm:
    """One product term on the register alone: coefficient and Pauli letters per qubit."""

    omega: float
    string: tuple[int, ...]


@dataclass(frozen=True)
class InteractionSpec:
    """Declared interaction: either non-contact (from an environment model) or a term list."""

    kind: str  # "non_contact" | "contact"
    env: EnvironmentModel | None = None
    terms: tuple[ContactTerm, ...] = ()

    def __post_init__(self):
        if self.kind not in ("non_contact", "contact"):
            raise ShapeError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "non_contact" and self.env is None:
            raise ShapeError("non-contact interaction needs an environment model")
        if self.kind == "contact" and not self.terms:
            raise ShapeError("contact interaction needs at least one term")

    @property
    def n_qubits(self) -> int:
        if self.kind == "non_contact":
            return self.env.n_qubits
        return len(self.terms[0].string)


def coupling_terms(env: EnvironmentModel, qubits) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The ``pauli_sum`` terms (h^l_mu, sigma^l_mu) of the 0-based ``qubits``, in (l, mu) order."""
    n = env.n_qubits
    return [
        (h, tuple(mu if i == l else 0 for i in range(n)))
        for l in qubits
        for mu, h in enumerate(env.couplings[l], start=1)
    ]


def build_noncontact(env: EnvironmentModel, n_qubits: int | None = None) -> np.ndarray:
    """Assemble V = sum_l sum_mu h^l_mu (x) sigma^l_mu on environment (x) register."""
    n = env.n_qubits if n_qubits is None else int(n_qubits)
    if n != env.n_qubits:
        raise ShapeError(f"environment provides couplings for {env.n_qubits} qubits, asked for {n}")
    v = pauli_sum(coupling_terms(env, range(n)), env.dim, n)
    require_hermitian(v, tol.HERMITIAN_TOL, "non-contact interaction")
    return v


def interaction_matrix(spec: InteractionSpec) -> np.ndarray:
    """Materialize an interaction declaration as a Hermitian matrix.

    A contact interaction acts on the register alone, so its matrix is 2^n x 2^n.
    """
    if spec.kind == "non_contact":
        return build_noncontact(spec.env)
    n = spec.n_qubits
    if any(len(term.string) != n for term in spec.terms):
        raise ShapeError("all contact terms must address the same number of qubits")
    v = pauli_sum([(float(term.omega), term.string) for term in spec.terms], 1, n)
    return require_hermitian(v, tol.HERMITIAN_TOL, "contact interaction")


def single_flip_hamiltonian(omegas: Sequence[float]) -> np.ndarray:
    """Independent flip drive sum_l omega_l sigma_x^l on a bare register."""
    omegas = [float(w) for w in omegas]
    n = len(omegas)
    if n < 1:
        raise ShapeError("need at least one frequency")
    return pauli_sum([(w, tuple(int(i == l) for i in range(n))) for l, w in enumerate(omegas)], 1, n)


def pair_flip_hamiltonian(pair_omegas: Mapping[tuple[int, int], float], n_qubits: int) -> np.ndarray:
    """Correlated flip drive sum over pairs omega_kl sigma_x^k sigma_x^l."""
    n = int(n_qubits)
    for k, l in pair_omegas:
        if k == l:
            raise ShapeError(f"pair ({k},{l}) must couple two distinct qubits")
        if not (1 <= k <= n and 1 <= l <= n):
            raise ShapeError(f"pair ({k},{l}) outside 1..{n}")
    terms = [(float(w), tuple(int(i in (k, l)) for i in range(1, n + 1))) for (k, l), w in pair_omegas.items()]
    return pauli_sum(terms, 1, n)
