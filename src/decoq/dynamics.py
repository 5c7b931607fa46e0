"""Environment models: the interaction record and the joint Hamiltonians built from it.

The register meets its environment through V = sum_k A_k (x) sigma_{v_k}, a
list of terms, each a Hermitian environment operator A_k times a Pauli string
v_k.  ``EnvironmentModel`` holds that list with the environment's initial
state and free Hamiltonian; V is the ``pauli_sum`` of its terms and the joint
Hamiltonian is H = h_env (x) 1 + V, a plain matrix: the register has no free
term.  ``random_environment`` draws the non-contact coupling, one term
h^l_mu (x) sigma^l_mu per qubit and axis; a contact interaction, the flip
drives among them, is a one-dimensional environment with scalar weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol
from .tensor import DensityMatrix, require_hermitian
from .pauli import _index_stack, pauli_sum


@dataclass(frozen=True, eq=False)
class EnvironmentModel:
    """Environment initial state, free Hamiltonian and the terms (A_k, v_k) of the interaction V.

    d_e is read off ``rho0`` and n off the Pauli strings v_k (letters 0..3),
    which share one length.  Each A_k, d_e x d_e or a scalar when d_e = 1, is
    checked Hermitian within HERMITIAN_TOL and stored, in order, as its
    Hermitian part (A + A^dag) / 2, a complex d_e x d_e array.  The largest
    operator norm among the A_k is the recorded coupling bound.
    """

    rho0: DensityMatrix
    h_env: np.ndarray
    terms: tuple

    def __post_init__(self):
        d = self.dim
        h_env = require_hermitian(self.h_env, tol.HERMITIAN_TOL, "environment Hamiltonian")
        if len(h_env) != d:
            raise ShapeError(f"environment Hamiltonian is {len(h_env)} x {len(h_env)}, rho0 is {d} x {d}")
        terms = tuple(self.terms)
        for k, shape in enumerate(np.shape(a) for a, _ in terms):
            if shape != (d, d) and not (d == 1 and shape == ()):
                raise ShapeError(f"operator of term {k + 1} must be {d} x {d}, got shape {shape}")
        strings = tuple(map(tuple, _index_stack([v for _, v in terms]).tolist())) if terms else ()
        stack = np.array([np.reshape(a, (d, d)) for a, _ in terms], dtype=complex).reshape(-1, d, d)
        defects = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))  # one Hermiticity check
        for k in np.flatnonzero(~(defects <= tol.HERMITIAN_TOL))[:1]:  # the first offender, NaN too
            require_hermitian(stack[k], tol.HERMITIAN_TOL, f"operator of term {k + 1} (Pauli string {strings[k]})")
        # the Hermitian parts, exact on Hermitian input: defects within tolerance one at a time would add up in V
        object.__setattr__(self, "h_env", (h_env + h_env.conj().T) / 2.0)
        object.__setattr__(self, "terms", tuple(zip((stack + stack.conj().swapaxes(-1, -2)) / 2.0, strings)))

    @property
    def dim(self) -> int:
        return self.rho0.dim

    @property
    def strings(self) -> tuple[tuple[int, ...], ...]:
        return tuple(v for _, v in self.terms)

    @property
    def n_qubits(self) -> int:
        return len(self.terms[0][1]) if self.terms else 0

    @property
    def coupling_bound(self) -> float:
        ops = np.reshape([a for a, _ in self.terms], (-1, self.dim, self.dim))
        return float(np.linalg.norm(ops, 2, axis=(-2, -1)).max(initial=0.0))

    @property
    def couplings(self) -> np.ndarray:
        """The h^l_mu of a non-contact record, whose strings are the sigma^l_mu in (l, mu) order, as (n, 3, d_e, d_e)."""
        if self.strings != _single_letters(self.n_qubits):
            raise ShapeError("the terms are not one per qubit and Pauli axis in (l, mu) order")
        return np.array([a for a, _ in self.terms], dtype=complex).reshape(self.n_qubits, 3, self.dim, self.dim)


def _single_letters(n_qubits: int) -> tuple[tuple[int, ...], ...]:
    """The strings sigma^l_mu of a non-contact coupling on ``n_qubits``, in (l, mu) order."""
    return tuple(tuple(mu * (i == l) for i in range(n_qubits)) for l in range(n_qubits) for mu in (1, 2, 3))


def gibbs_weights(dim: int, beta: float) -> np.ndarray:
    """Normalized weights w_i proportional to exp(-beta * i); beta = 0 is maximally mixed."""
    beta = float(beta)
    ladder = np.arange(dim, dtype=float) - (0 if beta >= 0 else dim - 1)  # i - i_ref, i_ref the heaviest level: none overflows
    with np.errstate(over="ignore"):  # an exponent past -1.8e308 is -inf, whose weight exp(-inf) = 0 is exact
        w = np.exp(-beta * ladder)
    return w / w.sum()


def contact_environment(terms) -> EnvironmentModel:
    """The register-only model sum_k omega_k sigma_{v_k} of ``(omega_k, v_k)`` pairs: a one-dimensional environment."""
    return EnvironmentModel(DensityMatrix(np.eye(1, dtype=complex)), np.zeros((1, 1), dtype=complex), terms)


def trivial_environment(n_qubits: int) -> EnvironmentModel:
    """One-dimensional environment with zero couplings on ``n_qubits``, for register-only models."""
    return contact_environment(zip(np.zeros(3 * n_qubits), _single_letters(n_qubits)))


def random_environment(
    n_qubits: int,
    env_dim: int,
    coupling_bound: float = 1.0,
    beta: float = 0.0,
    seed: int = 42,
) -> EnvironmentModel:
    """Draw a seeded random environment: 3n non-contact terms h^l_mu (x) sigma^l_mu in (l, mu) order.

    Each coupling starts as the Hermitian part of an i.i.d. standard complex
    Gaussian matrix and is rescaled by ``coupling_bound`` over its operator
    norm, so its norm is ``coupling_bound`` up to rounding.  The record's
    ``coupling_bound``, which ``threshold.csv`` prints, is the largest norm as
    computed: 1.0000000000000002 for a bound of 1 on five qubits at d_e = 2
    and seed 0.  The free environment Hamiltonian is a unit
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
    return EnvironmentModel(rho0, h_env, zip(h.reshape(-1, env_dim, env_dim), _single_letters(n_qubits)))


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


def build_noncontact(env: EnvironmentModel) -> np.ndarray:
    """V = sum_k A_k (x) sigma_{v_k} of ``env``'s terms on environment (x) register, by ``pauli_sum``.

    It is exactly Hermitian: entry (j, i) sums the conjugates of entry (i, j)'s addends in the same order."""
    return pauli_sum(env.terms, env.dim, env.n_qubits)


def contact_hamiltonian(terms, n_qubits: int) -> np.ndarray:
    """The V of ``contact_environment(terms)`` on a bare register; strings not of ``n_qubits`` letters raise ``ShapeError``."""
    return pauli_sum(contact_environment(terms).terms, 1, n_qubits)
