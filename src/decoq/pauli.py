"""Pauli strings and the error-operator decomposition of joint unitaries.

A unitary U on an environment factor of dimension ``d_e`` tensored with ``n``
qubits splits uniquely as

    U = sum_v  A_v (x) sigma_v,        sigma_v = sigma_{v_1} (x) ... (x) sigma_{v_n),

with v running over index vectors in {0,1,2,3}^n and A_v an operator on the
environment alone.  The inverse is a partial trace over the register,
A_v = 2^{-n} tr_c[U (1 (x) sigma_v)].  The number of non-identity letters in v
is the rank of the error and the Frobenius weights of the A_v, normalized by
d_e, form a probability distribution over ranks whenever U is unitary.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ShapeError
from . import tolerances as tol
from .tensor import _as_complex

SIGMA0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA0, SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_mu[b, b'] at index 2 mu + b: the one nonzero entry of row b, in column b' = b flipped for x and y
_ROW_PHASE = np.array([PAULIS[mu][b, b ^ (mu in (1, 2))] for mu in range(4) for b in (0, 1)])

PauliIndexVector = tuple[int, ...]


def _check_indices(indices) -> PauliIndexVector:
    v = tuple(int(i) for i in indices)
    if any(i not in (0, 1, 2, 3) for i in v):
        raise ShapeError(f"Pauli indices must lie in 0..3, got {v}")
    return v


def embed(mu: int, position: int, n_qubits: int) -> np.ndarray:
    """Single-qubit Pauli ``mu`` acting on qubit ``position`` (1-based) of ``n_qubits``."""
    if not 1 <= position <= n_qubits:
        raise ShapeError(f"position {position} outside 1..{n_qubits}")
    if mu not in (0, 1, 2, 3):
        raise ShapeError(f"Pauli index {mu} outside 0..3")
    left = np.eye(2 ** (position - 1), dtype=complex)
    right = np.eye(2 ** (n_qubits - position), dtype=complex)
    return np.kron(np.kron(left, PAULIS[mu]), right)


def pauli_string(indices) -> np.ndarray:
    """Tensor product ``sigma_{v_1} (x) ... (x) sigma_{v_n}``."""
    v = _check_indices(indices)
    if not v:
        raise ShapeError("pauli_string needs at least one index")
    out = PAULIS[v[0]]
    for i in v[1:]:
        out = np.kron(out, PAULIS[i])
    return out


def _index_stack(strings) -> np.ndarray:
    """Index vectors of one length as a 2-D integer array, letters checked to lie in 0..3."""
    try:
        v = np.array(strings, dtype=np.int64)
    except (TypeError, ValueError):
        raise ShapeError("need a stack of equal-length Pauli index vectors") from None
    if v.ndim != 2:
        raise ShapeError(f"need a stack of equal-length Pauli index vectors, got shape {v.shape}")
    if np.any((v < 0) | (v > 3)):
        raise ShapeError("Pauli indices must lie in 0..3")
    return v


def pauli_action(strings) -> tuple[np.ndarray, np.ndarray]:
    """Column and phase of the one nonzero entry in each row of ``pauli_string(v)``, per v of a stack.

    For m index vectors v_k of one length n, returns two (m, 2^n) arrays with
    sigma_{v_k}[i, cols[k, i]] = phase[k, i], so (sigma_{v_k} x)[i] =
    phase[k, i] x[cols[k, i]]: one gather and one product instead of a
    2^n x 2^n matrix.  sigma_v flips the bits of its x and y letters (qubit 1
    is the most significant bit) and multiplies by sigma_mu[b, b'] per letter.
    """
    v = _index_stack(strings)
    n = v.shape[1]
    if not n:
        raise ShapeError("pauli_action needs at least one index per string")
    rows = np.arange(2 ** n)
    shifts = np.arange(n - 1, -1, -1)
    phase = _ROW_PHASE[2 * v[:, :, None] + ((rows >> shifts[:, None]) & 1)].prod(axis=1)
    flips = (((v == 1) | (v == 2)) << shifts).sum(axis=1)
    return rows ^ flips[:, None], phase


def pauli_sum(terms, env_dim: int, n_qubits: int) -> np.ndarray:
    """sum_k A_k (x) sigma_{v_k} on environment (x) register, for ``(A_k, v_k)`` pairs.

    A_k is an env_dim x env_dim array, or a scalar when env_dim is 1.  Term k
    puts A_k[e, f] phase[k, i] at entry ((e, i), (f, cols[k, i])) of the
    ``pauli_action`` layout, and one unbuffered scatter adds the terms in their
    given order, so every entry equals the in-order sum of dense krons to the bit.
    """
    de, dc = int(env_dim), 2 ** int(n_qubits)
    out = np.zeros((de * dc, de * dc), dtype=complex)
    if not terms:
        return out
    ops, strings = zip(*terms)
    a = _as_complex(ops)
    if a.shape[1:] != (de, de) and not (de == 1 and a.ndim == 1):
        raise ShapeError(f"Pauli-sum coefficients must be {de} x {de}, got shape {a.shape[1:]}")
    cols, phase = pauli_action(strings)
    if cols.shape[1] != dc:
        raise ShapeError(f"Pauli strings address {len(strings[0])} qubits, not {n_qubits}")
    d = de * dc
    rows = np.arange(d).reshape(de, dc, 1)  # (e, i) -> e dc + i
    flat = rows * d + np.arange(de) * dc + cols[:, None, :, None]  # flat entry index, axes (k, e, i, f)
    values = a.reshape(-1, de, 1, de) * phase[:, None, :, None]
    np.add.at(out.reshape(-1), flat.reshape(-1), values.reshape(-1))
    return out


def anticommutation(strings, others) -> np.ndarray:
    """Symplectic criterion for every pair of rows: entry (i, j) is 1 where
    ``strings[i]`` anticommutes with ``others[j]`` and 0 where they commute.

    Both arguments are stacks of index vectors of one length; two strings
    anticommute when an odd number of positions hold two different
    non-identity letters.
    """
    a, b = _index_stack(strings), _index_stack(others)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"index vectors of lengths {a.shape[1]} and {b.shape[1]} do not compare")
    x, y = a[:, None, :], b[None, :, :]
    return ((x != 0) & (y != 0) & (x != y)).sum(axis=2) % 2


def decompose(u: np.ndarray, env_dim: int, n_qubits: int) -> dict[PauliIndexVector, np.ndarray]:
    """Error-operator components of an operator on environment (x) register.

    Parameters
    ----------
    u : array of shape (env_dim * 2**n_qubits,) * 2, environment factor first.
    env_dim : dimension of the environment factor (1 for none).
    n_qubits : register size; capped at 7 because the loop enumerates 4**n
        index vectors.

    Returns
    -------
    dict mapping each index vector to its environment-side component, in
    lexicographic order.  Components with Frobenius norm below the storage
    threshold are set to exact zeros.
    """
    u = _as_complex(u)
    if n_qubits < 1:
        raise ShapeError("need at least one qubit")
    if n_qubits > tol.MAX_DECOMPOSE_QUBITS:
        raise ShapeError(
            f"decompose enumerates 4**n index vectors and is capped at "
            f"n = {tol.MAX_DECOMPOSE_QUBITS}, got {n_qubits}"
        )
    if env_dim < 1:
        raise ShapeError("environment dimension must be at least 1")
    dc = 2 ** n_qubits
    d = env_dim * dc
    if u.shape != (d, d):
        raise ShapeError(f"operator shape {u.shape} does not match env {env_dim} x register {dc}")

    blocks = u.reshape(env_dim, dc, env_dim, dc)
    components: dict[PauliIndexVector, np.ndarray] = {}
    for v in itertools.product((0, 1, 2, 3), repeat=n_qubits):
        s = pauli_string(v)
        comp = np.einsum("aibj,ji->ab", blocks, s) / dc
        if np.linalg.norm(comp) < tol.COMPONENT_ZERO_TOL:
            comp = np.zeros((env_dim, env_dim), dtype=complex)
        components[v] = comp
    return components


def reconstruct(components: dict[PauliIndexVector, np.ndarray], env_dim: int, n_qubits: int) -> np.ndarray:
    """Rebuild the joint operator from its components (inverse of ``decompose``)."""
    return pauli_sum([(comp, v) for v, comp in components.items()], env_dim, n_qubits)
