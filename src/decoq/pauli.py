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
import operator

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


# Entries, counted per term as 2^n (n + d_e^2), that one block of ``pauli_sum`` holds at once: about 150 KB of
# indices and values, so a block's scratch is reused from the heap rather than mapped in fresh on every call.
_SUM_BLOCK_ENTRIES = 2 ** 13


def pauli_sum(terms, env_dim: int, n_qubits: int) -> np.ndarray:
    """sum_k A_k (x) sigma_{v_k} on environment (x) register, for ``(A_k, v_k)`` pairs.

    A_k is an env_dim x env_dim array, or a scalar when env_dim is 1.  Term k
    puts A_k[e, f] phase[k, i] at entry ((e, i), (f, cols[k, i])) of the
    ``pauli_action`` layout.  The terms go in blocks of a fixed number of
    entries, so memory stays bounded however many terms there are, and one
    unbuffered scatter per block adds them in their given order: every entry
    equals the in-order sum of dense krons to the bit.
    """
    n, de = operator.index(n_qubits), operator.index(env_dim)
    dc = 2 ** n
    out = np.zeros((de * dc, de * dc), dtype=complex)
    if not terms:
        return out
    ops, strings = zip(*terms)
    if len({np.shape(op) for op in ops}) > 1:  # they would not stack
        raise ShapeError(f"Pauli-sum coefficients must be {de} x {de}, got several shapes")
    a = _as_complex(ops)
    if a.shape[1:] != (de, de) and not (de == 1 and a.ndim == 1):
        raise ShapeError(f"Pauli-sum coefficients must be {de} x {de}, got shape {a.shape[1:]}")
    d = de * dc
    rows = np.arange(d).reshape(de, dc, 1)  # (e, i) -> e dc + i
    step = max(1, _SUM_BLOCK_ENTRIES // (dc * (n + de * de)))
    for lo in range(0, len(strings), step):
        cols, phase = pauli_action(strings[lo:lo + step])
        if cols.shape[1] != dc:
            raise ShapeError(f"Pauli strings address {len(strings[lo])} qubits, not {n_qubits}")
        flat = rows * d + np.arange(de) * dc + cols[:, None, :, None]  # flat entry index, axes (k, e, i, f)
        values = a[lo:lo + step].reshape(-1, de, 1, de) * phase[:, None, :, None]
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


def decompose(u: np.ndarray, n_qubits: int) -> dict[PauliIndexVector, np.ndarray]:
    """Error-operator components of an operator on environment (x) register.

    Parameters
    ----------
    u : array of shape (d_e * 2**n_qubits,) * 2, environment factor first;
        the environment dimension d_e (1 for none) is read off its shape.
    n_qubits : register size, at least 1; capped at 7 because the loop
        enumerates 4**n index vectors.

    Returns
    -------
    dict mapping each index vector to its environment-side component, in
    lexicographic order.  Components with Frobenius norm below the storage
    threshold are set to exact zeros.
    """
    u = _as_complex(u)
    if not 1 <= n_qubits <= tol.MAX_DECOMPOSE_QUBITS:
        raise ShapeError(
            f"decompose enumerates 4**n index vectors and needs 1 <= n <= {tol.MAX_DECOMPOSE_QUBITS}, got {n_qubits}"
        )
    dc = 2 ** n_qubits
    env_dim = len(u) // dc if u.ndim else 0
    if not env_dim or u.shape != (env_dim * dc,) * 2:
        raise ShapeError(f"operator shape {u.shape} is not (d_e 2^n, d_e 2^n) for n = {n_qubits} and some d_e >= 1")

    blocks = u.reshape(env_dim, dc, env_dim, dc)
    components: dict[PauliIndexVector, np.ndarray] = {}
    for v in itertools.product((0, 1, 2, 3), repeat=n_qubits):
        s = pauli_string(v)
        comp = np.einsum("aibj,ji->ab", blocks, s) / dc
        if np.linalg.norm(comp) < tol.COMPONENT_ZERO_TOL:
            comp = np.zeros((env_dim, env_dim), dtype=complex)
        components[v] = comp
    return components


def reconstruct(components: dict[PauliIndexVector, np.ndarray]) -> np.ndarray:
    """Rebuild the joint operator from its components (inverse of ``decompose``); n and d_e are read off them."""
    terms = [(comp, v) for v, comp in components.items()]
    if not terms:
        raise ShapeError("no components to rebuild an operator from")
    comp, v = terms[0]
    return pauli_sum(terms, len(np.atleast_1d(comp)), len(v))
