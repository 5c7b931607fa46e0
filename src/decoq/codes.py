"""Error-correcting codes: encoders, syndrome structure, recovery, and bounds.

A code is stored concretely: an isometric encoder for one logical qubit, a
complete family of orthogonal syndrome projectors on the register, and the
Pauli correction applied for each syndrome.  Recovery is available both as a
Kraus channel on the register and as a unitary on register (x) ancilla that
writes the syndrome into a fresh ancilla before correcting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol
from .tensor import StateVector, _as_complex, kron
from .pauli import PauliIndexVector, error_rank, pauli_string, strings_commute

AMPLITUDE_ONLY = "amplitude_only"
FULL_PAULI = "full_pauli"


@dataclass(frozen=True)
class CodeSpec:
    """One logical qubit protected on ``n`` register qubits.

    ``syndrome_table`` maps syndrome bit tuples to the Pauli index vector of
    the correction; ``syndrome_projectors`` holds the matching orthogonal
    projectors, which must resolve the identity.  ``k_corr`` is the number of
    simultaneous single-qubit errors of the covered class that the code
    corrects.
    """

    name: str
    n: int
    k_corr: int
    error_class: str
    encoder: np.ndarray
    syndrome_table: dict[tuple[int, ...], PauliIndexVector]
    syndrome_projectors: dict[tuple[int, ...], np.ndarray]
    ancilla_count: int

    def __post_init__(self):
        if self.error_class not in (AMPLITUDE_ONLY, FULL_PAULI):
            raise ShapeError(f"unknown error class {self.error_class!r}")
        dc = 2 ** self.n
        enc = _as_complex(self.encoder)
        if enc.shape != (dc, 2):
            raise ShapeError(f"encoder must be {dc} x 2, got {enc.shape}")
        gram = enc.conj().T @ enc
        if np.max(np.abs(gram - np.eye(2))) > tol.HERMITIAN_TOL:
            raise ValidationError("encoder columns are not orthonormal")
        object.__setattr__(self, "encoder", enc)
        if set(self.syndrome_table) != set(self.syndrome_projectors):
            raise ShapeError("syndrome table and projector family disagree on syndromes")
        total = np.zeros((dc, dc), dtype=complex)
        for bits, proj in self.syndrome_projectors.items():
            if len(bits) != self.ancilla_count:
                raise ShapeError(f"syndrome {bits} does not have {self.ancilla_count} bits")
            total += _as_complex(proj)
        if np.max(np.abs(total - np.eye(dc))) > tol.CHANNEL_TOL:
            raise ValidationError("syndrome projectors do not resolve the identity")

    @property
    def register_dim(self) -> int:
        return 2 ** self.n

    @property
    def ancilla_dim(self) -> int:
        return 2 ** self.ancilla_count

    def logical_zero(self) -> np.ndarray:
        return self.encoder[:, 0].copy()

    def logical_one(self) -> np.ndarray:
        return self.encoder[:, 1].copy()


def encode_logical(code: CodeSpec, alpha: complex, beta: complex) -> StateVector:
    """Encoded register state alpha |0_L> + beta |1_L>."""
    alpha, beta = complex(alpha), complex(beta)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > tol.LOGICAL_NORM_TOL:
        raise ValidationError(f"|alpha|^2 + |beta|^2 = {norm_sq!r} deviates from 1")
    amps = code.encoder @ np.array([alpha, beta], dtype=complex)
    amps = amps / np.linalg.norm(amps)
    return StateVector(amps, (2,) * code.n)


def covered_errors(code: CodeSpec) -> Iterator[PauliIndexVector]:
    """All Pauli index vectors of the covered class with rank <= k_corr, identity included."""
    letters = (0, 1) if code.error_class == AMPLITUDE_ONLY else (0, 1, 2, 3)
    for v in itertools.product(letters, repeat=code.n):
        if error_rank(v) <= code.k_corr:
            yield v


def build_identity_code() -> CodeSpec:
    """Trivial single-qubit code: identity encoder, one empty syndrome, no correction."""
    eye = np.eye(2, dtype=complex)
    return CodeSpec(
        name="identity",
        n=1,
        k_corr=0,
        error_class=FULL_PAULI,
        encoder=eye,
        syndrome_table={(): (0,)},
        syndrome_projectors={(): eye},
        ancilla_count=0,
    )


def _parity_bits(basis_index: int, n: int) -> tuple[int, ...]:
    bits = [(basis_index >> (n - 1 - i)) & 1 for i in range(n)]
    return tuple(bits[i] ^ bits[i + 1] for i in range(n - 1))


def build_repetition_code(n: int) -> CodeSpec:
    """Majority-vote bit-flip code on ``n`` qubits (``n`` odd, >= 3).

    Corrects up to (n-1)/2 amplitude errors; phase errors pass through.
    Syndromes are the n-1 neighbor parities of the computational basis.
    """
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ShapeError(f"repetition code needs odd n >= 3, got {n}")
    dc = 2 ** n
    encoder = np.zeros((dc, 2), dtype=complex)
    encoder[0, 0] = 1.0
    encoder[dc - 1, 1] = 1.0

    projectors: dict[tuple[int, ...], np.ndarray] = {}
    table: dict[tuple[int, ...], PauliIndexVector] = {}
    for b in range(dc):
        bits = _parity_bits(b, n)
        proj = projectors.setdefault(bits, np.zeros((dc, dc), dtype=complex))
        proj[b, b] = 1.0
    for bits in projectors:
        # reconstruct the flip pattern with this parity signature, then take
        # the representative of weight <= (n-1)/2
        pattern = [0] * n
        for i, bit in enumerate(bits):
            pattern[i + 1] = pattern[i] ^ bit
        if sum(pattern) > (n - 1) // 2:
            pattern = [1 - p for p in pattern]
        table[bits] = tuple(1 if p else 0 for p in pattern)
    return CodeSpec(
        name=f"repetition-{n}",
        n=n,
        k_corr=(n - 1) // 2,
        error_class=AMPLITUDE_ONLY,
        encoder=encoder,
        syndrome_table=table,
        syndrome_projectors=projectors,
        ancilla_count=n - 1,
    )


# Stabilizer generators of the five-qubit code, as Pauli index vectors
# (0 = identity, 1 = x, 2 = y, 3 = z).
_FIVE_QUBIT_GENERATORS = (
    (1, 3, 3, 1, 0),
    (0, 1, 3, 3, 1),
    (1, 0, 1, 3, 3),
    (3, 1, 0, 1, 3),
)


def build_five_qubit_code() -> CodeSpec:
    """Perfect five-qubit code correcting one arbitrary single-qubit error.

    The sixteen syndrome subspaces (code space plus one per single-qubit
    Pauli) are mutually orthogonal and fill the register exactly.
    """
    n = 5
    dc = 2 ** n
    gens = [pauli_string(g) for g in _FIVE_QUBIT_GENERATORS]

    group_proj = np.eye(dc, dtype=complex)
    for g in gens:
        group_proj = group_proj @ (np.eye(dc) + g) / 2.0

    zero = group_proj[:, 0]
    zero = zero / np.linalg.norm(zero)
    one = group_proj[:, dc - 1]
    one = one / np.linalg.norm(one)
    encoder = np.stack([zero, one], axis=1)

    errors: list[PauliIndexVector] = [(0,) * n]
    for pos in range(n):
        for mu in (1, 2, 3):
            v = [0] * n
            v[pos] = mu
            errors.append(tuple(v))

    projectors: dict[tuple[int, ...], np.ndarray] = {}
    table: dict[tuple[int, ...], PauliIndexVector] = {}
    for err in errors:
        bits = tuple(0 if strings_commute(gen, err) else 1 for gen in _FIVE_QUBIT_GENERATORS)
        if bits in table:
            raise ValidationError(f"syndrome collision between {table[bits]} and {err}")
        proj = np.eye(dc, dtype=complex)
        for bit, g in zip(bits, gens):
            sign = -1.0 if bit else 1.0
            proj = proj @ (np.eye(dc) + sign * g) / 2.0
        projectors[bits] = proj
        table[bits] = err
    return CodeSpec(
        name="five_qubit",
        n=n,
        k_corr=1,
        error_class=FULL_PAULI,
        encoder=encoder,
        syndrome_table=table,
        syndrome_projectors=projectors,
        ancilla_count=4,
    )


_BUILDERS = {
    "identity": build_identity_code,
    "repetition-3": lambda: build_repetition_code(3),
    "repetition-5": lambda: build_repetition_code(5),
    "five_qubit": build_five_qubit_code,
}


def build_code(name: str) -> CodeSpec:
    """Look up a code by its scenario identifier."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ShapeError(f"unknown code {name!r}; known: {sorted(_BUILDERS)}") from None


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by explicit Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_as_complex(k) for k in self.operators)
        if not ops:
            raise ShapeError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for k in ops:
            if k.shape != (d, d):
                raise ShapeError("Kraus operators must share one square shape")
            total += k.conj().T @ k
        if np.max(np.abs(total - np.eye(d))) > tol.CHANNEL_TOL:
            raise ValidationError("Kraus operators do not sum to the identity")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = _as_complex(rho)
        out = np.zeros_like(rho)
        for k in self.operators:
            out += k @ rho @ k.conj().T
        return out


def recovery_channel(code: CodeSpec) -> KrausChannel:
    """Projective syndrome measurement followed by the tabulated correction."""
    ops = []
    for bits in sorted(code.syndrome_table):
        corr = pauli_string(code.syndrome_table[bits])
        ops.append(corr @ code.syndrome_projectors[bits])
    return KrausChannel(tuple(ops))


def _ancilla_flip(bits: tuple[int, ...]) -> np.ndarray:
    """Unitary on the ancilla mapping |0...0> to |bits>."""
    if not bits:
        return np.eye(1, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    out = x if bits[0] else eye
    for b in bits[1:]:
        out = np.kron(out, x if b else eye)
    return out


def recovery_unitary(code: CodeSpec) -> np.ndarray:
    """Unitary recovery on register (x) ancilla.

    First the syndrome is copied into a fresh all-zero ancilla, then the
    correction is applied conditioned on the ancilla.  Tracing the ancilla
    out of R (rho (x) |0...0><0...0|) R^dag reproduces ``recovery_channel``.
    """
    dc, da = code.register_dim, code.ancilla_dim
    write = np.zeros((dc * da, dc * da), dtype=complex)
    correct = np.zeros((dc * da, dc * da), dtype=complex)
    for bits in sorted(code.syndrome_table):
        proj = code.syndrome_projectors[bits]
        write += kron(proj, _ancilla_flip(bits))
        idx = int("".join(str(b) for b in bits), 2) if bits else 0
        marker = np.zeros((da, da), dtype=complex)
        marker[idx, idx] = 1.0
        correct += kron(pauli_string(code.syndrome_table[bits]), marker)
    r = correct @ write
    defect = float(np.max(np.abs(r.conj().T @ r - np.eye(dc * da))))
    if defect > tol.UNITARY_TOL:
        raise ValidationError(f"recovery is not unitary, defect {defect:.3e}")
    return r


@dataclass(frozen=True)
class BoundsRow:
    """Exact integer feasibility checks for one (n, k) pair."""

    n: int
    k: int
    hamming_ok: bool
    gv_ok: bool


def _sphere_sum(n: int, radius: int) -> int:
    """Number of Pauli strings on n qubits with rank at most ``radius`` (exact integer)."""
    return sum(math.comb(n, l) * 3 ** l for l in range(radius + 1))


def hamming_gv_check(n: int, k: int) -> BoundsRow:
    """Packing and covering feasibility for correcting k errors on n qubits.

    Hamming side: sum_{l<=k} C(n,l) 3^l <= 2^(n-1).
    Covering side: 2^(n-1) <= sum_{l<=2k} C(n,l) 3^l.
    Both evaluated in exact integer arithmetic.
    """
    n, k = int(n), int(k)
    if n < 1 or k < 0 or k > n:
        raise ShapeError(f"need 1 <= n and 0 <= k <= n, got n={n} k={k}")
    half_space = 2 ** (n - 1)
    return BoundsRow(
        n=n,
        k=k,
        hamming_ok=_sphere_sum(n, k) <= half_space,
        gv_ok=half_space <= _sphere_sum(n, 2 * k),
    )


def min_code_length(k: int) -> int:
    """Smallest register size whose packing bound admits a k-error code."""
    k = int(k)
    if k < 0:
        raise ShapeError("k must be non-negative")
    n = max(1, k)
    while not hamming_gv_check(n, k).hamming_ok:
        n += 1
    return n


def asymptotic_bound_gap(x: float) -> float:
    """x ln 3 + binary-entropy(x) in nats, minus ln 2.

    Negative while the packing bound is satisfiable at asymptotic error
    fraction x; zero at the feasibility edge.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ShapeError("x must lie strictly between 0 and 1")
    entropy = -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
    return x * math.log(3.0) + entropy - math.log(2.0)


def asymptotic_x0() -> float:
    """Asymptotic correctable error fraction per register qubit.

    Half the unique root y* in (0, 1/2) of y ln 3 + H(y) = ln 2, located by
    bisection until the midpoint equals an endpoint, so every printed digit
    is resolved; the feasible fraction window is [x0, 2 x0] with x0 = y*/2.
    """
    lo, hi = 1e-15, 0.5
    if asymptotic_bound_gap(hi) < 0:
        raise ValidationError("no sign change on (0, 1/2)")
    while True:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if asymptotic_bound_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 4.0
