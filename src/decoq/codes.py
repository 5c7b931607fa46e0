"""Error-correcting codes: stabilizer generators, decoder tables, recovery, and bounds.

A code is stored as its stabilizer generators, an isometric encoder for one
logical qubit and a decoder table holding the Pauli correction C_s, a
minimum-weight coset leader, for each syndrome s.  Recovery follows from the
syndrome-basis unitary W, whose columns C_s |j_L> are built by Pauli index
arithmetic: the projector onto syndrome space s is W_s W_s^dag, and the Kraus
operator of the recovery is C_s W_s W_s^dag = encoder W_s^dag.  The dense
projectors, the Kraus channel and the unitary on register (x) ancilla that
writes the syndrome into a fresh ancilla are derived on demand, for checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol
from .tensor import StateVector, _as_complex, kron
from .pauli import PauliIndexVector, _check_indices, anticommutation, pauli_action, pauli_string

AMPLITUDE_ONLY = "amplitude_only"
FULL_PAULI = "full_pauli"


def _apply(strings, x: np.ndarray) -> np.ndarray:
    """``pauli_string(v) @ x`` for each v of ``strings`` and a (2^n, m) array ``x``, stacked as (len(strings), 2^n, m)."""
    cols, phase = pauli_action(strings)
    return phase[:, :, None] * x[cols]


def _syndromes(errors, generators, n: int) -> np.ndarray:
    """(error, generator) array of syndrome bits: 1 where the error anticommutes with the generator."""
    return anticommutation(errors, np.array(generators, dtype=np.int64).reshape(len(generators), n))


@dataclass(frozen=True)
class CodeSpec:
    """One logical qubit protected on ``n`` register qubits by n - 1 stabilizer generators.

    ``generators`` are commuting Pauli index vectors that fix both encoder
    columns.  ``syndrome_table`` maps each syndrome (bit i is 1 where the
    error anticommutes with generator i) to the Pauli index vector of its
    correction.  ``k_corr`` is the number of simultaneous single-qubit errors
    of the covered class that the code corrects.  Validation builds
    ``syndrome_basis``, the unitary W with columns C_s |j_L> over the sorted
    syndromes s and j = 0, 1, and checks W^dag W = 1.
    """

    name: str
    n: int
    k_corr: int
    error_class: str
    generators: tuple[PauliIndexVector, ...]
    encoder: np.ndarray
    syndrome_table: dict[tuple[int, ...], PauliIndexVector]
    syndrome_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.error_class not in (AMPLITUDE_ONLY, FULL_PAULI):
            raise ShapeError(f"unknown error class {self.error_class!r}")
        dc = 2 ** self.n
        gens = tuple(_check_indices(g) for g in self.generators)
        if any(len(g) != self.n for g in gens):
            raise ShapeError(f"every generator must address {self.n} qubits")
        object.__setattr__(self, "generators", gens)
        enc = _as_complex(self.encoder)
        if enc.shape != (dc, 2):
            raise ShapeError(f"encoder must be {dc} x 2, got {enc.shape}")
        gram = enc.conj().T @ enc
        if np.max(np.abs(gram - np.eye(2))) > tol.HERMITIAN_TOL:
            raise ValidationError("encoder columns are not orthonormal")
        object.__setattr__(self, "encoder", enc)
        if gens:
            defects = np.max(np.abs(_apply(gens, enc) - enc), axis=(1, 2))
            worst = int(np.argmax(defects))
            if defects[worst] > tol.CHANNEL_TOL:
                raise ValidationError(f"generator {gens[worst]} does not fix the encoder, defect {defects[worst]:.3e}")
        if 2 * len(self.syndrome_table) != dc:
            raise ShapeError(f"{len(self.syndrome_table)} syndromes do not fill a {dc}-dimensional register")
        if any(len(bits) != len(gens) for bits in self.syndrome_table):
            raise ShapeError(f"every syndrome must have {len(gens)} bits")
        corrections = [self.syndrome_table[bits] for bits in self.syndromes]
        for bits, corr, found in zip(self.syndromes, corrections, _syndromes(corrections, gens, self.n).tolist()):
            if tuple(found) != bits:
                raise ValidationError(f"correction {corr} has syndrome {tuple(found)}, not {bits}")
        w = _apply(corrections, enc).transpose(1, 0, 2).reshape(dc, dc)
        defect = float(np.max(np.abs(w.conj().T @ w - np.eye(dc))))
        if defect > tol.CHANNEL_TOL:
            raise ValidationError(f"syndrome spaces are not orthonormal, ||W^dag W - 1||_max = {defect:.3e}")
        object.__setattr__(self, "syndrome_basis", w)

    @property
    def register_dim(self) -> int:
        return 2 ** self.n

    @property
    def ancilla_count(self) -> int:
        return len(self.generators)

    @property
    def ancilla_dim(self) -> int:
        return 2 ** self.ancilla_count

    @property
    def syndromes(self) -> tuple[tuple[int, ...], ...]:
        """Syndromes in the column order of ``syndrome_basis``."""
        return tuple(sorted(self.syndrome_table))

    @property
    def syndrome_blocks(self) -> np.ndarray:
        """W_s = C_s encoder per syndrome, stacked as (syndrome, 2^n, 2); a view of ``syndrome_basis``."""
        return self.syndrome_basis.reshape(self.register_dim, -1, 2).transpose(1, 0, 2)

    @property
    def syndrome_projectors(self) -> dict[tuple[int, ...], np.ndarray]:
        """Dense projector W_s W_s^dag onto each syndrome space, built on every access."""
        return {bits: b @ b.conj().T for bits, b in zip(self.syndromes, self.syndrome_blocks)}


def encode_logical(code: CodeSpec, alpha: complex, beta: complex) -> StateVector:
    """Encoded register state alpha |0_L> + beta |1_L>."""
    alpha, beta = complex(alpha), complex(beta)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > tol.LOGICAL_NORM_TOL:
        raise ValidationError(f"|alpha|^2 + |beta|^2 = {norm_sq!r} deviates from 1")
    amps = code.encoder @ np.array([alpha, beta], dtype=complex)
    amps = amps / np.linalg.norm(amps)
    return StateVector(amps, (2,) * code.n)


def _errors_of_rank(n: int, rank: int, error_class: str) -> Iterator[PauliIndexVector]:
    """Pauli index vectors of the error class with exactly ``rank`` non-identity letters."""
    letters = (1,) if error_class == AMPLITUDE_ONLY else (1, 2, 3)
    for positions in itertools.combinations(range(n), rank):
        for word in itertools.product(letters, repeat=rank):
            v = [0] * n
            for pos, mu in zip(positions, word):
                v[pos] = mu
            yield tuple(v)


def covered_errors(code: CodeSpec) -> Iterator[PauliIndexVector]:
    """All Pauli index vectors of the covered class with rank <= k_corr, identity included, in lexicographic order."""
    return iter(sorted(v for r in range(code.k_corr + 1) for v in _errors_of_rank(code.n, r, code.error_class)))


def _code_space_basis(generators, n: int) -> np.ndarray:
    """Pi |0...0> and Pi |1...1>, normalized, with Pi = prod_g (1 + g) / 2 the code-space projector."""
    dc = 2 ** n
    basis = np.zeros((dc, 2), dtype=complex)
    basis[0, 0] = basis[dc - 1, 1] = 1.0
    if generators:
        cols, phase = pauli_action(generators)
        for c, p in zip(cols[::-1], phase[::-1]):
            basis = (basis + p[:, None] * basis[c]) / 2.0
    norms = np.linalg.norm(basis, axis=0)
    if not np.all(norms > 0.0):
        raise ValidationError("the generators annihilate |0...0> or |1...1>; no encoder from them")
    return basis / norms


def _decoder_table(generators, n: int, k_corr: int, error_class: str, encoder: np.ndarray) -> dict:
    """A minimum-weight coset leader per syndrome.

    Errors of the class are enumerated by increasing rank and the first one
    met on a syndrome becomes its leader.  Every error of rank <= k_corr must
    act on the code space as its syndrome's leader does, up to a phase (as in
    a degenerate code), or the code cannot correct it: ``ValidationError``.
    Past rank k_corr the enumeration stops once every syndrome has a leader.
    """
    table: dict[tuple[int, ...], PauliIndexVector] = {}
    full = 2 ** len(generators)
    for rank in range(n + 1):
        if rank > k_corr and len(table) == full:
            break
        errors = list(_errors_of_rank(n, rank, error_class))
        for err, bits in zip(errors, map(tuple, _syndromes(errors, generators, n).tolist())):
            leader = table.setdefault(bits, err)
            if leader != err and rank <= k_corr:
                moved, led = _apply([err, leader], encoder)
                phase = np.vdot(led[:, 0], moved[:, 0])
                if np.max(np.abs(moved - phase * led)) > tol.CHANNEL_TOL:
                    raise ValidationError(f"syndrome collision between {leader} and {err}")
    if len(table) < full:
        raise ValidationError(f"errors of class {error_class} reach only {len(table)} of {full} syndromes")
    return table


def build_stabilizer_code(name: str, n: int, generators, k_corr: int, error_class: str) -> CodeSpec:
    """One logical qubit on ``n`` qubits from its n - 1 commuting stabilizer generators.

    The encoder columns are Pi |0...0> and Pi |1...1>, normalized, with Pi the
    code-space projector; the decoder table holds a minimum-weight coset
    leader per syndrome, checked to correct every error of rank <= k_corr.
    """
    gens = tuple(_check_indices(g) for g in generators)
    encoder = _code_space_basis(gens, n)
    return CodeSpec(
        name=name,
        n=n,
        k_corr=k_corr,
        error_class=error_class,
        generators=gens,
        encoder=encoder,
        syndrome_table=_decoder_table(gens, n, k_corr, error_class, encoder),
    )


def build_identity_code() -> CodeSpec:
    """Trivial single-qubit code: no generators, one empty syndrome, no correction."""
    return build_stabilizer_code("identity", 1, (), 0, FULL_PAULI)


def build_repetition_code(n: int) -> CodeSpec:
    """Majority-vote bit-flip code on ``n`` qubits (``n`` odd, >= 3).

    The generators are the n-1 neighbour parities Z_i Z_(i+1).  Corrects up
    to (n-1)/2 amplitude errors; phase errors pass through.
    """
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ShapeError(f"repetition code needs odd n >= 3, got {n}")
    gens = [tuple(3 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n - 1)]
    return build_stabilizer_code(f"repetition-{n}", n, gens, (n - 1) // 2, AMPLITUDE_ONLY)


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
    return build_stabilizer_code("five_qubit", 5, _FIVE_QUBIT_GENERATORS, 1, FULL_PAULI)


# Scenario identifier -> (register length n, builder).  The length lets a
# scenario be checked and sized without building its code.
CODES = {
    "identity": (1, build_identity_code),
    "repetition-3": (3, lambda: build_repetition_code(3)),
    "repetition-5": (5, lambda: build_repetition_code(5)),
    "repetition-7": (7, lambda: build_repetition_code(7)),
    "five_qubit": (5, build_five_qubit_code),
}


def build_code(name: str) -> CodeSpec:
    """Look up a code by its scenario identifier."""
    try:
        return CODES[name][1]()
    except KeyError:
        raise ShapeError(f"unknown code {name!r}; known: {sorted(CODES)}") from None


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
    """Projective syndrome measurement followed by the tabulated correction.

    K_s = C_s W_s W_s^dag = encoder W_s^dag, because C_s W_s = C_s^2 encoder = encoder.
    """
    return KrausChannel(tuple(code.encoder @ b.conj().T for b in code.syndrome_blocks))


def recovery_unitary(code: CodeSpec) -> np.ndarray:
    """Unitary recovery on register (x) ancilla.

    First the syndrome is copied into a fresh all-zero ancilla, then the
    correction is applied conditioned on the ancilla.  Tracing the ancilla
    out of R (rho (x) |0...0><0...0|) R^dag reproduces ``recovery_channel``.
    """
    dc, da = code.register_dim, code.ancilla_dim
    write = np.zeros((dc * da, dc * da), dtype=complex)
    correct = np.zeros((dc * da, dc * da), dtype=complex)
    for bits, proj in code.syndrome_projectors.items():
        write += kron(proj, pauli_string(bits) if bits else np.eye(1))  # X where a bit is set: |0...0> -> |bits>
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
