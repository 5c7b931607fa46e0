"""Error-correcting codes: stabilizer generators, decoder tables, recovery, and bounds.

A code is defined by its stabilizer generators, from which it derives an
isometric encoder for one logical qubit and a decoder table holding the Pauli
correction C_s, a minimum-weight coset leader, for each syndrome s.  Recovery
is held in one array, the readout W_s^dag per syndrome, where W_s = C_s
encoder spans syndrome space s; the recovery's Kraus operator is
K_s = C_s W_s W_s^dag = encoder W_s^dag.  The dense Kraus stack and the
unitary on register (x) ancilla that writes the syndrome into a fresh ancilla
are built from it on demand, for checks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ShapeError, ValidationError
from . import tolerances as tol
from .pauli import PauliIndexVector, _check_indices, anticommutation, pauli_action, pauli_string

AMPLITUDE_ONLY = "amplitude_only"
FULL_PAULI = "full_pauli"
_CLASS_LETTERS = {AMPLITUDE_ONLY: (1,), FULL_PAULI: (1, 2, 3)}  # the Pauli letters of each error class


def _apply(strings, x: np.ndarray) -> np.ndarray:
    """``pauli_string(v) @ x`` for each v of ``strings`` and a (2^n, m) array ``x``, stacked as (len(strings), 2^n, m)."""
    cols, phase = pauli_action(strings)
    return phase[:, :, None] * x[cols]


def _syndromes(errors, generators, n: int) -> np.ndarray:
    """(error, generator) array of syndrome bits: 1 where the error anticommutes with the generator."""
    return anticommutation(errors, np.array(generators, dtype=np.int64).reshape(len(generators), n))


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """One logical qubit protected on n register qubits by n - 1 stabilizer generators.

    ``generators`` are commuting Pauli index vectors; ``k_corr`` is the number
    of simultaneous single-qubit errors of ``error_class`` that the code
    corrects.  Everything else is derived from them: ``n`` is one more than
    the number of generators, each of which has n letters.  ``encoder`` holds
    Pi |0...0> and Pi |1...1>, normalized, with Pi the code-space projector.
    ``syndrome_table`` maps each syndrome (bit i is 1 where the error
    anticommutes with generator i) to a minimum-weight coset leader, checked
    to correct every error of rank <= k_corr.  The build then forms the
    unitary W with columns C_s |j_L> over the sorted syndromes s and j = 0, 1,
    checks W^dag W = 1 and keeps ``readout``, W^dag stacked as
    (syndrome, 2, 2^n): block s is W_s^dag = encoder^dag K_s for the recovery
    Kraus operator K_s = encoder W_s^dag.  K_s lands in the span of the
    encoder, which every generator fixes, so these blocks are the whole
    logical readout.  Equality is identity, as for any record holding arrays.
    """

    name: str
    generators: tuple[PauliIndexVector, ...]
    k_corr: int
    error_class: str
    n: int = field(init=False)
    encoder: np.ndarray = field(init=False, repr=False)
    syndrome_table: dict[tuple[int, ...], PauliIndexVector] = field(init=False, repr=False)
    readout: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple(_check_indices(g) for g in self.generators)
        n = len(gens) + 1
        if any(len(g) != n for g in gens):
            raise ShapeError(f"{len(gens)} generators fix a code on {n} qubits and need {n} letters each, "
                             f"got {sorted(set(map(len, gens)))}")
        if self.error_class not in (AMPLITUDE_ONLY, FULL_PAULI):
            raise ShapeError(f"unknown error class {self.error_class!r}")
        enc = _code_space_basis(gens, n)
        if np.max(np.abs(enc.conj().T @ enc - np.eye(2))) > tol.HERMITIAN_TOL:
            raise ValidationError("encoder columns are not orthonormal")
        if gens:
            defects = np.max(np.abs(_apply(gens, enc) - enc), axis=(1, 2))
            worst = int(np.argmax(defects))
            if defects[worst] > tol.CHANNEL_TOL:
                raise ValidationError(f"generator {gens[worst]} does not fix the encoder, defect {defects[worst]:.3e}")
        table = _decoder_table(gens, n, self.k_corr, self.error_class, enc)
        dc = 2 ** n
        w = _apply([table[bits] for bits in sorted(table)], enc).transpose(1, 0, 2).reshape(dc, dc)
        defect = float(np.max(np.abs(w.conj().T @ w - np.eye(dc))))
        if defect > tol.CHANNEL_TOL:
            raise ValidationError(f"syndrome spaces are not orthonormal, ||W^dag W - 1||_max = {defect:.3e}")
        readout = np.ascontiguousarray(w.conj().T).reshape(-1, 2, dc)
        for name, value in (("n", n), ("generators", gens), ("encoder", enc), ("syndrome_table", table), ("readout", readout)):
            object.__setattr__(self, name, value)

    @property
    def register_dim(self) -> int:
        return 2 ** self.n

    @property
    def ancilla_dim(self) -> int:
        return 2 ** len(self.generators)

    @property
    def syndromes(self) -> tuple[tuple[int, ...], ...]:
        """Syndromes in the block order of ``readout``."""
        return tuple(sorted(self.syndrome_table))


def _unit_pair(psi_logical) -> tuple[complex, complex, float]:
    """alpha, beta and |alpha|^2 + |beta|^2 of a logical state ``(alpha, beta)``, whose norm must be 1."""
    try:
        alpha, beta = psi_logical
    except (TypeError, ValueError):
        raise ShapeError("logical state must be a pair (alpha, beta)") from None
    alpha, beta = complex(alpha), complex(beta)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > tol.LOGICAL_NORM_TOL:
        raise ValidationError(f"|alpha|^2 + |beta|^2 = {norm_sq!r} deviates from 1")
    return alpha, beta, norm_sq


def encode_logical(code: CodeSpec, psi_logical) -> np.ndarray:
    """Amplitudes of the encoded register state alpha |0_L> + beta |1_L> for ``psi_logical = (alpha, beta)``, normalized."""
    alpha, beta, _ = _unit_pair(psi_logical)
    amps = code.encoder @ np.array([alpha, beta], dtype=complex)
    return amps / np.linalg.norm(amps)


def _errors_of_rank(n: int, rank: int, error_class: str) -> Iterator[PauliIndexVector]:
    """Pauli index vectors of the error class with exactly ``rank`` non-identity letters."""
    letters = _CLASS_LETTERS[error_class]
    for positions in itertools.combinations(range(n), rank):
        for word in itertools.product(letters, repeat=rank):
            v = [0] * n
            for pos, mu in zip(positions, word):
                v[pos] = mu
            yield tuple(v)


def covered_errors(code: CodeSpec) -> Iterator[PauliIndexVector]:
    """All Pauli index vectors of the covered class with rank <= k_corr, identity included, in lexicographic order."""
    return iter(sorted(v for r in range(code.k_corr + 1) for v in _errors_of_rank(code.n, r, code.error_class)))


def interaction_order(code: CodeSpec, strings) -> int:
    """The order q of an interaction with Pauli ``strings``: every product of j <= q of its terms is corrected.

    A product of j strings of weight <= w has weight <= j w, and each class's
    letters (x alone, or all three) are closed under products: so q = k_corr // w
    if every letter lies in the code's class, and 0 otherwise."""
    if not strings:
        raise ShapeError("an interaction needs at least one Pauli string")
    letters = {mu for string in strings for mu in string} - {0}
    if not letters <= set(_CLASS_LETTERS[code.error_class]):
        return 0
    return code.k_corr // max(sum(mu != 0 for mu in string) for string in strings)


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


# Stabilizer generators of the five-qubit code, as Pauli index vectors
# (0 = identity, 1 = x, 2 = y, 3 = z).
_FIVE_QUBIT_GENERATORS = (
    (1, 3, 3, 1, 0),
    (0, 1, 3, 3, 1),
    (1, 0, 1, 3, 3),
    (3, 1, 0, 1, 3),
)

# Rows of the parity-check matrix of the Hamming [7,4] code, qubit 1 first.
_HAMMING_ROWS = ((0, 0, 0, 1, 1, 1, 1), (0, 1, 1, 0, 0, 1, 1), (1, 0, 1, 0, 1, 0, 1))


# Scenario identifier -> (generators, k_corr, error_class): the inputs ``CodeSpec`` derives the code from.
CODES = {
    "identity": ((), 0, FULL_PAULI),  # no generators, one qubit, one empty syndrome, no correction
    # majority vote: the neighbour parities Z_i Z_(i+1) correct (n-1)/2 amplitude errors; phase errors pass
    **{
        f"repetition-{n}": (tuple(tuple(3 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n - 1)), (n - 1) // 2, AMPLITUDE_ONLY)
        for n in (3, 5, 7, 9)
    },
    # perfect: the 16 syndrome spaces, the code space and one per single-qubit Pauli, fill the register
    "five_qubit": (_FIVE_QUBIT_GENERATORS, 1, FULL_PAULI),
    # Steane [[7,1,3]]: one X check and one Z check per Hamming [7,4] parity row
    "steane": (tuple(tuple(letter * bit for bit in row) for letter in (1, 3) for row in _HAMMING_ROWS), 1, FULL_PAULI),
    # Shor [[9,1,3]]: Z_i Z_(i+1) within each block of three, X on qubits 1-6 and 4-9.  Degenerate (Z errors in
    # one block share a syndrome and act alike); the encoder columns are the textbook |+_L> and |-_L>.
    "shor": (tuple(tuple(3 if q in pair else 0 for q in range(1, 10)) for pair in ((1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)))
             + tuple(tuple(1 if lo <= q <= lo + 5 else 0 for q in range(1, 10)) for lo in (1, 4)), 1, FULL_PAULI),
}


def build_code(name: str) -> CodeSpec:
    """Build the code registered under a scenario identifier."""
    if name not in CODES:
        raise ShapeError(f"unknown code {name!r}; known: {sorted(CODES)}")
    return CodeSpec(name, *CODES[name])


def recovery_channel(code: CodeSpec) -> np.ndarray:
    """Kraus operators of projective syndrome measurement followed by the tabulated correction, as (syndrome, 2^n, 2^n).

    K_s = C_s W_s W_s^dag = encoder W_s^dag, because C_s W_s = C_s^2 encoder = encoder.
    """
    return code.encoder @ code.readout


def recovery_unitary(code: CodeSpec) -> np.ndarray:
    """Unitary recovery on register (x) ancilla.

    First the syndrome is copied into a fresh all-zero ancilla, then the
    correction is applied conditioned on the ancilla.  Tracing the ancilla
    out of R (rho (x) |0...0><0...0|) R^dag reproduces ``recovery_channel``.
    """
    dc, da = code.register_dim, code.ancilla_dim
    write = np.zeros((dc * da, dc * da), dtype=complex)
    correct = np.zeros((dc * da, dc * da), dtype=complex)
    for bits, block in zip(code.syndromes, code.readout):
        proj = block.conj().T @ block  # W_s W_s^dag, the projector onto syndrome space s
        write += np.kron(proj, pauli_string(bits) if bits else np.eye(1, dtype=complex))  # X where a bit is set: |0...0> -> |bits>
        idx = int("".join(str(b) for b in bits), 2) if bits else 0
        marker = np.zeros((da, da), dtype=complex)
        marker[idx, idx] = 1.0
        correct += np.kron(pauli_string(code.syndrome_table[bits]), marker)
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
    n, k = operator.index(n), operator.index(k)
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
    k = operator.index(k)
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
