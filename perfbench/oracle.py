"""Reference computations for the benchmark's output checks.

Nothing here calls decoq's numerical routines.  Codes, interactions,
propagators and recoveries are assembled from their textbook definitions and
scipy does the linear algebra, so an error in decoq and an error here would
have to coincide to go unnoticed.  The only inputs taken from decoq are the
environment couplings it draws from a seed, since those are the model's data.

Conventions shared with decoq's documented model: qubit 1 is the leftmost
tensor factor, the environment factor comes first, the logical basis is the
codespace projection of |0...0> and |1...1>, and a state (theta, phi) on the
logical sphere is cos(theta/2)|0_L> + e^{i phi} sin(theta/2)|1_L>.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def pauli_word(word: str) -> np.ndarray:
    """Tensor product of the letters I, X, Y, Z, qubit 1 leftmost."""
    out = np.eye(1, dtype=complex)
    for letter in word:
        out = np.kron(out, PAULI["IXYZ".index(letter)])
    return out


@dataclass(frozen=True)
class Code:
    """Encoder, correctable Pauli words and correction strength of one code.

    Every code used here is perfect for its error set: the images of the
    codespace under the correctable words are orthogonal and fill the
    register.  Recovery after a syndrome that points at word ``E`` is then
    ``E`` itself, and its Kraus operator is ``P E`` with ``P`` the codespace
    projector.
    """

    encoder: np.ndarray
    corrections: tuple[str, ...]
    k: int

    @property
    def n(self) -> int:
        return len(self.corrections[0])

    def kraus(self) -> list[np.ndarray]:
        p = self.encoder @ self.encoder.conj().T
        return [p @ pauli_word(w) for w in self.corrections]


def _codespace_basis(projector: np.ndarray) -> np.ndarray:
    dim = projector.shape[0]
    zero, one = projector[:, 0], projector[:, dim - 1]
    return np.stack([zero / np.linalg.norm(zero), one / np.linalg.norm(one)], axis=1)


def _words(n: int, letters: str, max_weight: int) -> tuple[str, ...]:
    out = []
    for weight in range(max_weight + 1):
        for sites in itertools.combinations(range(n), weight):
            for fill in itertools.product(letters, repeat=weight):
                word = ["I"] * n
                for site, letter in zip(sites, fill):
                    word[site] = letter
                out.append("".join(word))
    return tuple(out)


def make_code(name: str) -> Code:
    if name == "identity":
        return Code(np.eye(2, dtype=complex), ("I",), 0)
    if name == "five_qubit":
        p = np.eye(32, dtype=complex)
        for g in FIVE_QUBIT_STABILIZERS:
            p = p @ (np.eye(32) + pauli_word(g)) / 2.0
        return Code(_codespace_basis(p), _words(5, "XYZ", 1), 1)
    if name.startswith("repetition-"):
        n = int(name.split("-")[1])
        enc = np.zeros((2 ** n, 2), dtype=complex)
        enc[0, 0] = enc[-1, 1] = 1.0
        return Code(enc, _words(n, "X", (n - 1) // 2), (n - 1) // 2)
    raise ValueError(f"no reference code {name!r}")


def bloch_amplitudes(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)])


def angles(r: np.ndarray) -> tuple[float, float]:
    r = r / np.linalg.norm(r)
    return math.acos(max(-1.0, min(1.0, r[2]))), math.atan2(r[1], r[0]) % (2.0 * math.pi)


def interaction(couplings, n: int) -> np.ndarray:
    """V = sum over qubits l and axes mu of h[l][mu] (x) sigma_mu on qubit l."""
    de = couplings[0][0].shape[0]
    v = np.zeros((de * 2 ** n, de * 2 ** n), dtype=complex)
    for l, triple in enumerate(couplings):
        for mu, h in enumerate(triple, start=1):
            word = "I" * l + "XYZ"[mu - 1] + "I" * (n - l - 1)
            v += np.kron(h, pauli_word(word))
    return v


def error_bound(t: float, k: int, v_norm: float) -> float:
    """The rigorous envelope (t ||V||)^(2k+2) / ((k+1)!)^2."""
    return (t * v_norm) ** (2 * k + 2) / math.factorial(k + 1) ** 2


class ErrorAtTime:
    """E(psi) = 1 - F(psi) at one time, by expm propagation and Kraus recovery.

    ``h`` acts on environment (x) register and ``rho_env`` is the initial
    environment state.  The error is summed as the weight orthogonal to the
    encoded state, never as one minus a fidelity, so values far below
    machine epsilon keep their digits.
    """

    def __init__(self, code: Code, h: np.ndarray, rho_env: np.ndarray, t: float):
        self.code = code
        self.de = rho_env.shape[0]
        w, vecs = linalg.eigh(rho_env)
        keep = w > 1e-15
        self.weights, self.env_vecs = w[keep], vecs[:, keep]
        self.u = linalg.expm(-1j * t * h)
        self.kraus = code.kraus()

    def __call__(self, theta: float, phi: float) -> float:
        psi = self.code.encoder @ bloch_amplitudes(theta, phi)
        dc = psi.size
        total = 0.0
        for wi, e in zip(self.weights, self.env_vecs.T):
            phi_t = (self.u @ np.kron(e, psi)).reshape(self.de, dc)
            for k in self.kraus:
                after = phi_t @ k.T
                resid = after - np.outer(after @ psi.conj(), psi)
                total += wi * float(np.vdot(resid, resid).real)
        return total


# Directions for the quadratic fit: the six axes and the eight cube corners.
_FIT_DIRECTIONS = [np.array(s, dtype=float) for s in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, s)) in (1, 3)]


def _quadratic_features(r: np.ndarray) -> np.ndarray:
    x, y, z = r
    return np.array([x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z, x, y, z])


@dataclass(frozen=True)
class SphereQuadratic:
    """E(r) = r^T M r + b.r on the Bloch sphere, fitted from exact evaluations."""

    m: np.ndarray
    b: np.ndarray
    fit_residual: float  # largest |fit - evaluation| over the fit points, relative to the largest evaluation

    def __call__(self, r: np.ndarray) -> float:
        return float(r @ self.m @ r + self.b @ r)


def fit_quadratic(evaluate) -> SphereQuadratic:
    """Least-squares fit of the nine sphere coefficients from 14 evaluations.

    The constant term is absorbed into M because r.r = 1 on the sphere.
    """
    rows, values = [], []
    for d in _FIT_DIRECTIONS:
        r = d / np.linalg.norm(d)
        rows.append(_quadratic_features(r))
        values.append(evaluate(*angles(r)))
    a, y = np.array(rows), np.array(values)
    coef, *_ = linalg.lstsq(a, y)
    m = np.array(
        [[coef[0], coef[3], coef[4]], [coef[3], coef[1], coef[5]], [coef[4], coef[5], coef[2]]]
    )
    scale = max(float(np.max(np.abs(y))), 1e-300)
    return SphereQuadratic(m, coef[6:], float(np.max(np.abs(a @ coef - y))) / scale)


def sphere_maximum(q: SphereQuadratic) -> tuple[float, np.ndarray]:
    """Exact maximum of r^T M r + b.r over |r| = 1 (the trust-region subproblem).

    A maximiser solves (lambda - M) r = b/2 with lambda >= the top eigenvalue
    of M.  In the eigenbasis that is one secular equation in lambda, solved by
    bracketing; when b has no weight on the top eigenvector (the hard case)
    the remainder of the unit vector is put along that eigenvector.
    """
    scale = max(float(np.max(np.abs(q.m))), float(np.max(np.abs(q.b))), 1e-300)
    m, b = q.m / scale, q.b / scale
    evals, evecs = linalg.eigh(m)
    g = evecs.T @ b / 2.0
    top = evals[-1]

    def norm_sq(lam: float) -> float:
        return float(np.sum((g / (lam - evals)) ** 2))

    candidates = []
    gap = top - evals
    others = gap > 1e-12
    partial = g[others] / gap[others]
    on_top = float(np.linalg.norm(g[~others]))
    if on_top < 1e-9 and np.sum(partial ** 2) <= 1.0:
        coords = np.zeros(3)
        coords[others] = partial
        coords[-1] = math.sqrt(1.0 - float(np.sum(partial ** 2)))
        candidates.append(evecs @ coords)
    lo = max(top + on_top / 2.0, float(np.nextafter(top, np.inf)))
    if norm_sq(lo) > 1.0:
        # norm_sq falls from above 1 at lo to below 1 at hi
        hi = top + float(np.linalg.norm(g)) + 1.0
        lam = optimize.brentq(lambda x: norm_sq(x) - 1.0, lo, hi, xtol=1e-15, rtol=1e-15)
        candidates.append(evecs @ (g / (lam - evals)))
    best = max(candidates, key=lambda r: q(r / np.linalg.norm(r)))
    best = best / np.linalg.norm(best)
    return q(best), best


def code_error_supremum(code: Code, h: np.ndarray, rho_env: np.ndarray, t: float):
    """(exact supremum, its Bloch vector, quadratic fit residual, the evaluator) at time t."""
    evaluate = ErrorAtTime(code, h, rho_env, t)
    q = fit_quadratic(evaluate)
    value, r = sphere_maximum(q)
    return value, r, q.fit_residual, evaluate


def asymptotic_x0() -> float:
    """Half the root y in (0, 1/2) of y ln 3 + H(y) = ln 2, H the entropy in nats."""

    def gap(y: float) -> float:
        return y * math.log(3.0) - y * math.log(y) - (1 - y) * math.log(1 - y) - math.log(2.0)

    return optimize.brentq(gap, 1e-12, 0.5, xtol=1e-16, rtol=1e-15) / 2.0


def stabilization_bound(t: float, coupling: float, n: int, x0: float) -> float:
    return (t * coupling * math.e / x0) ** (2.0 * x0 * n)


def bounds_row(n: int, k: int) -> tuple[bool, bool]:
    """Quantum Hamming (packing) and covering conditions in exact integers."""
    ball = lambda r: sum(math.comb(n, j) * 3 ** j for j in range(r + 1))  # noqa: E731
    return ball(k) <= 2 ** (n - 1), 2 ** (n - 1) <= ball(2 * k)


def periodic_fidelities(code: Code, h: np.ndarray, rho_env: np.ndarray, psi_l: np.ndarray, dt: float, cycles: int, correct: bool):
    """Fidelity after each of ``cycles`` rounds of evolution for dt and (optionally) recovery."""
    de = rho_env.shape[0]
    psi = code.encoder @ psi_l
    p_psi = np.outer(psi, psi.conj())
    u = linalg.expm(-1j * dt * h)
    kraus = [np.kron(np.eye(de), k) for k in code.kraus()]
    rho = np.kron(rho_env, p_psi)
    target = np.kron(np.eye(de), p_psi)
    out = []
    for _ in range(cycles):
        rho = u @ rho @ u.conj().T
        if correct:
            rho = sum(k @ rho @ k.conj().T for k in kraus)
        out.append(float(np.trace(rho @ target).real))
    return out
