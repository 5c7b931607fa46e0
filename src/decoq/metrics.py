"""Correction-efficiency metrics.

The figure of merit is the weight an encoded logical state loses when it is
evolved jointly with its environment and then run through syndrome recovery:

    E_psi(t) = sum_s tr[ (1 - P_psi) K_s U(t) (rho_env (x) P_psi) U(t)^dag K_s^dag ],

with K_s the Kraus operators of the recovery channel.  Every K_s maps into the
code space, so each propagated start vector |e_i> (x) |j_L> reads out as one
2 x 2 logical block A per syndrome and environment component.  Writing
A = a_0 + a.sigma, only the traceless part survives the complement projector,
and with the 3 x 3 Hermitian C = sum a a^dag the error on the Bloch sphere is

    E(r) = tr C - r^T (Re C) r + w.r,    w = 2 (Im C_yz, Im C_zx, Im C_xy).

Nothing is subtracted from one, so errors far below machine epsilon of one
keep their digits, and the supremum over |r| = 1 is found exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ShapeError, UnsupportedInteractionError, ValidationError
from . import tolerances as tol
from .tensor import _as_complex, require_hermitian
from .pauli import embed
from .dynamics import EnvironmentModel, FreeHamiltonian, InteractionSpec
from .codes import CodeSpec, asymptotic_x0, encode_logical


@dataclass(frozen=True)
class FidelityCurve:
    """Time-ordered (t, value) samples with values in [0, 1]."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(t), float(v)) for t, v in self.samples)
        object.__setattr__(self, "samples", pairs)
        times = [t for t, _ in pairs]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("curve times must increase strictly")
        for t, v in pairs:
            if v < -tol.FIDELITY_RANGE_TOL or v > 1.0 + tol.FIDELITY_RANGE_TOL:
                raise ValidationError(f"curve value {v!r} at t={t!r} outside [0, 1]")


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (log t, log E) over the chosen window."""

    exponent: float
    log_coefficient: float
    window: tuple[float, float]
    max_residual: float

    @property
    def coefficient(self) -> float:
        return math.exp(self.log_coefficient)


@dataclass(frozen=True)
class CodeErrorResult:
    """Supremum of the error functional over the logical sphere, with its location."""

    value: float
    theta: float
    phi: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class DecayResult:
    """Fitted fidelity decay rate and the per-cycle trace behind it."""

    rate: float
    samples: tuple[tuple[int, float, float], ...]


def _logical_amplitudes(psi_logical) -> tuple[complex, complex]:
    try:
        alpha, beta = psi_logical
    except (TypeError, ValueError):
        raise ShapeError("logical state must be a pair (alpha, beta)") from None
    return complex(alpha), complex(beta)


def _bloch_pair(theta: float, phi: float) -> tuple[complex, complex]:
    return (
        complex(math.cos(theta / 2.0)),
        complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0),
    )


def _bloch_vector(psi_logical) -> np.ndarray:
    """Bloch vector of alpha |0_L> + beta |1_L>, after the same norm gate as ``encode_logical``."""
    alpha, beta = _logical_amplitudes(psi_logical)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > tol.LOGICAL_NORM_TOL:
        raise ValidationError(f"|alpha|^2 + |beta|^2 = {norm_sq!r} deviates from 1")
    cross = alpha.conjugate() * beta
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(alpha) ** 2 - abs(beta) ** 2]) / norm_sq


def _start_vectors(code: CodeSpec, env: EnvironmentModel) -> np.ndarray:
    """Columns sqrt(w_i) |e_i> (x) |j_L> over the environment eigenvectors with w_i > 0."""
    w, vecs = np.linalg.eigh(env.rho0.array)
    keep = w > 1e-15
    env_part = vecs[:, keep] * np.sqrt(w[keep])
    cols = np.einsum("ei,cj->ecij", env_part, code.encoder)
    return cols.reshape(env.dim * code.register_dim, -1)


def _logical_readout(code: CodeSpec) -> np.ndarray:
    """encoder^dag K_s = W_s^dag per syndrome s, stacked as (syndrome, 2, 2^n): W^dag reshaped.

    K_s = encoder W_s^dag lands in the span of the encoder, which every
    generator fixes (``CodeSpec`` checks it), so these blocks are the whole readout."""
    w = code.syndrome_basis
    return np.ascontiguousarray(w.conj().T).reshape(-1, 2, code.register_dim)


def _pauli_covariance(readout: np.ndarray, vecs: np.ndarray, env_dim: int) -> np.ndarray:
    """C = sum a a^dag over the traceless Pauli parts a of the logical blocks of ``vecs``."""
    sheets = vecs.reshape(env_dim, readout.shape[2], -1, 2)
    blocks = np.einsum("sac,ecij->seiaj", readout, sheets).reshape(-1, 2, 2)
    a00, a01, a10, a11 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    a = np.stack([(a01 + a10) / 2.0, 1j * (a01 - a10) / 2.0, (a00 - a11) / 2.0])
    return a @ a.conj().T


def _twist(c: np.ndarray) -> np.ndarray:
    """Linear coefficient w of the sphere quadratic, from the antisymmetric part of C."""
    return 2.0 * np.array([c[1, 2].imag, c[2, 0].imag, c[0, 1].imag])


def _sphere_error(c: np.ndarray, r: np.ndarray) -> float:
    """E(r) = tr C - r^T (Re C) r + w.r."""
    m = c.real
    return float(np.trace(m) - r @ m @ r + _twist(c) @ r)


def _checked_error(e: float) -> float:
    if e < -tol.FIDELITY_RANGE_TOL or e > 1.0 + tol.FIDELITY_RANGE_TOL:
        raise ValidationError(f"error value {e!r} outside [0, 1]")
    return min(max(e, 0.0), 1.0)


def _sphere_argmax(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit vector r maximising w.r - r^T m r for a real symmetric 3 x 3 ``m``.

    The maximiser solves (m + lam) r = w / 2 with m + lam >= 0.  In the
    eigenbasis of m, with gaps d_i = m_i - m_0 and s = lam + m_0, |r| = 1 is
    a secular equation falling in s, bisected to float resolution between
    max(|g_i| - d_i) and |g|.  The hard case s = 0 completes the unit norm
    along the bottom eigenvector; the better of the two candidates is returned.
    """
    evals, evecs = np.linalg.eigh(m)
    g = [float(x) for x in evecs.T @ w / 2.0]
    gaps = [float(x - evals[0]) for x in evals]

    def norm_sq(s: float) -> float:
        return sum((gi / (d + s)) ** 2 for gi, d in zip(g, gaps))  # each term <= 1 for s >= lo

    candidates = []
    hi = math.sqrt(sum(gi * gi for gi in g))
    if hi > 0.0:
        lo = max(0.0, max(abs(gi) - d for gi, d in zip(g, gaps)))
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if norm_sq(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        candidates.append(np.array([gi / (d + hi) for gi, d in zip(g, gaps)]))
    hard = np.array([gi / d if d > 0.0 else 0.0 for gi, d in zip(g, gaps)])
    spare = 1.0 - float(hard @ hard)
    if spare >= 0.0:
        hard[0] = math.copysign(math.sqrt(spare), g[0])
        candidates.append(hard)

    def score(coords: np.ndarray) -> float:
        r = evecs @ coords / np.linalg.norm(coords)
        return float(w @ r - r @ m @ r)

    best = max(candidates, key=score)
    r = evecs @ best
    return r / np.linalg.norm(r)


def _state_error(c: np.ndarray, psi_logical) -> float:
    """Error of one encoded state: the sphere quadratic of C at its Bloch vector."""
    return _checked_error(_sphere_error(c, _bloch_vector(psi_logical)))


def _sphere_supremum(c: np.ndarray) -> CodeErrorResult:
    """Exact maximum over the logical Bloch sphere of the error with covariance C, with its angles."""
    scale = float(np.trace(c).real)
    if scale == 0.0:  # C = 0: no error anywhere, reported at the pole
        return CodeErrorResult(value=0.0, theta=0.0, phi=0.0)
    r = _sphere_argmax(c.real / scale, _twist(c) / scale)
    theta = math.acos(min(max(float(r[2]), -1.0), 1.0))
    phi = math.atan2(float(r[1]), float(r[0])) % (2.0 * math.pi)
    return CodeErrorResult(value=_checked_error(_sphere_error(c, r)), theta=theta, phi=phi)


TAYLOR_MIN_DIM = 256  # joint dimension from which a short time grid skips the eigendecomposition
TAYLOR_MAX_TERMS = 30  # with t ||H - mu||_1 <= 1 the series stops by P_20; the cap guards other callers


def _taylor_terms(shifted: np.ndarray, x: np.ndarray, tau: float) -> list[np.ndarray]:
    """P_j = (tau^j / j!) A^j x for A = ``shifted``, until two consecutive terms are at most 2^-53 ||x||_1.

    With tau ||A||_1 <= 1 each ||P_j||_1 <= ||x||_1 / j!, so the loop stops by j = 20;
    past TAYLOR_MAX_TERMS terms it raises ``ValidationError``.
    """
    terms = [x]
    limit = 2.0 ** -53 * np.linalg.norm(x, 1)
    small = 0
    while small < 2:
        if len(terms) == TAYLOR_MAX_TERMS:
            raise ValidationError(f"Taylor series of exp(-iHt) did not converge in {TAYLOR_MAX_TERMS} terms")
        terms.append((tau / len(terms)) * (shifted @ terms[-1]))
        small = small + 1 if np.linalg.norm(terms[-1], 1) <= limit else 0
    return terms


def _taylor_sum(terms: list[np.ndarray], t: float, tau: float, mu: float) -> np.ndarray:
    """exp(-i mu t) sum_j (-i t / tau)^j P_j, by Horner's rule: exp(-iHt) x for H = A + mu."""
    step = -1j * t / tau if tau > 0.0 else 0.0
    acc = terms[-1]
    for p in reversed(terms[:-1]):
        acc = p + step * acc
    return cmath.exp(-1j * mu * t) * acc


class _CorrectionPipeline:
    """E(t) for one code, environment and Hamiltonian; built once, queried per time grid.

    Holds the joint Hamiltonian H, the start vectors |e_i> (x) |j_L> (weighted
    by the environment eigenvalues) and the logical readout of the recovery
    channel.  ``covariances`` propagates only those 2 m vectors to each t and
    reduces them to the 3 x 3 Pauli covariance C of the module docstring,
    from which ``_sphere_supremum`` and ``_state_error`` read E; ``supremum``
    and ``error_direct`` do both for a single t.  ``decay`` runs periodic
    recovery on the eigendecomposition of H, which is computed on first use
    and at most once.  ``readout`` may be passed in to share it between
    pipelines on the same code.
    """

    def __init__(
        self,
        code: CodeSpec,
        env: EnvironmentModel,
        h0: FreeHamiltonian | None,
        v: np.ndarray,
        readout: np.ndarray | None = None,
    ):
        self.env_dim = env.dim
        v = _as_complex(v)
        d = env.dim * code.register_dim
        if v.shape != (d, d):
            raise ShapeError(f"interaction shape {v.shape} does not match env {env.dim} x register {code.register_dim}")
        h = v if h0 is None else h0.matrix() + v
        if h.shape != (d, d):
            raise ShapeError("free Hamiltonian dimensions do not match the interaction")
        self.h = require_hermitian(h, tol.HERMITIAN_INPUT_TOL, "joint Hamiltonian")
        self.start = _start_vectors(code, env)
        self.readout = _logical_readout(code) if readout is None else readout
        self.code, self.rho0 = code, env.rho0.array
        self._eigen = None

    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of H and the start vectors in that basis; one ``eigh``, on first use."""
        if self._eigen is None:
            evals, evecs = np.linalg.eigh(self.h)
            self._eigen = evals, evecs, evecs.conj().T @ self.start
        return self._eigen

    def propagate(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        """U(t) x for the columns x whose eigenbasis coefficients evecs^dag x are ``coeffs``."""
        evals, evecs, _ = self.eigenbasis()
        phases = np.exp(-1j * evals * float(t))
        return evecs @ (phases[:, None] * coeffs)

    def covariances(self, times) -> list[np.ndarray]:
        """C at each t of ``times``; the one place that chooses how exp(-iHt) is applied.

        From d = TAYLOR_MIN_DIM on, and when tau ||H - mu||_1 <= 1 for tau = max |t|
        and mu = tr H / d, the start vectors are propagated by one Taylor power
        basis shared by every t (about a dozen products with H); otherwise by
        the eigendecomposition.
        """
        times = [float(t) for t in times]
        if not all(math.isfinite(t) for t in times):
            raise ShapeError(f"propagation times must be finite, got {times}")
        d = len(self.h)
        tau = max((abs(t) for t in times), default=0.0)
        if d >= TAYLOR_MIN_DIM:
            mu = float(np.trace(self.h).real) / d
            shifted = self.h - mu * np.eye(d)
            if tau * float(np.abs(shifted).sum(axis=0).max()) <= 1.0:
                terms = _taylor_terms(shifted, self.start, tau)
                vecs = [_taylor_sum(terms, t, tau, mu) for t in times]
                return [_pauli_covariance(self.readout, x, self.env_dim) for x in vecs]
        start = self.eigenbasis()[2]
        return [_pauli_covariance(self.readout, self.propagate(t, start), self.env_dim) for t in times]

    def error_direct(self, psi_logical, t: float) -> float:
        """Error of one encoded state at time t."""
        return _state_error(self.covariances([t])[0], psi_logical)

    def supremum(self, t: float) -> CodeErrorResult:
        """Exact maximum of the error over the logical Bloch sphere at time t, with its angles."""
        return _sphere_supremum(self.covariances([t])[0])

    def decay(self, dt: float, cycles: int, psi_logical, apply_correction: bool = True) -> DecayResult:
        """Fidelity under stroboscopic recovery every ``dt``; the rate is minus the slope of log F in t.

        Each recovery consumes a fresh ancilla and ends in the code space, so the
        corrected state is held exactly on environment (x) logical qubit, where a
        cycle applies M_s = encoder^dag K_s U(dt) (1 (x) encoder); the environment is
        kept.  Uncorrected, the encoded start vectors are propagated to each m dt.
        """
        if int(cycles) < 10:
            raise ShapeError("need at least 10 cycles for a stable rate")
        if not 0.0 < float(dt) < math.inf:
            raise ShapeError("cycle time must be positive and finite")
        psi_bar = encode_logical(self.code, *_logical_amplitudes(psi_logical)).amplitudes
        psi_l = self.code.encoder.conj().T @ psi_bar
        de, dc = self.env_dim, self.code.register_dim
        evals, evecs, start = self.eigenbasis()

        if apply_correction:
            lifted = evecs.conj().T @ np.kron(np.eye(de), self.code.encoder)
            moved = self.propagate(float(dt), lifted).reshape(de, dc, 2 * de)
            kraus = np.einsum("sac,ecx->seax", self.readout, moved).reshape(-1, 2 * de, 2 * de)
            rho = np.kron(self.rho0, np.outer(psi_l, psi_l.conj()))
        else:
            start = start.reshape(len(evals), -1, 2) @ psi_l

        samples = [(0, 0.0, 1.0)]
        for m in range(1, int(cycles) + 1):
            if apply_correction:
                rho = (kraus @ rho @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)
                f = np.einsum("eiej,i,j->", rho.reshape(de, 2, de, 2), psi_l.conj(), psi_l).real
            else:
                kept = psi_bar.conj() @ self.propagate(m * float(dt), start).reshape(de, dc, -1)
                f = np.vdot(kept, kept).real
            samples.append((m, m * float(dt), float(f)))

        ts, fs = zip(*((t, f) for _, t, f in samples if f > 0.0))  # never empty: F = 1 at t = 0
        if len(ts) < 2:
            raise FitError("fidelity collapsed to zero; shorten dt or the cycle count")
        slope, _ = np.polyfit(ts, np.log(fs), 1)
        return DecayResult(rate=-float(slope), samples=tuple(samples))


def code_error(code: CodeSpec, env: EnvironmentModel, h0: FreeHamiltonian | None, v: np.ndarray, t: float) -> CodeErrorResult:
    """Supremum of the error over the encoded logical sphere, exact up to rounding."""
    return _CorrectionPipeline(code, env, h0, v).supremum(t)


def fit_power_law(
    curve,
    residual_threshold: float = tol.FIT_RESIDUAL_DEFAULT,
    floor: float = tol.FIT_FLOOR,
    min_samples: int = tol.FIT_MIN_SAMPLES,
) -> PowerLawFit:
    """Fit E ~ c * t^m on the largest clean low-t window.

    Samples at or below ``floor`` are discarded.  Windows are anchored at the
    smallest usable time and grown as far as the max absolute residual of the
    straight-line fit in log-log stays within ``residual_threshold``; if no
    window anchored there qualifies, the anchor moves up.  Raises ``FitError``
    with a actionable message when the data cannot support a fit.
    """
    pairs = curve.samples if isinstance(curve, FidelityCurve) else tuple(curve)
    usable = [(float(t), float(e)) for t, e in pairs if float(e) > floor and float(t) > 0.0]
    if len(usable) < min_samples:
        raise FitError(
            f"only {len(usable)} samples above the floor {floor:g}, need {min_samples}; "
            "extend the sweep toward larger times where the error is resolvable"
        )
    log_t = np.log([t for t, _ in usable])
    log_e = np.log([e for _, e in usable])
    for start in range(0, len(usable) - min_samples + 1):
        for end in range(len(usable), start + min_samples - 1, -1):
            x, y = log_t[start:end], log_e[start:end]
            slope, intercept = np.polyfit(x, y, 1)
            residual = float(np.max(np.abs(y - (slope * x + intercept))))
            if residual <= residual_threshold:
                return PowerLawFit(
                    exponent=float(slope),
                    log_coefficient=float(intercept),
                    window=(usable[start][0], usable[end - 1][0]),
                    max_residual=residual,
                )
    raise FitError(
        f"no window of {min_samples}+ samples fits a line within residual "
        f"{residual_threshold:g}; sample deeper into the small-t regime"
    )


def leading_coefficient(code: CodeSpec, env: EnvironmentModel, interaction: InteractionSpec, psi_logical, k: int) -> float:
    """Coefficient of t^(2k+2) in the short-time error of a k-correcting code.

    Only chains of k+1 interaction factors on pairwise distinct qubits
    survive recovery and the complement projector, so the coefficient is

        sum_s || (1 - P_psi) K_s W (|env_i> (x) |psi_bar>) ||^2 / ((k+1)!)^2

    summed over the environment eigenvectors, with W the sum of ordered
    products V^{l_1} ... V^{l_{k+1}} over distinct index tuples.  W is applied
    to the same start vectors as the time evolution and reduced by the same
    sphere quadratic.  Defined for non-contact interactions only.
    """
    if interaction.kind != "non_contact":
        raise UnsupportedInteractionError("the short-time coefficient requires a non-contact interaction")
    k = int(k)
    if k != code.k_corr:
        raise ShapeError(f"k = {k} does not match the code's correction strength {code.k_corr}")
    if env.n_qubits != code.n:
        raise ShapeError(f"environment couples {env.n_qubits} qubits, code uses {code.n}")

    de, dc = env.dim, code.register_dim
    n = code.n
    per_qubit = []
    for l in range(1, n + 1):
        v_l = np.zeros((de * dc, de * dc), dtype=complex)
        for mu in (1, 2, 3):
            h = env.couplings[l - 1][mu - 1]
            if np.any(h):
                v_l += np.kron(h, embed(mu, l, n))
        per_qubit.append(v_l)

    w_total = np.zeros((de * dc, de * dc), dtype=complex)
    for tup in itertools.permutations(range(n), k + 1):
        prod = per_qubit[tup[0]]
        for idx in tup[1:]:
            prod = prod @ per_qubit[idx]
        w_total += prod

    c = _pauli_covariance(_logical_readout(code), w_total @ _start_vectors(code, env), de)
    return _sphere_error(c, _bloch_vector(psi_logical)) / math.factorial(k + 1) ** 2


def error_bound(t: float, k: int, v_norm: float) -> float:
    """Rigorous error envelope t^(2k+2) ||V||^(2k+2) / ((k+1)!)^2."""
    t, v_norm, k = float(t), float(v_norm), int(k)
    if t < 0 or v_norm < 0 or k < 0:
        raise ShapeError("need t >= 0, ||V|| >= 0, k >= 0")
    return (t * v_norm) ** (2 * k + 2) / math.factorial(k + 1) ** 2


def stabilization_bound(t: float, coupling_bound: float, n: int, x0: float | None = None) -> float:
    """Asymptotic envelope (t C e / x0)^(2 x0 n) for a length-n code at the rate edge."""
    t, c = float(t), float(coupling_bound)
    n = int(n)
    if t < 0 or c <= 0 or n < 1:
        raise ShapeError("need t >= 0, coupling bound > 0, n >= 1")
    x0 = asymptotic_x0() if x0 is None else float(x0)
    return (t * c * math.e / x0) ** (2.0 * x0 * n)


def threshold_time(coupling_bound: float, x0: float | None = None) -> float:
    """Time below which the stabilization envelope shrinks with code length."""
    c = float(coupling_bound)
    if c <= 0:
        raise ShapeError("coupling bound must be positive")
    x0 = asymptotic_x0() if x0 is None else float(x0)
    return x0 / (c * math.e)


def periodic_correction_decay(
    code: CodeSpec,
    env: EnvironmentModel,
    h0: FreeHamiltonian | None,
    v: np.ndarray,
    dt: float,
    cycles: int,
    psi_logical,
    apply_correction: bool = True,
) -> DecayResult:
    """Fidelity trace and decay rate under recovery every ``dt``; see ``_CorrectionPipeline.decay``."""
    return _CorrectionPipeline(code, env, h0, v).decay(dt, cycles, psi_logical, apply_correction)
