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
keep their digits, and the maximum over |r| = 1 is found exactly.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ShapeError, ValidationError
from . import tolerances as tol
from .tensor import _as_complex, require_hermitian
from .dynamics import EnvironmentModel, build_noncontact
from .codes import CodeSpec, _unit_pair, asymptotic_x0, encode_logical, interaction_order


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
    """Supremum of the error functional over the logical sphere, at theta in [0, pi] and phi in [0, 2 pi)."""

    value: float
    theta: float
    phi: float


@dataclass(frozen=True)
class DecayResult:
    """Fitted fidelity decay rate and the per-cycle trace behind it."""

    rate: float
    samples: tuple[tuple[int, float, float], ...]

    @property
    def rate_floor(self) -> float:
        """cycles * eps / dt, read off the trace: a rate whose size is not above it may be rounding alone.

        F picks up a relative rounding error of a few eps per cycle, and the
        rate is the slope of log F per cycle divided by dt; the cycle count
        stands in for the few.
        """
        cycles, dt = len(self.samples) - 1, self.samples[1][1]
        return cycles * sys.float_info.epsilon / dt


def _bloch_pair(theta: float, phi: float) -> tuple[complex, complex]:
    return (
        complex(math.cos(theta / 2.0)),
        complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0),
    )


def _bloch_vector(psi_logical) -> np.ndarray:
    """Bloch vector of alpha |0_L> + beta |1_L>, after the same norm gate as ``encode_logical``."""
    alpha, beta, norm_sq = _unit_pair(psi_logical)
    cross = alpha.conjugate() * beta
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(alpha) ** 2 - abs(beta) ** 2]) / norm_sq


def _start_vectors(code: CodeSpec, env: EnvironmentModel) -> np.ndarray:
    """Columns sqrt(w_i) |e_i> (x) |j_L> over the environment eigenvectors with w_i > 0."""
    w, vecs = np.linalg.eigh(env.rho0.array)
    keep = w > 1e-15
    env_part = vecs[:, keep] * np.sqrt(w[keep])
    cols = np.einsum("ei,cj->ecij", env_part, code.encoder)
    return cols.reshape(env.dim * code.register_dim, -1)


def _read_out(readout: np.ndarray, vecs: np.ndarray, env_dim: int) -> np.ndarray:
    """encoder^dag K_s applied to the register part of every column of ``vecs``, as one matrix product.

    ``vecs`` is (d_e 2^n, ...) with the environment index first; it is copied
    register index first, as (2^n, d_e ...), so that the readout, as a
    (2 S, 2^n) matrix over the S syndromes, takes one BLAS product with it.
    The result is (S, 2, d_e, ...)."""
    n_s, _, dc = readout.shape
    columns = vecs.reshape(env_dim, dc, -1).transpose(1, 0, 2).reshape(dc, -1)
    return (readout.reshape(2 * n_s, dc) @ columns).reshape(n_s, 2, env_dim, *vecs.shape[1:])


def _pauli_covariance(readout: np.ndarray, vecs: np.ndarray, env_dim: int) -> np.ndarray:
    """C = sum a a^dag over the traceless Pauli parts a of the logical blocks, per time.

    ``vecs`` is (d, T, 2 m): the 2 m propagated start vectors at each of T times.
    All T readouts go through one matrix product; the result is the (T, 3, 3) stack of C.
    """
    _, n_t, cols = vecs.shape
    logical = _read_out(readout, vecs.reshape(len(vecs), n_t, cols // 2, 2), env_dim)  # (s, a, e, t, i, j)
    blocks = logical.transpose(3, 0, 2, 4, 1, 5).reshape(n_t, len(readout) * env_dim * cols // 2, 2, 2)
    a00, a01, a10, a11 = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]
    a = np.stack([(a01 + a10) / 2.0, 1j * (a01 - a10) / 2.0, (a00 - a11) / 2.0], axis=1)
    return a @ a.conj().transpose(0, 2, 1)


def _twist(cs: np.ndarray) -> np.ndarray:
    """Linear coefficient w of the sphere quadratic, from the antisymmetric part of each C."""
    return 2.0 * np.stack([cs[..., 1, 2].imag, cs[..., 2, 0].imag, cs[..., 0, 1].imag], axis=-1)


def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis of length 3, summed left to right so that every row rounds alike."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _sphere_error(cs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """E(r) = tr C - r^T (Re C) r + w.r for a stack of C (..., 3, 3) and Bloch vectors r (..., 3)."""
    m = cs.real
    trace = m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]
    return trace - _dot3(r, _dot3(m, r[..., None, :])) + _dot3(_twist(cs), r)


def _checked_errors(e: np.ndarray) -> np.ndarray:
    bad = ~((e >= -tol.FIDELITY_RANGE_TOL) & (e <= 1.0 + tol.FIDELITY_RANGE_TOL))  # NaN is bad too
    if bad.any():
        raise ValidationError(f"error value {float(e[bad][0])!r} outside [0, 1]")
    return np.clip(e, 0.0, 1.0)


def _state_error(cs: np.ndarray, psi_logical) -> np.ndarray:
    """Error of one encoded state at every C of a (T, 3, 3) stack: the sphere quadratic at its Bloch vector."""
    return _checked_errors(_sphere_error(cs, _bloch_vector(psi_logical)))


ARGMAX_TIE_ULPS = 4  # rounding ties: E this many ulps below the other's, or a twist |g| this many eps from 0


def _sphere_suprema(cs: np.ndarray) -> list[CodeErrorResult]:
    """Exact maximum over the logical Bloch sphere of the error for each C of a (T, 3, 3) stack, with its angles.

    Per row, with m = Re C / tr C and w the twist / tr C, the maximiser r of
    w.r - r^T m r solves (m + lam) r = w / 2 with m + lam >= 0.  In the
    eigenbasis of m, with g = evecs^T w / 2, gaps d_i = m_i - m_0 and
    s = lam + m_0, |r| = 1 is a secular equation falling in s, bisected on
    plain floats to float resolution between max(|g_i| - d_i) and |g|.  The
    hard case s = 0 completes the unit norm along the bottom eigenvector; of
    the two candidates the one with the larger E is kept, and the hard case
    also when it scores at most ARGMAX_TIE_ULPS ulps lower: both are then
    maximisers to rounding, and the printed angles should not hang on their
    last bits.  Likewise a twist |g| <= ARGMAX_TIE_ULPS eps is rounding alone:
    E is then even, and of r and -r the one with z >= 0 (on the equator
    y >= 0, then x >= 0) is scored and reported.  Everything but the
    bisection runs once for the whole stack.  A zero C has no error anywhere
    and is reported at the pole.
    """
    trace = cs[:, 0, 0].real + cs[:, 1, 1].real + cs[:, 2, 2].real
    zero = trace == 0.0
    scale = np.where(zero, 1.0, trace)[:, None]
    evals, evecs = np.linalg.eigh(cs.real / scale[..., None])
    g = _dot3(evecs.transpose(0, 2, 1), (_twist(cs) / scale)[:, None, :]) / 2.0
    gaps = evals - evals[:, :1]
    los, his = np.maximum(0.0, (np.abs(g) - gaps).max(axis=1)), np.sqrt(_dot3(g, g))
    roots = []
    for (g0, g1, g2), (d0, d1, d2), lo, hi in zip(g.tolist(), gaps.tolist(), los.tolist(), his.tolist()):
        while True:  # hi = 0 (g = 0) stops at once and leaves only the hard case
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            q0, q1, q2 = g0 / (d0 + mid), g1 / (d1 + mid), g2 / (d2 + mid)  # each |q_i| <= 1 for mid >= lo
            if q0 * q0 + q1 * q1 + q2 * q2 > 1.0:
                lo = mid
            else:
                hi = mid
        roots.append(hi)
    s = np.array(roots)[:, None]

    hard = np.divide(g, gaps, out=np.zeros_like(g), where=gaps > 0.0)
    spare = 1.0 - _dot3(hard, hard)
    hard[:, 0] = np.copysign(np.sqrt(np.maximum(spare, 0.0)), g[:, 0])
    inner = np.divide(g, gaps + s, out=hard.copy(), where=s > 0.0)

    r = _dot3(evecs[:, None], np.stack([inner, hard], axis=1)[:, :, None, :])  # evecs @ each candidate
    r /= np.sqrt(_dot3(r, r))[..., None]
    tie = ARGMAX_TIE_ULPS * np.finfo(float).eps
    lead = np.where(np.abs(r[..., 2]) > tie, r[..., 2], np.where(np.abs(r[..., 1]) > tie, r[..., 1], r[..., 0]))
    r[(his <= tie)[:, None] & (lead < 0.0)] *= -1.0  # E(r) = E(-r) to rounding: keep the z >= 0 one
    e = _sphere_error(cs[:, None], r)
    use_hard = (spare >= 0.0) & (e[:, 1] >= e[:, 0] - ARGMAX_TIE_ULPS * np.spacing(np.abs(e[:, 0])))
    r = np.where(use_hard[:, None], r[:, 1], r[:, 0])
    r[zero] = (0.0, 0.0, 1.0)  # the pole: theta = phi = 0
    values = _checked_errors(np.where(use_hard, e[:, 1], e[:, 0]))
    return [
        CodeErrorResult(value=v, theta=math.acos(min(max(z, -1.0), 1.0)), phi=_azimuth(x, y))
        for v, (x, y, z) in zip(values.tolist(), r.tolist())
    ]


def _azimuth(x: float, y: float) -> float:
    """atan2(y, x) in [0, 2 pi): a y just below zero takes it to 2 pi after rounding, which is folded to 0."""
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return 0.0 if phi == 2.0 * math.pi else phi


TAYLOR_MIN_DIM = 256  # joint dimension from which times inside the Taylor window skip the eigendecomposition
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


def _taylor_sums(terms: list[np.ndarray], times: np.ndarray, tau: float, mu: float, minus_one: bool = False) -> np.ndarray:
    """exp(-i mu t) sum_j (-i t / tau)^j P_j at every t of ``times`` by one stacked Horner's rule, as (d, T, cols).

    This is exp(-iHt) x for H = A + mu and x = P_0; every t is summed on its
    own.  With ``minus_one`` it is (exp(-iHt) - 1) x, formed without
    subtracting x: with S the sum from j = 1, expm1(-i mu t) (x + S) + S.
    The rule runs in place in one (d, T, cols) array for S."""
    steps = -1j * (times / tau)[:, None]
    s = steps * terms[-1][:, None, :]
    for p in reversed(terms[1:-1]):
        np.add(p[:, None, :], s, out=s)
        np.multiply(steps, s, out=s)
    out = terms[0][:, None, :] + s
    phase = np.expm1 if minus_one else np.exp
    np.multiply(phase(-1j * mu * times)[:, None], out, out=out)
    if minus_one:
        np.add(out, s, out=out)
    return out


class _CorrectionPipeline:
    """E(t) for one code, environment and Hamiltonian; built once, queried per time grid.

    Holds the joint Hamiltonian H, the start vectors |e_i> (x) |j_L> (weighted
    by the environment eigenvalues) and the code's logical readout of the
    recovery channel.  ``covariances`` propagates only those 2 m vectors to
    every t of a grid and reduces them to the (T, 3, 3) stack of the Pauli
    covariance C of the module docstring, from which ``_sphere_suprema`` and
    ``_state_error`` read E.  ``decay`` runs periodic recovery for a list of
    intervals dt in one call.  ``covariances`` and the corrected ``decay``
    propagate columns through ``_evolve``; the uncorrected ``decay``
    (``_free_trace``) applies exp(-i lam t) itself, in the eigenbasis.  The
    eigendecomposition of H is computed on first use and at most once.
    """

    def __init__(self, code: CodeSpec, env: EnvironmentModel, h: np.ndarray):
        self.env_dim = env.dim
        h = _as_complex(h)
        d = env.dim * code.register_dim
        if h.shape != (d, d):
            raise ShapeError(f"Hamiltonian shape {h.shape} does not match env {env.dim} x register {code.register_dim}")
        self.h = require_hermitian(h, tol.HERMITIAN_INPUT_TOL, "joint Hamiltonian")
        self.start = _start_vectors(code, env)
        self.code, self.readout, self.rho0 = code, code.readout, env.rho0.array
        self._eigen = None

    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of H; one ``eigh``, on first use."""
        if self._eigen is None:
            self._eigen = np.linalg.eigh(self.h)
        return self._eigen

    def _evolve(self, x: np.ndarray, times, minus_one: bool = False) -> np.ndarray:
        """exp(-iHt) x at every t of ``times``, as (d, T, cols); ``_free_trace`` applies its own phases instead.

        Each t chooses its own path.  From d = TAYLOR_MIN_DIM on, a t with
        |t| ||H - mu||_1 <= 1 for mu = tr H / d is propagated by a Taylor power
        basis with the fixed step tau = 1 / ||H - mu||_1 (about fifteen
        products with H, built once for all such t); every other t, and every
        t below that dimension, by the eigendecomposition, one product with
        the eigenvectors per t.  So a t's columns do not depend on the other
        times.  With ``minus_one`` it is (exp(-iHt) - 1) x, with x never
        subtracted (expm1 phases, or the series from its first power), so a
        small change keeps its digits.
        """
        times = np.asarray(times, dtype=float)
        if not np.isfinite(times).all():
            raise ShapeError(f"propagation times must be finite, got {times.tolist()}")
        d = len(self.h)
        out = np.empty((d, len(times), x.shape[1]), dtype=complex)
        late = np.ones(len(times), dtype=bool)  # the times the eigenbasis propagates
        if d >= TAYLOR_MIN_DIM:
            mu = float(np.trace(self.h).real) / d
            shifted = self.h.copy()
            shifted.flat[::d + 1] -= mu
            norm = float(np.abs(shifted).sum(axis=0).max())
            late = np.abs(times) * norm > 1.0
            if not late.all():
                tau = 1.0 / norm if norm > 0.0 else 1.0
                out[:, ~late] = _taylor_sums(_taylor_terms(shifted, x, tau), times[~late], tau, mu, minus_one)
        if late.any():
            evals, evecs = self.eigenbasis()
            coeffs = evecs.conj().T @ x
            phase = np.expm1 if minus_one else np.exp
            for i, t in zip(np.flatnonzero(late).tolist(), times[late].tolist()):
                out[:, i] = evecs @ (phase(-1j * evals * t)[:, None] * coeffs)
        return out

    def covariances(self, times) -> np.ndarray:
        """C at every t of ``times`` as one (T, 3, 3) stack, read out from (U(t) - 1) X.

        Every start column reads out as a logical block identity, which has no
        traceless part, so dropping X changes C only by that of rounding, while
        the traceless parts, O(t^(k+1)), are no longer differences of O(1) entries."""
        return _pauli_covariance(self.readout, self._evolve(self.start, times, minus_one=True), self.env_dim)

    def decay(self, dts, cycles: int, psi_logical, apply_correction: bool = True) -> list[DecayResult]:
        """Fidelity under stroboscopic recovery every dt, one ``DecayResult`` per dt of ``dts``.

        The rate is minus the least-squares slope of log F against the cycle
        index, over the cycles with F > 0, divided by dt.  A dt's result does
        not depend, to the bit, on which other dts share the call.

        Corrected: each recovery consumes a fresh ancilla and ends in the code
        space, so the state is held exactly as a 2 d_e x 2 d_e matrix rho on
        environment (x) logical qubit.  A cycle maps rho to sum_s M_s rho M_s^dag
        with M_s = encoder^dag K_s U(dt) (1 (x) encoder), built once per dt; the
        environment is kept.  One cycle loop advances every dt: (M_s stacked by
        rows) rho, then those blocks side by side times (M_s^dag stacked by rows),
        and F = tr[(1 (x) |psi><psi|) rho] read out per dt.  Memory stays
        O(syndromes (2 d_e)^2) per dt.

        Uncorrected: G = (1 (x) <psi_bar|) evecs times the eigenbasis coefficients
        of the r <= d_e weighted start vectors is a d x d_e r matrix, and
        F(t) = || exp(-i evals t)^T G ||^2, at a cost of d d_e r per time.  The
        times go through in blocks of at most d per dt, and G in chunks of at
        most d columns (one chunk unless d_e r > d), so no array needs more
        memory than the d x d eigenvectors, whatever ``cycles`` and d_e are.
        """
        cycles = operator.index(cycles)
        if cycles < 10:
            raise ShapeError("need at least 10 cycles for a stable rate")
        dts = [float(dt) for dt in dts]
        if not all(0.0 < dt < math.inf for dt in dts):
            raise ShapeError("cycle time must be positive and finite")
        psi_bar = encode_logical(self.code, psi_logical)
        psi_l = self.code.encoder.conj().T @ psi_bar
        if not dts:
            return []
        if apply_correction:
            fs = self._corrected_trace(dts, cycles, psi_l)
        else:
            fs = self._free_trace(dts, cycles, psi_bar, psi_l)
        rates = -_log_slopes(fs) / np.array(dts)
        return [
            DecayResult(rate=rate, samples=tuple((m, m * dt, f) for m, f in enumerate(row)))
            for dt, rate, row in zip(dts, rates.tolist(), fs.tolist())
        ]

    def _corrected_trace(self, dts: list[float], cycles: int, psi_l: np.ndarray) -> np.ndarray:
        """F after each recovery, as (len(dts), cycles + 1) with F = 1 at cycle 0."""
        kraus = self._recovery_steps(dts)
        de, n_s = self.env_dim, len(self.readout)
        side = 2 * de
        kraus_h = kraus.reshape(-1, n_s, side, side).conj().transpose(0, 1, 3, 2).reshape(kraus.shape)
        weight = np.kron(np.eye(de), np.outer(psi_l.conj(), psi_l)).reshape(-1, 1)
        rhos = np.repeat(np.kron(self.rho0, np.outer(psi_l, psi_l.conj()))[None], len(dts), axis=0)
        fs = np.ones((len(dts), cycles + 1))
        for m in range(1, cycles + 1):
            left = (kraus @ rhos).reshape(-1, n_s, side, side).transpose(0, 2, 1, 3).reshape(-1, side, n_s * side)
            rhos = left @ kraus_h
            fs[:, m] = (rhos.reshape(-1, 1, side * side) @ weight)[:, 0, 0].real  # one dot per dt
        return fs

    def _recovery_steps(self, dts: list[float]) -> np.ndarray:
        """M_s = encoder^dag K_s U(dt) (1 (x) encoder) stacked by rows (s, e, a), as (len(dts), syndromes 2 d_e, 2 d_e).

        U(dt) (1 (x) encoder) is formed per dt; all of them share one readout product."""
        de, side = self.env_dim, 2 * self.env_dim
        moved = self._evolve(np.kron(np.eye(de), self.code.encoder), dts)
        steps = _read_out(self.readout, moved, de)  # (s, a, e, dt, x)
        return steps.transpose(3, 0, 2, 1, 4).reshape(len(dts), -1, side)

    def _free_trace(self, dts: list[float], cycles: int, psi_bar: np.ndarray, psi_l: np.ndarray) -> np.ndarray:
        """F of the freely evolved encoded state at each m dt, as (len(dts), cycles + 1) with F = 1 at m = 0."""
        evals, evecs = self.eigenbasis()
        d, de = len(evals), self.env_dim
        bra = psi_bar.conj() @ evecs.reshape(de, -1, d)  # (d_e, d): (1 (x) <psi_bar|) evecs
        coeffs = (evecs.conj().T @ self.start).reshape(d, -1, 2) @ psi_l  # (d, r): evecs^dag sqrt(w_i) |e_i> (x) |psi_bar>
        per_chunk = max(1, d // coeffs.shape[1])  # environment rows of G per chunk, so at most d columns
        steps = np.arange(1, cycles + 1)
        fs = np.zeros((len(dts), cycles + 1))
        fs[:, 0] = 1.0
        for e0 in range(0, de, per_chunk):
            g = (bra[e0:e0 + per_chunk].T[:, :, None] * coeffs[:, None, :]).reshape(d, -1)
            for row, dt in zip(fs, dts):
                for lo in range(0, cycles, d):
                    amps = np.exp(np.multiply.outer(steps[lo:lo + d] * dt, -1j * evals)) @ g
                    row[1 + lo:1 + lo + d] += (amps.real * amps.real + amps.imag * amps.imag).sum(axis=1)
        return fs


def _log_slopes(fs: np.ndarray) -> np.ndarray:
    """Least-squares slope of log F against the column index, per row of ``fs``, over the entries with F > 0.

    The closed form sum (x - mean x)(y - mean y) / sum (x - mean x)^2, for every row at once."""
    keep = fs > 0.0
    count = keep.sum(axis=1)
    if (count < 2).any():
        raise FitError("fidelity collapsed to zero; shorten dt or the cycle count")
    x = np.where(keep, np.arange(fs.shape[1], dtype=float), 0.0)
    y = np.log(fs, out=np.zeros_like(fs), where=keep)
    dx = np.where(keep, x - (x.sum(axis=1) / count)[:, None], 0.0)
    dy = y - (y.sum(axis=1) / count)[:, None]
    return (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)


def code_error(code: CodeSpec, env: EnvironmentModel, h: np.ndarray, times) -> list[CodeErrorResult]:
    """Supremum of the error over the encoded logical sphere under the joint Hamiltonian ``h``, exact up to rounding.

    One result per t of ``times``, from one pipeline; each row is a function of its own t alone."""
    return _sphere_suprema(_CorrectionPipeline(code, env, h).covariances(times))


def fit_power_law(curve) -> PowerLawFit:
    """Fit E ~ c * t^m to the (t, E) pairs of ``curve`` on the largest clean low-t window.

    The times must increase strictly and every E lie in [0, 1] up to
    FIDELITY_RANGE_TOL, or ``ValidationError`` is raised.  Samples at or below
    FIT_FLOOR are discarded.  Windows of at least FIT_MIN_SAMPLES samples are
    anchored at the smallest usable time and grown as far as the max absolute
    residual of the straight-line fit in log-log stays within
    FIT_RESIDUAL_DEFAULT; if no window anchored there qualifies, the anchor
    moves up.  Raises ``FitError`` with an actionable message when the data
    cannot support a fit.
    """
    pairs = [(float(t), float(e)) for t, e in curve]
    if not all(t2 > t1 for (t1, _), (t2, _) in zip(pairs, pairs[1:])):  # a NaN time fails too
        raise ValidationError("curve times must increase strictly")
    for t, e in pairs:
        if not -tol.FIDELITY_RANGE_TOL <= e <= 1.0 + tol.FIDELITY_RANGE_TOL:  # NaN fails too
            raise ValidationError(f"curve value {e!r} at t={t!r} outside [0, 1]")
    usable = [(t, e) for t, e in pairs if e > tol.FIT_FLOOR and t > 0.0]
    if len(usable) < tol.FIT_MIN_SAMPLES:
        raise FitError(
            f"only {len(usable)} samples above the floor {tol.FIT_FLOOR:g}, need {tol.FIT_MIN_SAMPLES}; "
            "extend the sweep toward larger times where the error is resolvable"
        )
    log_t = np.log([t for t, _ in usable])
    log_e = np.log([e for _, e in usable])
    for start in range(0, len(usable) - tol.FIT_MIN_SAMPLES + 1):
        for end in range(len(usable), start + tol.FIT_MIN_SAMPLES - 1, -1):
            x, y = log_t[start:end], log_e[start:end]
            slope, intercept = np.polyfit(x, y, 1)
            residual = float(np.max(np.abs(y - (slope * x + intercept))))
            if residual <= tol.FIT_RESIDUAL_DEFAULT:
                return PowerLawFit(
                    exponent=float(slope),
                    log_coefficient=float(intercept),
                    window=(usable[start][0], usable[end - 1][0]),
                    max_residual=residual,
                )
    raise FitError(
        f"no window of {tol.FIT_MIN_SAMPLES}+ samples fits a line within residual "
        f"{tol.FIT_RESIDUAL_DEFAULT:g}; sample deeper into the small-t regime"
    )


def leading_coefficient(code: CodeSpec, env: EnvironmentModel, psi_logical) -> float:
    """Coefficient of t^(2q+2) in the short-time error, for q the order of the interaction V of ``env`` on the code.

    A product of at most q terms of V reads out with no traceless part, so of
    the order-(q+1) Taylor term of U(t) X only V^(q+1) X counts (the other
    products hold an h_env factor), and the coefficient is

        sum_s || (1 - P_psi) K_s V^(q+1) (|env_i> (x) |psi_bar>) ||^2 / ((q+1)!)^2

    over the environment eigenvectors: q + 1 products with V of the start
    vectors, reduced by the sphere quadratic, with q from ``interaction_order`` of the record's strings."""
    if env.n_qubits != code.n:
        raise ShapeError(f"environment couples {env.n_qubits} qubits, code uses {code.n}")
    q = interaction_order(code, env.strings)
    v, x = build_noncontact(env), _start_vectors(code, env)
    for _ in range(q + 1):
        x = v @ x
    c = _pauli_covariance(code.readout, x[:, None, :], env.dim)
    return float(_sphere_error(c, _bloch_vector(psi_logical))[0]) / math.factorial(q + 1) ** 2


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that passes the largest float (where ``**`` raises ``OverflowError``)."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def error_bound(t: float, k: int, v_norm: float) -> float:
    """Rigorous error envelope t^(2k+2) ||V||^(2k+2) / ((k+1)!)^2 for an interaction V of order k.

    It is inf where (t ||V||)^(2k+2) passes the largest float; for every
    k < 98 the envelope is then above 1, so it says nothing either way."""
    t, v_norm, k = float(t), float(v_norm), operator.index(k)
    if not (t >= 0 and v_norm >= 0 and k >= 0):  # NaN fails too
        raise ShapeError("need t >= 0, ||V|| >= 0, k >= 0")
    return _power(t * v_norm, 2 * k + 2) / math.factorial(k + 1) ** 2


_X0 = asymptotic_x0()  # the asymptotic correctable error fraction of both envelopes, found once


def stabilization_bound(t: float, coupling_bound: float, n: int) -> float:
    """Asymptotic envelope (t C e / x0)^(2 x0 n) for a length-n code at the rate edge; inf past the largest float."""
    t, c, n = float(t), float(coupling_bound), operator.index(n)
    if not (t >= 0 and c > 0 and n >= 1):  # NaN fails too
        raise ShapeError("need t >= 0, coupling bound > 0, n >= 1")
    return _power(t * c * math.e / _X0, 2.0 * _X0 * n)


def threshold_time(coupling_bound: float) -> float:
    """Time x0 / (C e) below which the stabilization envelope shrinks with code length."""
    c = float(coupling_bound)
    if not c > 0:  # NaN fails too
        raise ShapeError("coupling bound must be positive")
    return _X0 / (c * math.e)


def periodic_correction_decay(
    code: CodeSpec,
    env: EnvironmentModel,
    h: np.ndarray,
    dt: float,
    cycles: int,
    psi_logical,
    apply_correction: bool = True,
) -> DecayResult:
    """Fidelity trace and decay rate under recovery every ``dt``; see ``_CorrectionPipeline.decay``."""
    return _CorrectionPipeline(code, env, h).decay([dt], cycles, psi_logical, apply_correction)[0]
