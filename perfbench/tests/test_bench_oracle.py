"""Tests of the benchmark's reference computations.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import linalg

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import oracle  # noqa: E402


def _random_couplings(rng, n, de, bound=1.0):
    couplings = []
    for _ in range(n):
        triple = []
        for _ in range(3):
            g = rng.standard_normal((de, de)) + 1j * rng.standard_normal((de, de))
            h = (g + g.conj().T) / 2.0
            triple.append(h * bound / linalg.norm(h, 2))
        couplings.append(tuple(triple))
    return couplings


def _model(rng, code_name, de, scale=1.0):
    code = oracle.make_code(code_name)
    v = scale * oracle.interaction(_random_couplings(rng, code.n, de), code.n)
    h = v + np.kron(np.diag(np.arange(de, dtype=float)), np.eye(2 ** code.n))
    return code, h, np.eye(de) / de


def _sample_directions(rng, count):
    r = rng.standard_normal((count, 3))
    return r / np.linalg.norm(r, axis=1)[:, None]


@pytest.mark.parametrize("name", ["identity", "repetition-3", "repetition-5", "five_qubit"])
def test_recovery_is_a_channel_and_fixes_the_codespace(name):
    code = oracle.make_code(name)
    kraus = code.kraus()
    dim = code.encoder.shape[0]
    assert np.allclose(sum(k.conj().T @ k for k in kraus), np.eye(dim), atol=1e-12)
    assert np.allclose(code.encoder.conj().T @ code.encoder, np.eye(2), atol=1e-12)
    for word in code.corrections:  # every correctable error is undone exactly
        error = oracle.pauli_word(word)
        psi = code.encoder @ oracle.bloch_amplitudes(0.7, 2.1)
        rho = error @ np.outer(psi, psi.conj()) @ error.conj().T
        out = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.allclose(out, np.outer(psi, psi.conj()), atol=1e-12)


@pytest.mark.parametrize("name,de", [("identity", 2), ("five_qubit", 2), ("five_qubit", 3)])
def test_supremum_is_zero_without_coupling(name, de):
    code = oracle.make_code(name)
    h = np.kron(np.diag(np.arange(de, dtype=float)), np.eye(2 ** code.n))
    sup, _, _, evaluate = oracle.code_error_supremum(code, h, np.eye(de) / de, 0.3)
    assert sup == pytest.approx(0.0, abs=1e-28)
    assert evaluate(1.1, 0.4) == pytest.approx(0.0, abs=1e-28)


@pytest.mark.parametrize("name,t", [("identity", 0.05), ("five_qubit", 2e-3), ("five_qubit", 5e-2)])
def test_supremum_is_never_below_a_sampled_state(name, t):
    rng = np.random.default_rng(7)
    code, h, rho_env = _model(rng, name, 2)
    sup, r_best, fit_residual, evaluate = oracle.code_error_supremum(code, h, rho_env, t)
    assert fit_residual < 1e-8
    assert evaluate(*oracle.angles(r_best)) == pytest.approx(sup, rel=1e-8)
    sampled = [evaluate(*oracle.angles(r)) for r in _sample_directions(rng, 200)]
    assert max(sampled) <= sup * (1 + 1e-9)
    assert max(sampled) >= sup * (1 - 0.05)  # 200 random states come close


def test_error_matches_one_minus_fidelity_at_moderate_time():
    rng = np.random.default_rng(3)
    code, h, rho_env = _model(rng, "five_qubit", 2)
    evaluate = oracle.ErrorAtTime(code, h, rho_env, 0.2)
    psi = code.encoder @ oracle.bloch_amplitudes(0.9, 1.7)
    u = linalg.expm(-0.2j * h)
    rho = u @ np.kron(rho_env, np.outer(psi, psi.conj())) @ u.conj().T
    kraus = [np.kron(np.eye(2), k) for k in code.kraus()]
    rho = sum(k @ rho @ k.conj().T for k in kraus)
    fidelity = np.trace(rho @ np.kron(np.eye(2), np.outer(psi, psi.conj()))).real
    assert evaluate(0.9, 1.7) == pytest.approx(1.0 - fidelity, rel=1e-9)


@pytest.mark.parametrize(
    "m,b",
    [
        (np.diag([3.0, 1.0, -2.0]), np.zeros(3)),  # hard case: the top eigenvector itself
        (np.diag([3.0, 1.0, -2.0]), np.array([0.0, 0.5, 0.2])),  # hard case, b off the top axis
        (np.diag([1.0, 1.0, 1.0]), np.array([0.0, 0.0, 1e-3])),  # degenerate M
        (np.zeros((3, 3)), np.array([1.0, -2.0, 2.0])),  # linear: max is |b|
        (np.array([[0.2, 0.5, 0.1], [0.5, -0.3, 0.0], [0.1, 0.0, 0.4]]), np.array([0.3, -0.1, 0.05])),
    ],
)
def test_sphere_maximum_against_dense_sampling(m, b):
    q = oracle.SphereQuadratic(m, b, 0.0)
    value, r = oracle.sphere_maximum(q)
    assert np.linalg.norm(r) == pytest.approx(1.0)
    assert q(r) == pytest.approx(value)
    samples = _sample_directions(np.random.default_rng(1), 20000)
    sampled = np.einsum("ij,jk,ik->i", samples, m, samples) + samples @ b
    assert sampled.max() <= value + 1e-12
    assert sampled.max() >= value - 1e-3 * max(1.0, abs(value))


def test_sphere_maximum_of_a_linear_form_is_its_norm():
    q = oracle.SphereQuadratic(np.zeros((3, 3)), np.array([1.0, -2.0, 2.0]), 0.0)
    value, r = oracle.sphere_maximum(q)
    assert value == pytest.approx(3.0, rel=1e-14)
    assert np.allclose(r, np.array([1.0, -2.0, 2.0]) / 3.0)


def test_envelope_hand_cases():
    assert oracle.error_bound(0.1, 1, 2.0) == pytest.approx(0.2 ** 4 / 4)
    assert oracle.error_bound(0.5, 0, 1.0) == pytest.approx(0.25)
    assert oracle.error_bound(0.1, 2, 1.0) == pytest.approx(1e-6 / 36)
    x0 = oracle.asymptotic_x0()
    assert x0 == pytest.approx(0.0946448, abs=5e-8)
    # at the threshold time x0 / (C e) the stabilization envelope is exactly 1
    assert oracle.stabilization_bound(x0 / (2.0 * math.e), 2.0, 7, x0) == pytest.approx(1.0, rel=1e-14)
    assert oracle.stabilization_bound(0.01, 1.0, 5, x0) == pytest.approx((0.01 * math.e / x0) ** (10 * x0))


def test_bounds_hand_cases():
    assert oracle.bounds_row(5, 1) == (True, True)  # 1 + 15 = 16 = 2^4, the perfect code
    assert oracle.bounds_row(4, 1) == (False, True)  # 1 + 12 > 8
    assert oracle.bounds_row(10, 2) == (True, True)  # 1 + 30 + 405 = 436 <= 512
    assert oracle.bounds_row(9, 2) == (False, True)  # 1 + 27 + 324 = 352 > 256
    assert oracle.bounds_row(1, 0) == (True, True)  # 1 <= 1 <= 1
    assert oracle.bounds_row(3, 0) == (True, False)  # 4 > 1
