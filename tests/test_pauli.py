import itertools

import numpy as np
import pytest

import decoq.pauli
from decoq.errors import ShapeError
from decoq.pauli import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    anticommutation,
    decompose,
    pauli_action,
    pauli_string,
    pauli_sum,
    reconstruct,
)

from conftest import one_letter, pair_flip_product, random_unitary, single_flip_product


def error_rank(v) -> int:
    """Number of non-identity letters in the index vector ``v``."""
    return sum(1 for i in v if i != 0)


def rank_weights(u: np.ndarray, env_dim: int, n_qubits: int) -> list[float]:
    """||A_v||_F^2 / d_e over the components A_v of ``decompose``, summed per error rank."""
    weights = [0.0] * (n_qubits + 1)
    for v, comp in decompose(u, n_qubits).items():
        weights[error_rank(v)] += float(np.linalg.norm(comp) ** 2) / env_dim
    return weights


@pytest.mark.parametrize("n", range(1, 8))
def test_pauli_action_matches_dense_string(n, rng):
    strings = [tuple(int(i) for i in rng.integers(0, 4, size=n)) for _ in range(6)] + [(0,) * n]
    cols, phase = pauli_action(strings)
    assert cols.shape == phase.shape == (len(strings), 2 ** n)
    rows = np.arange(2 ** n)
    x = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
    for k, v in enumerate(strings):
        dense = pauli_string(v)
        assert np.array_equal(dense[rows, cols[k]], phase[k]), v
        assert np.count_nonzero(dense) == 2 ** n
        assert np.array_equal(phase[k][:, None] * x[cols[k]], dense @ x), v


def test_pauli_action_rejects_bad_stacks():
    for bad in ([()], [(0, 4)], [(1, 2), (3,)], (1, 2)):
        with pytest.raises(ShapeError):
            pauli_action(bad)


def kron_sum(terms, env_dim: int, n_qubits: int) -> np.ndarray:
    """Reference Pauli sum: one dense kron(A_k, pauli_string(v_k)) per term, added in order."""
    out = np.zeros((env_dim * 2 ** n_qubits,) * 2, dtype=complex)
    for a, v in terms:
        out += np.kron(np.asarray(a, dtype=complex).reshape(env_dim, env_dim), pauli_string(v))
    return out


@pytest.mark.parametrize("de", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_pauli_sum_bit_identical_to_kron_sum(rng, de, n):
    every = [tuple((mu + i) % 4 for i in range(n)) for mu in range(4)]  # every letter at every position
    drawn = [tuple(int(i) for i in rng.integers(0, 4, size=n)) for _ in range(6)]
    strings = every + drawn + drawn[:3]  # repeated strings add into the same entries
    matrices = [rng.standard_normal((de, de)) + 1j * rng.standard_normal((de, de)) for _ in strings]
    cases = [list(zip(matrices, strings)), list(zip(matrices, strings))[::-1], []]
    if de == 1:
        cases.append([(float(rng.uniform(-2.0, 2.0)), v) for v in strings])  # scalars, as the flip drives pass
        cases.append([(complex(m[0, 0]), v) for m, v in zip(matrices, strings)])
    for terms in cases:
        assert pauli_sum(terms, de, n).tobytes() == kron_sum(terms, de, n).tobytes()


def test_full_basis_reconstruct_in_blocks_equals_one_scatter(rng, monkeypatch):
    # 4^6 terms at d_e = 2 span several blocks; one block as large as the whole sum is the one-shot scatter
    de, n = 2, 6
    comps = {
        v: rng.standard_normal((de, de)) + 1j * rng.standard_normal((de, de))
        for v in itertools.product(range(4), repeat=n)
    }
    assert decoq.pauli._SUM_BLOCK_ENTRIES < len(comps) * 2 ** n * (n + de * de)
    blocked = reconstruct(comps)
    monkeypatch.setattr(decoq.pauli, "_SUM_BLOCK_ENTRIES", len(comps) * 2 ** n * (n + de * de))
    assert np.array_equal(blocked, reconstruct(comps))


@pytest.mark.parametrize("build", [
    lambda: pauli_sum([(np.eye(2), (1,)), (np.eye(3), (1,))], 2, 1),
    lambda: pauli_sum([(np.eye(2), (1,)), (1.0, (1,))], 2, 1),
    lambda: reconstruct({(1,): np.eye(2), (2,): np.eye(3)}),
], ids=["two-matrix-shapes", "matrix-and-scalar", "reconstruct"])
def test_coefficients_of_mixed_shapes_rejected(build):
    with pytest.raises(ShapeError, match="^Pauli-sum coefficients must be 2 x 2, got several shapes$"):
        build()


def test_coefficient_that_is_no_number_keeps_numpy_error():
    # one shape, so not a ShapeError: the conversion's own ValueError comes through
    with pytest.raises(ValueError) as raised:
        pauli_sum([(1.0, (1,)), ("x", (1,))], 1, 1)
    assert type(raised.value) is ValueError and "several shapes" not in str(raised.value)


def test_pauli_sum_rejects_mismatched_terms():
    for a in (np.eye(3), 1.0):  # a scalar stands for a 1 x 1 matrix only
        with pytest.raises(ShapeError, match="must be 2 x 2"):
            pauli_sum([(a, (1,))], 2, 1)
    with pytest.raises(ShapeError, match="address 2 qubits, not 3"):
        pauli_sum([(1.0, (1, 3))], 1, 3)
    with pytest.raises(ShapeError):
        pauli_sum([(1.0, (1, 4))], 1, 2)


def test_pauli_orthogonality():
    for a, b in itertools.product(range(4), repeat=2):
        inner = np.trace(PAULIS[a].conj().T @ PAULIS[b])
        assert inner == pytest.approx(2.0 if a == b else 0.0, abs=1e-15)


def test_pauli_string_matches_kron():
    assert np.array_equal(pauli_string((1, 0, 2)), np.kron(np.kron(SIGMA_X, np.eye(2)), SIGMA_Y))
    with pytest.raises(ShapeError):
        pauli_string(())
    with pytest.raises(ShapeError):
        pauli_string((4,))


def test_strings_commute_against_matrices(rng):
    # oracle: explicit commutator of the dense matrices
    for _ in range(30):
        v = tuple(rng.integers(0, 4, size=3))
        w = tuple(rng.integers(0, 4, size=3))
        a, b = pauli_string(v), pauli_string(w)
        commutes = np.allclose(a @ b, b @ a)
        assert anticommutation([v], [w])[0, 0] == (0 if commutes else 1)


class TestDecompose:
    def test_single_qubit_block_formulas(self, rng):
        # oracle: with u reshaped to 2x2 blocks over the qubit index,
        #   A00 = U_0 + U_z,  A11 = U_0 - U_z,
        #   A01 = U_x - i U_y, A10 = U_x + i U_y
        de = 3
        u = random_unitary(rng, 2 * de)
        blocks = u.reshape(de, 2, de, 2)
        a00, a11 = blocks[:, 0, :, 0], blocks[:, 1, :, 1]
        a01, a10 = blocks[:, 0, :, 1], blocks[:, 1, :, 0]
        comps = decompose(u, 1)
        assert np.allclose(comps[(0,)], (a00 + a11) / 2, atol=1e-12)
        assert np.allclose(comps[(3,)], (a00 - a11) / 2, atol=1e-12)
        assert np.allclose(comps[(1,)], (a10 + a01) / 2, atol=1e-12)
        assert np.allclose(comps[(2,)], -1j * (a10 - a01) / 2, atol=1e-12)

    def test_round_trip_random_unitary(self, rng):
        for de, n in ((1, 2), (2, 2), (3, 1)):
            u = random_unitary(rng, de * 2 ** n)
            comps = decompose(u, n)
            assert np.max(np.abs(reconstruct(comps) - u)) < 1e-12

    def test_uniqueness_from_components(self, rng):
        # decompose inverts reconstruct on arbitrary component dictionaries
        de, n = 2, 2
        comps = {
            v: rng.standard_normal((de, de)) + 1j * rng.standard_normal((de, de))
            for v in itertools.product(range(4), repeat=n)
        }
        recovered = decompose(reconstruct(comps), n)
        for v in comps:
            assert np.allclose(recovered[v], comps[v], atol=1e-12)

    def test_component_count(self, rng):
        comps = decompose(random_unitary(rng, 8), 3)
        assert len(comps) == 4 ** 3

    def test_qubit_cap(self):
        with pytest.raises(ShapeError):
            decompose(np.eye(2 ** 8), 8)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            decompose(np.eye(6), 2)

    def test_reconstruct_of_nothing_rejected(self):
        # n and d_e are read off the components, so an empty dict names no operator
        with pytest.raises(ShapeError, match="no components"):
            reconstruct({})

    def test_rank_one_products_stay_low_rank(self):
        # a product of k single-qubit factors involves at most k qubits
        n = 3
        prod = pauli_string(one_letter(1, 1, n)) @ pauli_string(one_letter(2, 1, n))  # same qubit twice: rank 1
        for v, comp in decompose(prod, n).items():
            if np.any(comp):
                assert error_rank(v) <= 1
        prod2 = pauli_string(one_letter(1, 1, n)) @ pauli_string(one_letter(3, 2, n))
        for v, comp in decompose(prod2, n).items():
            if np.any(comp):
                assert error_rank(v) <= 2


class TestRankSpectrum:
    """Rank-resolved weights of ``decompose`` for unitaries whose spectrum is known in closed form."""

    def test_identity_is_rank_zero(self):
        weights = rank_weights(np.eye(4), 1, 2)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)
        assert all(w == pytest.approx(0.0, abs=1e-12) for w in weights[1:])

    def test_pair_flip_analytic_spectrum(self):
        # cos(wt) 1 + i sin(wt) XX has weight cos^2 at rank 0, sin^2 at rank 2
        w, t = 0.7, 0.9
        weights = rank_weights(pair_flip_product({(1, 2): w}, 2, t), 1, 2)
        assert weights[0] == pytest.approx(np.cos(w * t) ** 2, abs=1e-12)
        assert weights[1] == pytest.approx(0.0, abs=1e-12)
        assert weights[2] == pytest.approx(np.sin(w * t) ** 2, abs=1e-12)

    def test_pair_drive_has_no_odd_ranks(self):
        # products of two-qubit flips only reach even-rank strings
        pairs = {(1, 2): 0.8, (3, 4): 1.05, (2, 3): 0.65, (4, 5): 0.95, (1, 3): 0.7}
        weights = rank_weights(pair_flip_product(pairs, 5, 0.31), 1, 5)
        assert weights[1] == pytest.approx(0.0, abs=1e-12)
        assert weights[3] == pytest.approx(0.0, abs=1e-12)
        assert weights[5] == pytest.approx(0.0, abs=1e-12)

    def test_single_flip_factorizes(self):
        # independent flips: weight at rank r is the elementary symmetric sum
        omegas = (0.9, 1.1)
        t = 0.4
        weights = rank_weights(single_flip_product(omegas, t), 1, 2)
        c = [np.cos(w * t) ** 2 for w in omegas]
        s = [np.sin(w * t) ** 2 for w in omegas]
        assert weights[0] == pytest.approx(c[0] * c[1], abs=1e-12)
        assert weights[1] == pytest.approx(c[0] * s[1] + s[0] * c[1], abs=1e-12)
        assert weights[2] == pytest.approx(s[0] * s[1], abs=1e-12)

    def test_weights_sum_to_one_with_environment(self, rng):
        weights = rank_weights(random_unitary(rng, 3 * 4), 3, 2)
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)
