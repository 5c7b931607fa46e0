import numpy as np
import pytest

from decoq.errors import ShapeError, ValidationError
from decoq.tensor import DensityMatrix, kron, operator_norm
from decoq.pauli import SIGMA_X, SIGMA_Z, decompose, embed
from decoq.dynamics import (
    ContactTerm,
    EnvironmentModel,
    FreeHamiltonian,
    InteractionSpec,
    build_noncontact,
    free_hamiltonian,
    gibbs_weights,
    interaction_matrix,
    pair_flip_hamiltonian,
    random_environment,
    single_flip_hamiltonian,
    trivial_environment,
)

from conftest import (
    evolve,
    expm_hermitian,
    pair_flip_product,
    random_density,
    random_hermitian,
    single_flip_product,
)


def dephasing_environment(rng, de: int) -> tuple[EnvironmentModel, np.ndarray]:
    """Single qubit coupled through sigma_z only; returns (env, h)."""
    h = random_hermitian(rng, de)
    zero = np.zeros((de, de), dtype=complex)
    rho = DensityMatrix(random_density(rng, de), (de,))
    env = EnvironmentModel(de, rho, zero, ((zero, zero, h),))
    return env, h


class TestEnvironmentModel:
    def test_rejects_nonhermitian_coupling(self, rng):
        de = 2
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = DensityMatrix(np.eye(de) / de, (de,))
        zero = np.zeros((de, de))
        with pytest.raises(ValidationError):
            EnvironmentModel(de, rho, zero, ((zero, zero, bad),))

    def test_coupling_bound_is_max_norm(self, rng):
        env, h = dephasing_environment(rng, 3)
        assert env.coupling_bound == pytest.approx(operator_norm(h))

    def test_trivial_environment(self):
        env = trivial_environment(3)
        assert env.dim == 1
        assert env.n_qubits == 3
        assert env.coupling_bound == 0.0

    def test_random_environment_deterministic(self):
        a = random_environment(2, 3, seed=7)
        b = random_environment(2, 3, seed=7)
        for ta, tb in zip(a.couplings, b.couplings):
            for ha, hb in zip(ta, tb):
                assert np.array_equal(ha, hb)
        assert not np.array_equal(
            random_environment(2, 3, seed=8).couplings[0][0], a.couplings[0][0]
        )

    def test_random_environment_norms_exact(self):
        env = random_environment(3, 4, coupling_bound=0.7, seed=11)
        for triple in env.couplings:
            for h in triple:
                assert operator_norm(h) == pytest.approx(0.7, abs=1e-12)

    def test_gibbs_weights(self):
        w = gibbs_weights(4, 0.0)
        assert np.allclose(w, 0.25)
        w = gibbs_weights(4, 1.3)
        assert w.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_random_environment_beta(self):
        env = random_environment(1, 4, beta=0.9, seed=3)
        diag = np.diag(env.rho0.array).real
        assert all(a > b for a, b in zip(diag, diag[1:]))
        assert np.allclose(np.diag(env.h_env), np.arange(4))


class TestFreeHamiltonian:
    def test_matrix_layout(self, rng):
        h_env = np.diag([0.0, 1.0]).astype(complex)
        q1 = SIGMA_Z / 2.0
        q2 = np.zeros((2, 2), dtype=complex)
        h0 = FreeHamiltonian(h_env, (q1, q2))
        expected = kron(h_env, np.eye(4)) + kron(np.eye(2), kron(q1, np.eye(2)))
        assert np.allclose(h0.matrix(), expected)

    def test_default_qubit_terms_zero(self):
        env = random_environment(2, 2, seed=5)
        h0 = free_hamiltonian(env)
        assert np.allclose(h0.matrix(), kron(env.h_env, np.eye(4)))

    def test_zero_terms_skipped_without_changing_values(self, rng):
        # skipping a zero term keeps a -0.0 that adding +0.0 turned into +0.0,
        # so values are equal and bytes are equal when no -0.0 arises
        terms = (np.zeros((2, 2), dtype=complex), random_hermitian(rng, 2), np.zeros((2, 2), dtype=complex))
        h0 = FreeHamiltonian(random_hermitian(rng, 3), terms)
        assert np.array_equal(h0.matrix(), kron_free_matrix(h0))
        for de in (1, 2, 3, 8):
            h0 = free_hamiltonian(random_environment(5, de, seed=de))
            assert h0.matrix().tobytes() == kron_free_matrix(h0).tobytes(), de

    def test_rejects_wrong_qubit_shape(self):
        with pytest.raises(ShapeError):
            FreeHamiltonian(np.zeros((2, 2)), (np.zeros((3, 3)),))


class TestFlipDrives:
    def test_single_flip_matches_exponential(self):
        # closed form follows the +i product convention, so compare to exp(+iHt)
        omegas = (0.9, 1.1, 0.75)
        t = 0.37
        h = single_flip_hamiltonian(omegas)
        assert np.max(np.abs(single_flip_product(omegas, t) - expm_hermitian(h, -t))) < 1e-12

    def test_single_flip_quarter_period(self):
        u = expm_hermitian(single_flip_hamiltonian((1.0,)), -np.pi / 2)
        assert np.allclose(u, 1j * SIGMA_X, atol=1e-12)

    def test_single_flip_spectrum(self):
        evals = np.linalg.eigvalsh(single_flip_hamiltonian((0.9, 1.3)))
        expected = sorted([0.9 + 1.3, 0.9 - 1.3, -0.9 + 1.3, -0.9 - 1.3])
        assert np.allclose(evals, expected)

    def test_pair_flip_matches_exponential(self):
        pairs = {(1, 2): 0.8, (2, 3): 0.65, (1, 3): 0.7}
        t = 0.52
        h = pair_flip_hamiltonian(pairs, 3)
        assert np.max(np.abs(pair_flip_product(pairs, 3, t) - expm_hermitian(h, -t))) < 1e-12

    def test_pair_flip_rejects_degenerate(self):
        with pytest.raises(ShapeError):
            pair_flip_hamiltonian({(2, 2): 1.0}, 3)
        with pytest.raises(ShapeError):
            pair_flip_hamiltonian({(1, 4): 1.0}, 3)


def kron_noncontact(env: EnvironmentModel) -> np.ndarray:
    """Reference V: one dense kron(h, sigma^l_mu) per nonzero coupling, added in (l, mu) order."""
    n = env.n_qubits
    d = env.dim * 2 ** n
    v = np.zeros((d, d), dtype=complex)
    for l, triple in enumerate(env.couplings, start=1):
        for mu, h in enumerate(triple, start=1):
            if np.any(h):
                v += kron(h, embed(mu, l, n))
    return v


def kron_free_matrix(h0: FreeHamiltonian) -> np.ndarray:
    """Reference H0: the environment term plus one kron per qubit term, zero terms included."""
    de, n = h0.env_dim, h0.n_qubits
    out = kron(h0.env_term, np.eye(2 ** n))
    for l, q in enumerate(h0.qubit_terms, start=1):
        single = np.kron(np.kron(np.eye(2 ** (l - 1), dtype=complex), q), np.eye(2 ** (n - l), dtype=complex))
        out += kron(np.eye(de, dtype=complex), single)
    return out


def with_zero_couplings(env: EnvironmentModel, zero_at) -> EnvironmentModel:
    """``env`` with the couplings (qubit, axis) in ``zero_at`` (0-based) replaced by zeros."""
    zero = np.zeros((env.dim, env.dim), dtype=complex)
    couplings = tuple(
        tuple(zero if (l, mu) in zero_at else h for mu, h in enumerate(triple))
        for l, triple in enumerate(env.couplings)
    )
    return EnvironmentModel(env.dim, env.rho0, env.h_env, couplings)


class TestInteractions:
    @pytest.mark.parametrize("de", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_noncontact_bit_identical_to_kron(self, de, n):
        for seed in (1, 2, 3):
            env = random_environment(n, de, seed=seed)
            assert build_noncontact(env).tobytes() == kron_noncontact(env).tobytes(), seed
        partly = with_zero_couplings(env, {(0, 1), (n - 1, 0), (n - 1, 2)})
        assert build_noncontact(partly).tobytes() == kron_noncontact(partly).tobytes()
        none = random_environment(n, de, coupling_bound=0.0, seed=4)
        assert build_noncontact(none).tobytes() == np.zeros((de * 2 ** n,) * 2, dtype=complex).tobytes()

    def test_noncontact_is_hermitian_sum(self):
        env = random_environment(2, 2, seed=9)
        v = build_noncontact(env)
        explicit = np.zeros((8, 8), dtype=complex)
        for l, triple in enumerate(env.couplings, start=1):
            for mu, h in enumerate(triple, start=1):
                explicit += kron(h, embed(mu, l, 2))
        assert np.allclose(v, explicit)

    def test_interaction_picture_stays_rank_one(self):
        # conjugation by the free evolution acts on the environment side only
        env = random_environment(2, 3, seed=13)
        v = build_noncontact(env)
        u_plus = expm_hermitian(free_hamiltonian(env).matrix(), -0.83)  # exp(+i H0 t)
        v_t = u_plus @ v @ u_plus.conj().T
        for idx, comp in decompose(v_t, 3, 2).items():
            if np.any(comp):
                assert np.count_nonzero(idx) <= 1

    def test_contact_term_matrix(self):
        spec = InteractionSpec(
            "contact", terms=(ContactTerm(0.9, (1, 1)), ContactTerm(-0.4, (3, 0)))
        )
        v = interaction_matrix(spec)
        assert np.allclose(v, 0.9 * kron(SIGMA_X, SIGMA_X) - 0.4 * kron(SIGMA_Z, np.eye(2)))

    def test_contact_defaults_to_unit_environment(self):
        spec = InteractionSpec("contact", terms=(ContactTerm(1.0, (1, 3)),))
        assert interaction_matrix(spec).shape == (4, 4)

    def test_spec_validation(self):
        with pytest.raises(ShapeError):
            InteractionSpec("magnetic")
        with pytest.raises(ShapeError):
            InteractionSpec("non_contact")
        with pytest.raises(ShapeError):
            InteractionSpec("contact")

    def test_mixed_term_lengths_rejected(self):
        spec = InteractionSpec(
            "contact", terms=(ContactTerm(1.0, (1, 0)), ContactTerm(1.0, (1, 0, 0)))
        )
        with pytest.raises(ShapeError):
            interaction_matrix(spec)


def test_evolve_without_free_part(rng):
    # the conftest reference: with no free Hamiltonian the joint unitary is exp(-i V t)
    v = random_hermitian(rng, 4)
    assert np.allclose(evolve(None, v, 0.7), expm_hermitian(v, 0.7))
