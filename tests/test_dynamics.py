import numpy as np
import pytest

from decoq import tolerances as tol
from decoq.errors import ShapeError, ValidationError
from decoq.tensor import DensityMatrix, hermiticity_defect, operator_norm, require_hermitian
from decoq.pauli import SIGMA_X, SIGMA_Z, decompose, pauli_string
from decoq.dynamics import (
    EnvironmentModel,
    build_noncontact,
    contact_environment,
    contact_hamiltonian,
    free_hamiltonian,
    gibbs_weights,
    random_environment,
    trivial_environment,
)

from conftest import (
    expm_hermitian,
    noncontact_terms,
    one_letter,
    pair_flip_product,
    random_density,
    random_hermitian,
    single_flip_product,
)


def dephasing_environment(rng, de: int) -> tuple[EnvironmentModel, np.ndarray]:
    """Single qubit coupled through sigma_z only; returns (env, h)."""
    h = random_hermitian(rng, de)
    zero = np.zeros((de, de), dtype=complex)
    rho = DensityMatrix(random_density(rng, de))
    env = EnvironmentModel(rho, zero, ((h, (3,)),))
    return env, h


class TestEnvironmentModel:
    def test_rejects_nonhermitian_coupling(self, rng):
        de = 2
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = DensityMatrix(np.eye(de) / de)
        zero = np.zeros((de, de))
        with pytest.raises(ValidationError):
            EnvironmentModel(rho, zero, ((bad, (3,)),))

    def test_rejects_nan_coupling(self):
        zero = np.zeros((2, 2))
        rho = DensityMatrix(np.eye(2) / 2)
        bad = np.diag([0.0, np.nan])
        with pytest.raises(ValidationError, match=r"^operator of term 4 \(Pauli string \(0, 1\)\) is not Hermitian: max \|M - M\^dag\| = nan"):
            EnvironmentModel(rho, zero, noncontact_terms(((zero, zero, zero), (bad, zero, zero))))

    @pytest.mark.parametrize("offenders", [[(0, 0)], [(1, 2)], [(2, 1), (0, 2)], [(1, 0), (1, 1), (2, 2)]])
    def test_stacked_check_names_the_first_offender(self, rng, offenders):
        de = 3
        couplings = [[random_hermitian(rng, de) for _ in range(3)] for _ in range(3)]
        for k, (l, mu) in enumerate(offenders):
            couplings[l][mu] = couplings[l][mu] + np.diag([0.0, 2e-12 * (k + 1) * 1j, 0.0])
        rho = DensityMatrix(np.eye(de) / de)
        terms = noncontact_terms(couplings)
        with pytest.raises(ValidationError) as stacked:
            EnvironmentModel(rho, np.zeros((de, de)), terms)
        with pytest.raises(ValidationError) as looped:
            for k, (h, v) in enumerate(terms):  # the per-term check the stack replaced
                require_hermitian(h, tol.HERMITIAN_TOL, f"operator of term {k + 1} (Pauli string {v})")
        assert str(stacked.value) == str(looped.value)
        l, mu = min(offenders)
        assert f"term {3 * l + mu + 1} " in str(stacked.value)

    def test_environment_hamiltonian_of_the_wrong_size_rejected(self):
        # d_e is read off rho0; an h_env of another size would fail later in free_hamiltonian + V
        zero = np.zeros((2, 2))
        with pytest.raises(ShapeError, match=r"^environment Hamiltonian is 3 x 3, rho0 is 2 x 2$"):
            EnvironmentModel(DensityMatrix(np.eye(2) / 2), np.zeros((3, 3)), ((np.eye(2), (3,)),))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2,), (1, 1), ()])
    def test_coupling_of_the_wrong_shape_rejected(self, shape):
        # a scalar is an operator only at d_e = 1
        zero = np.zeros((2, 2))
        rho = DensityMatrix(np.eye(2) / 2)
        couplings = ((zero, zero, zero), (zero, np.zeros(shape), zero))
        with pytest.raises(ShapeError, match=r"^operator of term 5 must be 2 x 2, got shape "):
            EnvironmentModel(rho, zero, noncontact_terms(couplings))

    def test_strings_of_several_lengths_or_bad_letters_rejected(self):
        with pytest.raises(ShapeError, match="^need a stack of equal-length Pauli index vectors"):
            contact_environment([(1.0, (1, 0)), (1.0, (1, 0, 0))])
        with pytest.raises(ShapeError, match="0..3"):
            contact_environment([(1.0, (1, 4))])
        with pytest.raises(ValidationError, match=r"^operator of term 2 \(Pauli string \(0, 3\)\) is not Hermitian"):
            contact_environment([(1.0, (1, 0)), (0.5 + 1e-6j, (0, 3))])

    def test_near_hermitian_couplings_build_v(self):
        # each z-coupling passes HERMITIAN_TOL alone; unsymmetrized, the n defects add up on V's diagonal blocks
        drawn = random_environment(5, 2, 1.0, 0.0, 7)
        couplings = drawn.couplings.copy()
        couplings[:, 2, 0, 1] += 0.9e-12
        env = EnvironmentModel(drawn.rho0, drawn.h_env, noncontact_terms(couplings))
        assert np.array_equal(env.couplings, (couplings + couplings.conj().swapaxes(-1, -2)) / 2)
        v = build_noncontact(env)
        assert np.array_equal(v, v.conj().T)

    def test_hermitian_parts_stored_exact_on_hermitian_input(self, rng):
        h_env, coupling = random_hermitian(rng, 3), random_hermitian(rng, 3)
        skewed = h_env + np.triu(np.full((3, 3), 0.5e-12j), 1)
        env = EnvironmentModel(DensityMatrix(np.eye(3) / 3), skewed, noncontact_terms(((coupling, -coupling, 2 * coupling),)))
        assert np.array_equal(env.h_env, env.h_env.conj().T) and np.allclose(env.h_env, h_env, rtol=0, atol=1e-12)
        assert np.array_equal(env.couplings, np.stack([coupling, -coupling, 2 * coupling])[None])

    def test_couplings_stored_complex(self):
        zero = np.zeros((2, 2), dtype=np.int64)
        env = EnvironmentModel(DensityMatrix(np.eye(2) / 2), zero, noncontact_terms(((zero, np.eye(2), zero),)))
        assert all(h.dtype == complex and h.shape == (2, 2) for h, _ in env.terms)
        assert all(h.dtype == complex and h.shape == (2, 2) for triple in env.couplings for h in triple)
        assert env.couplings[0][1].tolist() == np.eye(2).tolist()

    @pytest.mark.parametrize("n, de", [(0, 1), (1, 1), (3, 2), (2, 3)])
    def test_couplings_held_as_one_array(self, n, de):
        drawn = random_environment(n, de, seed=3)
        nested = tuple(tuple(np.array(h) for h in triple) for triple in drawn.couplings)
        rebuilt = EnvironmentModel(drawn.rho0, drawn.h_env, noncontact_terms(nested))
        for env in (drawn, rebuilt, trivial_environment(n)):
            assert isinstance(env.couplings, np.ndarray)
            assert env.couplings.dtype == complex
            assert env.couplings.shape == (n, 3, env.dim, env.dim)
            assert len(env.couplings) == env.n_qubits == n
        assert rebuilt.couplings.tobytes() == drawn.couplings.tobytes()

    def test_couplings_need_the_noncontact_layout(self):
        # the triples are read off terms sigma^l_mu in (l, mu) order; a contact record has none
        with pytest.raises(ShapeError, match="one per qubit and Pauli axis"):
            contact_environment([(0.9, (1, 1)), (-0.4, (3, 0))]).couplings
        drawn = random_environment(2, 2, seed=3)
        with pytest.raises(ShapeError, match="one per qubit and Pauli axis"):
            EnvironmentModel(drawn.rho0, drawn.h_env, drawn.terms[::-1]).couplings

    @pytest.mark.parametrize("de", [1, 2, 3, 8])
    def test_coupling_bound_bits_equal_per_coupling_norms(self, de):
        for seed in (1, 2, 7):
            for bound in (1.0, 0.37, 2.5, 0.0):
                env = random_environment(4, de, coupling_bound=bound, seed=seed)
                norms = [operator_norm(h) for triple in env.couplings for h in triple]
                assert env.coupling_bound == max(norms)
        assert trivial_environment(5).coupling_bound == 0.0
        assert trivial_environment(0).coupling_bound == 0.0

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

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.3, 745.0, 1e308])
    def test_gibbs_weights_bit_identical_for_nonnegative_beta(self, beta):
        # for beta >= 0 the reference level is 0, so the weights are exp(-beta i) / sum to the bit
        with np.errstate(over="ignore", under="ignore"):
            w = np.exp(-beta * np.arange(5, dtype=float))
        assert gibbs_weights(5, beta).tobytes() == (w / w.sum()).tobytes()

    @pytest.mark.parametrize("beta", [-0.3, -300.0, -1000.0, -1e308])
    def test_gibbs_weights_finite_for_negative_beta(self, beta):
        # the top level carries weight 1 and the others fall below it, so nothing overflows
        w = gibbs_weights(4, beta)
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(w, w[1:]))
        assert w[-1] > 0.0
        np.testing.assert_allclose(w, gibbs_weights(4, -beta)[::-1], rtol=1e-15, atol=0.0)

    def test_random_environment_beta(self):
        env = random_environment(1, 4, beta=0.9, seed=3)
        diag = np.diag(env.rho0.array).real
        assert all(a > b for a, b in zip(diag, diag[1:]))
        assert np.allclose(np.diag(env.h_env), np.arange(4))


class TestFreeHamiltonian:
    def test_default_qubit_terms_zero(self):
        env = random_environment(2, 2, seed=5)
        assert free_hamiltonian(env).tobytes() == np.kron(env.h_env, np.eye(4, dtype=complex)).tobytes()

    def test_zero_terms_skipped_without_changing_values(self):
        # the register has no free term: h_env (x) 1 has the bytes of adding zero qubit terms
        for de in (1, 2, 3, 8):
            env = random_environment(5, de, seed=de)
            assert free_hamiltonian(env).tobytes() == kron_free_matrix(env).tobytes(), de

    @pytest.mark.parametrize("de", [1, 2, 8])
    def test_onto_adds_the_free_part_in_place(self, rng, de):
        # a non-diagonal h_env: block (e, f) of V gains h_env[e, f] on its register diagonal
        drawn = random_environment(3, de, seed=de)
        env = EnvironmentModel(drawn.rho0, random_hermitian(rng, de), drawn.terms)
        v = build_noncontact(env)
        expected = free_hamiltonian(env) + v
        h = free_hamiltonian(env, onto=v)
        assert h is v
        assert np.array_equal(h, expected) and h.tobytes() == expected.tobytes()

    def test_onto_needs_the_joint_array(self):
        env = random_environment(2, 2, seed=3)
        v = build_noncontact(env)
        for onto in (v[:4, :4], v.real.copy(), v.T, v.tolist()):
            with pytest.raises(ShapeError, match="C-contiguous complex 8 x 8 array"):
                free_hamiltonian(env, onto=onto)


def drawn_couplings(n: int, de: int, coupling_bound: float, seed: int) -> list[np.ndarray]:
    """Reference draw: one coupling at a time, real then imaginary part, each rescaled to its own norm."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for _ in range(3 * n):
        g = rng.standard_normal((de, de)) + 1j * rng.standard_normal((de, de))
        h = (g + g.conj().T) / 2.0
        norm = operator_norm(h)
        out.append(np.zeros_like(h) if coupling_bound == 0.0 or norm == 0.0 else h * (coupling_bound / norm))
    return out


@pytest.mark.parametrize("n,de", [(1, 1), (1, 2), (2, 3), (3, 2), (5, 2), (5, 8), (7, 4)])
@pytest.mark.parametrize("coupling_bound", [1.0, 0.37, 0.0])
def test_random_environment_bit_identical_to_per_coupling_draws(n, de, coupling_bound):
    for seed in (0, 7, 42):
        env = random_environment(n, de, coupling_bound=coupling_bound, seed=seed)
        drawn = [h for triple in env.couplings for h in triple]
        assert len(drawn) == 3 * n
        for k, (h, ref) in enumerate(zip(drawn, drawn_couplings(n, de, coupling_bound, seed))):
            assert h.tobytes() == ref.tobytes(), (seed, k)


def embed_single_flip(omegas) -> np.ndarray:
    """Reference single-flip drive: a sum of dense embedded sigma_x."""
    n = len(omegas)
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for l, w in enumerate(omegas, start=1):
        h += float(w) * pauli_string(one_letter(1, l, n))
    return h


def embed_pair_flip(pairs, n: int) -> np.ndarray:
    """Reference pair-flip drive: a sum of dense products of embedded sigma_x."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for (k, l), w in pairs.items():
        h += float(w) * (pauli_string(one_letter(1, k, n)) @ pauli_string(one_letter(1, l, n)))
    return h


def single_flip_drive(omegas) -> np.ndarray:
    """The single-flip drive sum_l omega_l sigma_x^l, as contact terms in qubit order, as the runner builds it."""
    n = len(omegas)
    return contact_hamiltonian([(w, one_letter(1, l, n)) for l, w in enumerate(omegas, start=1)], n)


def pair_flip_drive(pairs, n: int) -> np.ndarray:
    """The pair-flip drive sum omega_kl sigma_x^k sigma_x^l, as contact terms in the order of ``pairs``, as the runner builds it."""
    return contact_hamiltonian([(w, [int(i in pair) for i in range(1, n + 1)]) for pair, w in pairs.items()], n)


class TestFlipDrives:
    """The flip drives are contact terms: bit for bit the dense sums, and the closed-form evolutions."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_single_flip_bit_identical_to_embed_sum(self, rng, n):
        omegas = tuple(rng.uniform(-1.5, 1.5, n))
        assert single_flip_drive(omegas).tobytes() == embed_single_flip(omegas).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_pair_flip_bit_identical_to_embed_sum(self, rng, n):
        every = {(k, l): float(rng.uniform(-1.0, 1.0)) for k in range(1, n + 1) for l in range(1, n + 1) if k != l}
        some = {(1, 2): 0.8, (n, 1): -0.65}  # (n, 1) flips the same bits as (1, n)
        for pairs in (every, some, {}):
            assert pair_flip_drive(pairs, n).tobytes() == embed_pair_flip(pairs, n).tobytes()

    def test_single_flip_matches_exponential(self):
        # closed form follows the +i product convention, so compare to exp(+iHt)
        omegas = (0.9, 1.1, 0.75)
        t = 0.37
        h = single_flip_drive(omegas)
        assert np.max(np.abs(single_flip_product(omegas, t) - expm_hermitian(h, -t))) < 1e-12

    def test_single_flip_quarter_period(self):
        u = expm_hermitian(single_flip_drive((1.0,)), -np.pi / 2)
        assert np.allclose(u, 1j * SIGMA_X, atol=1e-12)

    def test_single_flip_spectrum(self):
        evals = np.linalg.eigvalsh(single_flip_drive((0.9, 1.3)))
        expected = sorted([0.9 + 1.3, 0.9 - 1.3, -0.9 + 1.3, -0.9 - 1.3])
        assert np.allclose(evals, expected)

    def test_pair_flip_matches_exponential(self):
        pairs = {(1, 2): 0.8, (2, 3): 0.65, (1, 3): 0.7}
        t = 0.52
        h = pair_flip_drive(pairs, 3)
        assert np.max(np.abs(pair_flip_product(pairs, 3, t) - expm_hermitian(h, -t))) < 1e-12


def kron_noncontact(env: EnvironmentModel) -> np.ndarray:
    """Reference V: one dense kron(h, sigma^l_mu) per nonzero coupling, added in (l, mu) order."""
    n = env.n_qubits
    d = env.dim * 2 ** n
    v = np.zeros((d, d), dtype=complex)
    for l in range(n):
        for mu, h in enumerate(env.couplings[l], start=1):
            if np.any(h):
                v += np.kron(h, pauli_string(one_letter(mu, l + 1, n)))
    return v


def kron_free_matrix(env: EnvironmentModel) -> np.ndarray:
    """Reference free part: h_env (x) 1 plus one kron per qubit of a zero qubit term."""
    de, n = env.dim, env.n_qubits
    out = np.kron(env.h_env, np.eye(2 ** n, dtype=complex))
    zero = np.zeros((2, 2), dtype=complex)
    for l in range(1, n + 1):
        single = np.kron(np.kron(np.eye(2 ** (l - 1), dtype=complex), zero), np.eye(2 ** (n - l), dtype=complex))
        out += np.kron(np.eye(de, dtype=complex), single)
    return out


def with_zero_couplings(env: EnvironmentModel, zero_at) -> EnvironmentModel:
    """``env`` with the couplings (qubit, axis) in ``zero_at`` (0-based) replaced by zeros."""
    zero = np.zeros((env.dim, env.dim), dtype=complex)
    couplings = tuple(
        tuple(zero if (l, mu) in zero_at else h for mu, h in enumerate(triple))
        for l, triple in enumerate(env.couplings)
    )
    return EnvironmentModel(env.rho0, env.h_env, noncontact_terms(couplings))


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

    def test_v_and_h_exactly_hermitian(self, rng):
        # entry (j, i) of V sums the conjugates of entry (i, j)'s addends in the same order, so the defect is 0.0
        # and a run checks its joint H once; seeded non-contact draws, contact weights and random multi-qubit terms
        models = [random_environment(n, de, beta=0.7, seed=seed) for n in (1, 3, 5) for de in (1, 2, 5) for seed in (0, 1)]
        models.append(contact_environment([(0.9, (1, 1, 0)), (-0.25, (0, 0, 3)), (0.4, (0, 2, 3)), (1.3, (2, 2, 2))]))
        for de, n in ((1, 4), (3, 3), (4, 2)):
            strings = rng.integers(0, 4, size=(6, n))
            models.append(EnvironmentModel(DensityMatrix(np.eye(de) / de), np.zeros((de, de)), [(random_hermitian(rng, de), v) for v in strings]))
        for model in models:
            env = EnvironmentModel(model.rho0, random_hermitian(rng, model.dim), model.terms)  # h_env off the diagonal too
            v = build_noncontact(env)
            assert hermiticity_defect(v) == 0.0
            assert hermiticity_defect(free_hamiltonian(env, onto=v)) == 0.0

    def test_noncontact_is_hermitian_sum(self):
        env = random_environment(2, 2, seed=9)
        v = build_noncontact(env)
        explicit = np.zeros((8, 8), dtype=complex)
        for l, triple in enumerate(env.couplings, start=1):
            for mu, h in enumerate(triple, start=1):
                explicit += np.kron(h, pauli_string(one_letter(mu, l, 2)))
        assert np.allclose(v, explicit)

    def test_interaction_picture_stays_rank_one(self):
        # conjugation by the free evolution acts on the environment side only
        env = random_environment(2, 3, seed=13)
        v = build_noncontact(env)
        u_plus = expm_hermitian(free_hamiltonian(env), -0.83)  # exp(+i H0 t)
        v_t = u_plus @ v @ u_plus.conj().T
        for idx, comp in decompose(v_t, 2).items():
            if np.any(comp):
                assert np.count_nonzero(idx) <= 1

    def test_contact_term_matrix(self):
        v = contact_hamiltonian([(0.9, (1, 1)), (-0.4, (3, 0))], 2)
        assert np.allclose(v, 0.9 * np.kron(SIGMA_X, SIGMA_X) - 0.4 * np.kron(SIGMA_Z, np.eye(2)))

    def test_contact_defaults_to_unit_environment(self):
        assert contact_hamiltonian([(1.0, (1, 3))], 2).shape == (4, 4)

    def test_mixed_term_lengths_rejected(self):
        with pytest.raises(ShapeError):
            contact_hamiltonian([(1.0, (1, 0)), (1.0, (1, 0, 0))], 2)
        with pytest.raises(ShapeError):
            contact_hamiltonian([(1.0, (1, 0, 0)), (1.0, (1, 0))], 3)
