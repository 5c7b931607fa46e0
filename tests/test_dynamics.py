import numpy as np
import pytest

from decoq import tolerances as tol
from decoq.errors import ShapeError, ValidationError
from decoq.tensor import DensityMatrix, operator_norm, require_hermitian
from decoq.pauli import SIGMA_X, SIGMA_Z, decompose, pauli_string, pauli_sum
from decoq.dynamics import (
    EnvironmentModel,
    build_noncontact,
    contact_hamiltonian,
    coupling_terms,
    free_hamiltonian,
    gibbs_weights,
    random_environment,
    trivial_environment,
)

from conftest import (
    expm_hermitian,
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

    def test_rejects_nan_coupling(self):
        zero = np.zeros((2, 2))
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        bad = np.diag([0.0, np.nan])
        with pytest.raises(ValidationError, match=r"^coupling h\[2\]\[1\] is not Hermitian: max \|M - M\^dag\| = nan"):
            EnvironmentModel(2, rho, zero, ((zero, zero, zero), (bad, zero, zero)))

    @pytest.mark.parametrize("offenders", [[(0, 0)], [(1, 2)], [(2, 1), (0, 2)], [(1, 0), (1, 1), (2, 2)]])
    def test_stacked_check_names_the_first_offender(self, rng, offenders):
        de = 3
        couplings = [[random_hermitian(rng, de) for _ in range(3)] for _ in range(3)]
        for k, (l, mu) in enumerate(offenders):
            couplings[l][mu] = couplings[l][mu] + np.diag([0.0, 2e-12 * (k + 1) * 1j, 0.0])
        rho = DensityMatrix(np.eye(de) / de, (de,))
        with pytest.raises(ValidationError) as stacked:
            EnvironmentModel(de, rho, np.zeros((de, de)), tuple(map(tuple, couplings)))
        with pytest.raises(ValidationError) as looped:
            for l, triple in enumerate(couplings):  # the per-coupling check the stack replaced
                for mu, h in enumerate(triple):
                    require_hermitian(h, tol.HERMITIAN_TOL, f"coupling h[{l + 1}][{mu + 1}]")
        assert str(stacked.value) == str(looped.value)
        assert "h[%d][%d]" % tuple(x + 1 for x in min(offenders)) in str(stacked.value)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2,), (1, 1)])
    def test_coupling_of_the_wrong_shape_rejected(self, shape):
        zero = np.zeros((2, 2))
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        couplings = ((zero, zero, zero), (zero, np.zeros(shape), zero))
        with pytest.raises(ShapeError, match=r"^coupling h\[2\]\[2\] must be 2 x 2, got shape "):
            EnvironmentModel(2, rho, zero, couplings)

    def test_couplings_stored_complex(self):
        zero = np.zeros((2, 2), dtype=np.int64)
        env = EnvironmentModel(2, DensityMatrix(np.eye(2) / 2, (2,)), zero, ((zero, np.eye(2), zero),))
        assert all(h.dtype == complex and h.shape == (2, 2) for triple in env.couplings for h in triple)
        assert env.couplings[0][1].tolist() == np.eye(2).tolist()

    @pytest.mark.parametrize("n, de", [(0, 1), (1, 1), (3, 2), (2, 3)])
    def test_couplings_held_as_one_array(self, n, de):
        drawn = random_environment(n, de, seed=3)
        nested = tuple(tuple(np.array(h) for h in triple) for triple in drawn.couplings)
        rebuilt = EnvironmentModel(de, drawn.rho0, drawn.h_env, nested)
        for env in (drawn, rebuilt, trivial_environment(n)):
            assert isinstance(env.couplings, np.ndarray)
            assert env.couplings.dtype == complex
            assert env.couplings.shape == (n, 3, env.dim, env.dim)
            assert len(env.couplings) == env.n_qubits == n
        assert rebuilt.couplings.tobytes() == drawn.couplings.tobytes()

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


def kron_noncontact(env: EnvironmentModel, qubits=None) -> np.ndarray:
    """Reference V, or V^l summed over the 0-based ``qubits`` only: one dense kron(h, sigma^l_mu)
    per nonzero coupling, added in (l, mu) order."""
    n = env.n_qubits
    d = env.dim * 2 ** n
    v = np.zeros((d, d), dtype=complex)
    for l in range(n) if qubits is None else qubits:
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

    @pytest.mark.parametrize("de", [1, 3])
    @pytest.mark.parametrize("n", [1, 5])
    def test_qubit_coupling_bit_identical_to_kron(self, de, n):
        env = random_environment(n, de, seed=5)
        partly = with_zero_couplings(env, {(0, 1), (n - 1, 0), (n - 1, 2)})
        for model in (env, partly):
            for l in range(n):
                v_l = pauli_sum(coupling_terms(model, [l]), de, n)
                assert v_l.tobytes() == kron_noncontact(model, [l]).tobytes(), l

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
        for idx, comp in decompose(v_t, 3, 2).items():
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
