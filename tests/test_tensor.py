import numpy as np
import pytest
import scipy.linalg

from decoq.errors import ShapeError, ValidationError
from decoq.tensor import (
    DensityMatrix,
    StateVector,
    hermiticity_defect,
    kron,
    operator_norm,
    partial_trace_array,
    require_hermitian,
    trace_distance,
)

from conftest import expm_hermitian, random_density, random_hermitian, random_state, random_unitary


class TestStateVector:
    def test_accepts_normalized(self):
        psi = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert psi.dim == 4

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]), (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ShapeError):
            StateVector(np.array([1.0, 0.0, 0.0, 0.0]), (2, 3))

    def test_density_is_projector(self, rng):
        psi = StateVector(random_state(rng, 6), (2, 3))
        rho = psi.density()
        assert np.allclose(rho.array @ rho.array, rho.array, atol=1e-12)


class TestDensityMatrix:
    def test_rejects_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_nonhermitian(self):
        a = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            DensityMatrix(a, (2,))

    def test_rejects_negative(self):
        a = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(a, (2,))

    def test_accepts_mixed(self, rng):
        DensityMatrix(random_density(rng, 4), (2, 2))


def test_require_hermitian_reports_defect():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermiticity_defect(a) == 1.0
    with pytest.raises(ValidationError, match=r"^joint H is not Hermitian: max \|M - M\^dag\| = 1\.000e\+00 > 1\.0e-12$"):
        require_hermitian(a, 1e-12, "joint H")
    with pytest.raises(ShapeError, match=r"^joint H must be square, got shape \(2, 3\)$"):
        require_hermitian(np.zeros((2, 3)), 1e-12, "joint H")


def test_require_hermitian_rejects_nan():
    # a NaN defect compares false with every tolerance, so it must be refused, not passed
    a = np.eye(3, dtype=complex)
    a[1, 2] = a[2, 1] = np.nan
    with pytest.raises(ValidationError, match=r"^joint H is not Hermitian: max \|M - M\^dag\| = nan > 1\.0e-12$"):
        require_hermitian(a, 1e-12, "joint H")


def dense_defect(a):
    """max |a - a^dag| over the whole matrix: the reference for the panel-by-panel ``hermiticity_defect``."""
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T)))


class TestHermiticityDefect:
    @pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 130, 257])
    def test_bits_equal_dense_defect(self, rng, d):
        h = random_hermitian(rng, d)
        noisy = h + 1e-13 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        cases = [h, noisy, noisy.real, np.round(noisy.real * 7).astype(np.int64)]
        for i, j in [(0, d - 1), (d - 1, 0), (d // 2, d // 3), (d // 3, d // 2)]:
            bumped = h.copy()
            bumped[i, j] += 3e-11 - 2e-11j  # one entry above the diagonal or below it
            cases.append(bumped)
        diagonal = h.copy()
        diagonal[d // 2, d // 2] += 5e-12j
        cases.append(diagonal)
        for a in cases:
            assert hermiticity_defect(a) == dense_defect(a)
        assert hermiticity_defect(cases[4]) > 0.0

    def test_nan_in_a_later_panel_carries(self):
        a = np.eye(130, dtype=complex)
        a[129, 70] = np.nan
        assert np.isnan(hermiticity_defect(a))

    def test_empty_is_zero(self):
        assert hermiticity_defect(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), (0, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ShapeError, match="square"):
            hermiticity_defect(np.zeros(shape))


class TestKron:
    def test_matches_numpy(self, rng):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_associative_three_factors(self, rng):
        a, b, c = (random_hermitian(rng, d) for d in (2, 2, 3))
        assert np.allclose(kron(a, b, c), np.kron(a, np.kron(b, c)))

    def test_single_factor_identity(self, rng):
        a = random_hermitian(rng, 3)
        assert np.array_equal(kron(a), a)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            kron()


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace_array(joint, (2, 3), (0,)), rho_a, atol=1e-12)
        assert np.allclose(partial_trace_array(joint, (2, 3), (1,)), rho_b, atol=1e-12)

    def test_keep_all_is_identity(self, rng):
        rho = random_density(rng, 6)
        assert np.allclose(partial_trace_array(rho, (2, 3), (0, 1)), rho)

    def test_two_step_equals_one_step(self, rng):
        rho = random_density(rng, 12)
        one = partial_trace_array(rho, (2, 2, 3), (1,))
        two = partial_trace_array(partial_trace_array(rho, (2, 2, 3), (1, 2)), (2, 3), (0,))
        assert np.allclose(one, two, atol=1e-12)

    def test_linearity(self, rng):
        a = random_hermitian(rng, 6)
        b = random_hermitian(rng, 6)
        lhs = partial_trace_array(2.0 * a + 3.0 * b, (2, 3), (0,))
        rhs = 2.0 * partial_trace_array(a, (2, 3), (0,)) + 3.0 * partial_trace_array(b, (2, 3), (0,))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 8)
        reduced = partial_trace_array(rho, (2, 2, 2), (2,))
        assert abs(np.trace(reduced) - 1.0) < 1e-12

    def test_empty_keep_rejected(self, rng):
        with pytest.raises(ShapeError):
            partial_trace_array(random_density(rng, 4), (2, 2), ())


class TestExpmHermitian:
    """The eigendecomposition reference in conftest, which other tests propagate with."""

    def test_matches_scipy_scaling_squaring(self, rng):
        # independent oracle: Pade scaling-and-squaring of the full matrix
        h = random_hermitian(rng, 8)
        t = 0.37
        expected = scipy.linalg.expm(-1j * h * t)
        assert np.max(np.abs(expm_hermitian(h, t) - expected)) < 1e-12

    def test_unitary(self, rng):
        u = expm_hermitian(random_hermitian(rng, 6), 1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12

    def test_group_property(self, rng):
        h = random_hermitian(rng, 5)
        u1 = expm_hermitian(h, 0.4)
        u2 = expm_hermitian(h, 0.9)
        assert np.allclose(u1 @ u2, expm_hermitian(h, 1.3), atol=1e-12)

    def test_zero_time_is_identity(self, rng):
        assert np.allclose(expm_hermitian(random_hermitian(rng, 4), 0.0), np.eye(4))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([3.0, -7.0, 1.0])) == 7.0

    def test_operator_norm_unitary_invariance(self, rng):
        a = random_hermitian(rng, 5)
        u = random_unitary(rng, 5)
        assert abs(operator_norm(u @ a @ u.conj().T) - operator_norm(a)) < 1e-10

    def test_trace_distance_orthogonal_pure(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(p0, p1) - 1.0) < 1e-12

    def test_trace_distance_zero_on_equal(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) < 1e-14
