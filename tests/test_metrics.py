import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import decoq.metrics
from decoq.errors import FitError, ShapeError, UnsupportedInteractionError, ValidationError
from decoq.tensor import DensityMatrix, operator_norm
from decoq.dynamics import (
    ContactTerm,
    EnvironmentModel,
    InteractionSpec,
    build_noncontact,
    free_hamiltonian,
    interaction_matrix,
    random_environment,
    trivial_environment,
)
from decoq.codes import asymptotic_x0, build_code, encode_logical, recovery_channel, recovery_unitary
from decoq.metrics import (
    FidelityCurve,
    _bloch_pair,
    _CorrectionPipeline,
    _pauli_covariance,
    _sphere_argmax,
    _sphere_error,
    _sphere_supremum,
    _state_error,
    _taylor_sum,
    _taylor_terms,
    _twist,
    code_error,
    error_bound,
    fit_power_law,
    leading_coefficient,
    periodic_correction_decay,
    stabilization_bound,
    threshold_time,
)

from conftest import evolve, random_density, random_hermitian

PSI = (0.6, 0.8j)
SHIPPED_CODES = ("identity", "repetition-3", "repetition-5", "five_qubit")


class DilationReference:
    """E through the unitary dilation: propagate, append a fresh ancilla,
    apply ``recovery_unitary`` and weigh the complement of the encoded state."""

    def __init__(self, code, env, h0, v, t):
        self.code, self.env = code, env
        self.u = evolve(h0, v, t)
        self.recovery = recovery_unitary(code)
        self.ancilla = np.zeros(code.ancilla_dim, dtype=complex)
        self.ancilla[0] = 1.0
        self.env_weights, self.env_vecs = np.linalg.eigh(env.rho0.array)

    def __call__(self, psi_logical) -> float:
        de, dc, da = self.env.dim, self.code.register_dim, self.code.ancilla_dim
        psi_bar = encode_logical(self.code, *psi_logical).amplitudes
        total = 0.0
        for wi, evec in zip(self.env_weights, self.env_vecs.T):
            if wi <= 1e-15:
                continue
            vec_t = self.u @ np.kron(evec, psi_bar)
            joint = np.kron(vec_t, self.ancilla).reshape(de, dc * da)
            after = (joint @ self.recovery.T).reshape(de, dc, da)
            amp = np.einsum("c,eca->ea", psi_bar.conj(), after)
            resid = after - psi_bar[None, :, None] * amp[:, None, :]
            total += float(wi) * float(np.vdot(resid, resid).real)
        return total


def dense_periodic_reference(code, env, h0, v, dt, cycles, psi_logical, corrected):
    """Fidelity trace on the full joint density matrix: one ``evolve`` step per
    cycle, then every kron(1_env, K_s) of the recovery channel."""
    psi_bar = encode_logical(code, *psi_logical).amplitudes
    eye_e = np.eye(env.dim)
    p_full = np.kron(eye_e, np.outer(psi_bar, psi_bar.conj()))
    rho = np.kron(env.rho0.array, np.outer(psi_bar, psi_bar.conj()))
    u = evolve(h0, v, dt)
    kraus = [np.kron(eye_e, k) for k in recovery_channel(code).operators]
    fidelities = [1.0]
    for _ in range(cycles):
        rho = u @ rho @ u.conj().T
        if corrected:
            rho = sum(k @ rho @ k.conj().T for k in kraus)
        fidelities.append(float(np.einsum("ij,ji->", rho, p_full).real))
    return fidelities


def shipped_model(name, seed):
    code = build_code(name)
    env = random_environment(code.n, 2, seed=seed)
    return code, env, free_hamiltonian(env), build_noncontact(env)


def dephasing_environment(rng, de):
    h = random_hermitian(rng, de)
    zero = np.zeros((de, de), dtype=complex)
    rho = DensityMatrix(random_density(rng, de), (de,))
    return EnvironmentModel(de, rho, zero, ((zero, zero, h),)), h


class TestCurveTypes:
    def test_curve_rejects_disorder(self):
        with pytest.raises(ValidationError):
            FidelityCurve(((0.2, 0.5), (0.1, 0.6)))

    def test_curve_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            FidelityCurve(((0.1, 1.5),))


class TestFidelity:
    def test_zero_coupling_is_lossless(self):
        env = random_environment(5, 2, coupling_bound=0.0, seed=4)
        code = build_code("five_qubit")
        v = build_noncontact(env)
        e = _CorrectionPipeline(code, env, free_hamiltonian(env), v).error_direct(PSI, 2.0)
        assert 1.0 - e == pytest.approx(1.0, abs=1e-12)
        e = _CorrectionPipeline(code, env, None, v).error_direct(PSI, 2.0)
        assert e == pytest.approx(0.0, abs=1e-14)

    def test_pure_dephasing_analytic(self, rng):
        # identity code, sigma_z coupling, |+> state:
        #   F(t) = 1/2 + Re tr[rho_e exp(-2 i h t)] / 2
        env, h = dephasing_environment(rng, 3)
        code = build_code("identity")
        v = build_noncontact(env)
        t = 0.7
        psi_plus = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        expected = 0.5 + np.trace(env.rho0.array @ scipy.linalg.expm(-2j * h * t)).real / 2.0
        e = _CorrectionPipeline(code, env, None, v).error_direct(psi_plus, t)
        assert 1.0 - e == pytest.approx(expected, abs=1e-12)

    def test_matches_dilation_reference(self, rng):
        for name in SHIPPED_CODES:
            code, env, h0, v = shipped_model(name, 23)
            pipeline = _CorrectionPipeline(code, env, h0, v)
            for t in (0.02, 0.2, 0.9):
                reference = DilationReference(code, env, h0, v, t)
                for _ in range(4):
                    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    psi = tuple(raw / np.linalg.norm(raw))
                    want = reference(psi)
                    assert pipeline.error_direct(psi, t) == pytest.approx(want, rel=1e-9), (name, t)

    def test_energy_scale_equivariance(self):
        # exp(-i (sV) (t/s)) = exp(-i V t): rescaling energy and time cancels
        env = random_environment(3, 2, seed=29)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        s = 3.7
        e1 = _CorrectionPipeline(code, env, None, v).error_direct(PSI, 0.8)
        e2 = _CorrectionPipeline(code, env, None, s * v).error_direct(PSI, 0.8 / s)
        assert e1 == pytest.approx(e2, abs=1e-12)

    def test_logical_pair_required(self):
        env = trivial_environment(1)
        code = build_code("identity")
        with pytest.raises(ShapeError):
            _CorrectionPipeline(code, env, None, np.zeros((2, 2))).error_direct((1.0, 0.0, 0.0), 0.1)


class TestCodeError:
    def test_dominates_fixed_state(self):
        env = random_environment(1, 2, seed=31)
        code = build_code("identity")
        v = build_noncontact(env)
        sup = code_error(code, env, None, v, 0.4)
        pipeline = _CorrectionPipeline(code, env, None, v)
        pole = pipeline.error_direct((1.0, 0.0), 0.4)
        generic = pipeline.error_direct(PSI, 0.4)
        assert sup.value + 1e-14 >= pole
        assert sup.value + 1e-14 >= generic
        assert float(sup) == sup.value

    def test_supremum_dominates_reference_grid(self):
        # the exact supremum is at least every point of a 16 x 16 grid
        # evaluated through the dilation, up to their 1e-9 agreement
        for name, t in (("identity", 0.5), ("repetition-3", 0.3), ("five_qubit", 0.05)):
            code, env, h0, v = shipped_model(name, 37)
            sup = _CorrectionPipeline(code, env, h0, v).supremum(t)
            reference = DilationReference(code, env, h0, v, t)
            grid = [
                reference(_bloch_pair(theta, phi))
                for theta in np.linspace(0.0, math.pi, 16)
                for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
            ]
            assert sup.value >= max(grid) * (1.0 - 1e-9), name
            assert reference(_bloch_pair(sup.theta, sup.phi)) == pytest.approx(sup.value, rel=1e-9)

    def test_angles_in_range(self):
        code, env, h0, v = shipped_model("five_qubit", 41)
        pipeline = _CorrectionPipeline(code, env, h0, v)
        for t in (1e-3, 0.1, 1.0):
            sup = pipeline.supremum(t)
            assert 0.0 <= sup.theta <= math.pi
            assert 0.0 <= sup.phi < 2.0 * math.pi

    def test_zero_covariance_reports_pole(self):
        # no coupling and no free term: the blocks are exactly the identity
        code = build_code("repetition-3")
        env = trivial_environment(3)
        sup = _CorrectionPipeline(code, env, None, np.zeros((8, 8))).supremum(0.7)
        assert (sup.value, sup.theta, sup.phi) == (0.0, 0.0, 0.0)


WIDE_GRID = tuple(float(t) for t in np.geomspace(2e-3, 1.6e-2, 3))


def wide_model(seed):
    """five_qubit at d_e = 8: the joint dimension is 256, where short grids use the Taylor basis."""
    code = build_code("five_qubit")
    env = random_environment(code.n, 8, seed=seed)
    return code, env, free_hamiltonian(env), build_noncontact(env)


def taylor_radius(pipeline):
    """(mu, ||H - mu||_1, the largest t with t ||H - mu||_1 <= 1 in floating point)."""
    d = len(pipeline.h)
    mu = float(np.trace(pipeline.h).real) / d
    norm = float(np.abs(pipeline.h - mu * np.eye(d)).sum(axis=0).max())
    t = 1.0 / norm
    while t * norm > 1.0:
        t = float(np.nextafter(t, 0.0))
    return mu, norm, t


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Dimension of every eigh call from here on; the joint one is 64 or 256 below."""
    sizes = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


class TestTaylorPropagation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_eigendecomposition(self, seed, eigh_sizes):
        pipeline = _CorrectionPipeline(*wide_model(seed))
        mu, _, t_edge = taylor_radius(pipeline)
        shifted = pipeline.h - mu * np.eye(len(pipeline.h))
        for grid in (WIDE_GRID, WIDE_GRID + (t_edge,)):
            eigh_sizes.clear()
            taylor = pipeline.covariances(grid)
            assert 256 not in eigh_sizes
            tau = max(grid)
            terms = _taylor_terms(shifted, pipeline.start, tau)
            assert len(terms) <= 22
            start = pipeline.eigenbasis()[2]
            for t, c_taylor in zip(grid, taylor):
                moved = pipeline.propagate(t, start)
                assert np.max(np.abs(_taylor_sum(terms, t, tau, mu) - moved)) <= 1e-13, (seed, t)
                c_dense = _pauli_covariance(pipeline.readout, moved, pipeline.env_dim)
                got, want = _sphere_supremum(c_taylor), _sphere_supremum(c_dense)
                assert got.value == pytest.approx(want.value, rel=1e-9), (seed, t)
                assert abs(got.theta - want.theta) <= 1e-7
                assert abs(math.remainder(got.phi - want.phi, 2.0 * math.pi)) <= 1e-7
                assert _state_error(c_taylor, PSI) == pytest.approx(_state_error(c_dense, PSI), rel=1e-9)

    def test_dense_below_taylor_dimension(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*shipped_model("five_qubit", 1))
        pipeline.covariances(WIDE_GRID)
        pipeline.covariances(WIDE_GRID)
        assert eigh_sizes.count(64) == 1

    def test_short_grid_at_256_skips_eigh(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*wide_model(1))
        pipeline.covariances(WIDE_GRID)
        pipeline.supremum(WIDE_GRID[-1])
        assert eigh_sizes.count(256) == 0

    def test_long_grid_and_decay_at_256_use_one_eigh(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*wide_model(1))
        _, _, t_edge = taylor_radius(pipeline)
        long_grid = (1e-3, 2.0 * t_edge)
        pipeline.covariances(long_grid)
        assert eigh_sizes.count(256) == 1
        pipeline.decay(0.12, 10, PSI)
        pipeline.covariances(long_grid)
        assert eigh_sizes.count(256) == 1
        fresh = _CorrectionPipeline(*wide_model(1))
        fresh.decay(0.12, 10, PSI, apply_correction=False)
        fresh.decay(0.06, 10, PSI)
        assert eigh_sizes.count(256) == 2

    def test_series_cap_raises(self):
        pipeline = _CorrectionPipeline(*wide_model(1))
        _, norm, _ = taylor_radius(pipeline)
        with pytest.raises(ValidationError, match="did not converge"):
            _taylor_terms(pipeline.h, pipeline.start, 50.0 / norm)

    @pytest.mark.parametrize("grid", [(math.nan,), (1e-3, math.nan), (math.inf, 1e-3), (-math.inf,)])
    def test_non_finite_times_rejected(self, grid, monkeypatch):
        monkeypatch.setattr(decoq.metrics, "_taylor_terms", None)  # reaching the series would be a TypeError
        for model in (wide_model(1), shipped_model("identity", 1)):
            with pytest.raises(ShapeError, match="finite"):
                _CorrectionPipeline(*model).covariances(grid)


def _sphere_points(rng, count):
    pts = rng.standard_normal((count, 3))
    axes = np.vstack([np.eye(3), -np.eye(3)])
    return np.vstack([axes, pts / np.linalg.norm(pts, axis=1, keepdims=True)])


_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestSphereMaximum:
    @_PROPERTY
    @given(st.lists(_entries, min_size=9, max_size=9), st.lists(_entries, min_size=3, max_size=3),
           st.sampled_from([0.0, 1e-6, 1.0]))
    def test_beats_sampled_points(self, b_entries, w_entries, w_scale):
        b = np.array(b_entries).reshape(3, 3)
        m = b @ b.T
        w = w_scale * np.array(w_entries)
        r = _sphere_argmax(m, w)
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
        best = float(w @ r - r @ m @ r)
        pts = _sphere_points(np.random.default_rng(0), 400)
        sampled = pts @ w - np.einsum("pi,ij,pj->p", pts, m, pts)
        assert best >= float(np.max(sampled)) - 1e-12
        # global optimality certificate of the trust-region subproblem: the
        # gradient w - 2 m r is 2 lam r, and m + lam is positive semidefinite
        grad = w - 2.0 * m @ r
        lam = float(grad @ r) / 2.0
        assert np.linalg.norm(grad - 2.0 * lam * r) <= 1e-6
        assert np.linalg.eigvalsh(m + lam * np.eye(3))[0] >= -1e-6

    @_PROPERTY
    @given(st.lists(_entries, min_size=24, max_size=24))
    def test_physical_error_in_unit_interval(self, entries):
        # three logical Kraus blocks of a random channel, stacked as a 6 x 2 isometry
        g = np.array(entries[:12]).reshape(6, 2) + 1j * np.array(entries[12:]).reshape(6, 2)
        if np.linalg.svd(g, compute_uv=False)[-1] < 1e-6:
            return
        q, _ = np.linalg.qr(g)
        c = _pauli_covariance(np.eye(2, dtype=complex)[None], q, 3)
        values = [_sphere_error(c, p) for p in _sphere_points(np.random.default_rng(1), 100)]
        assert min(values) >= -1e-12 and max(values) <= 1.0 + 1e-12
        scale = float(np.trace(c).real)
        if scale > 0.0:
            r = _sphere_argmax(c.real / scale, _twist(c) / scale)
            top = _sphere_error(c, r)
            assert -1e-12 <= top <= 1.0 + 1e-12
            assert top >= max(values) - 1e-12

    def test_hard_case_zero_w(self):
        m = np.diag([0.5, 0.2, 0.9])
        r = _sphere_argmax(m, np.zeros(3))
        assert abs(r[1]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_matrix_and_zero_w(self):
        r = _sphere_argmax(np.zeros((3, 3)), np.zeros(3))
        assert np.linalg.norm(r) == pytest.approx(1.0)


class TestFitPowerLaw:
    def test_recovers_synthetic_law(self):
        ts = np.geomspace(1e-3, 1e-1, 12)
        curve = tuple((t, 2.5 * t ** 3) for t in ts)
        fit = fit_power_law(curve)
        assert fit.exponent == pytest.approx(3.0, abs=1e-9)
        assert fit.coefficient == pytest.approx(2.5, rel=1e-9)
        assert fit.window == (ts[0], ts[-1])
        assert fit.max_residual < 1e-12

    def test_floor_discards_dead_samples(self):
        ts = np.geomspace(1e-3, 1e-1, 12)
        curve = [(t, 2.5 * t ** 3) for t in ts]
        curve[0] = (curve[0][0], 0.0)
        with pytest.raises(FitError, match="11 samples"):
            fit_power_law(curve, min_samples=12)

    def test_too_few_samples_message(self):
        with pytest.raises(FitError, match="extend the sweep"):
            fit_power_law(((0.1, 1e-20), (0.2, 1e-19)))

    def test_no_clean_window_message(self, rng):
        ts = np.geomspace(1e-3, 1e-1, 16)
        noisy = tuple(
            (t, t ** 2 * math.exp(float(rng.uniform(-1.0, 1.0)))) for t in ts
        )
        with pytest.raises(FitError, match="sample deeper"):
            fit_power_law(noisy, residual_threshold=1e-3)

    def test_anchor_moves_past_contaminated_head(self):
        ts = np.geomspace(1e-3, 1e-1, 14)
        curve = [(t, 4.0 * t ** 2) for t in ts]
        curve[0] = (curve[0][0], curve[0][1] * 10.0)  # corrupted first sample
        fit = fit_power_law(curve, min_samples=8)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.window[0] == ts[1]

    def test_accepts_curve_object(self):
        ts = np.geomspace(1e-2, 1e-1, 9)
        curve = FidelityCurve(tuple((float(t), float(0.3 * t)) for t in ts))
        assert fit_power_law(curve).exponent == pytest.approx(1.0, abs=1e-9)


class TestLeadingCoefficient:
    def test_dephasing_matches_second_moment(self, rng):
        # k = 0, sigma_z coupling, |+>: the coefficient is tr(rho_e h^2)
        env, h = dephasing_environment(rng, 3)
        code = build_code("identity")
        spec = InteractionSpec("non_contact", env=env)
        psi_plus = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        c = leading_coefficient(code, env, spec, psi_plus, 0)
        expected = np.trace(env.rho0.array @ h @ h).real
        assert c == pytest.approx(expected, rel=1e-10)

    def test_matches_short_time_curve(self, rng):
        env, _ = dephasing_environment(rng, 2)
        code = build_code("identity")
        spec = InteractionSpec("non_contact", env=env)
        v = build_noncontact(env)
        psi_plus = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        c = leading_coefficient(code, env, spec, psi_plus, 0)
        t = 1e-4
        e = _CorrectionPipeline(code, env, None, v).error_direct(psi_plus, t)
        assert e / t ** 2 == pytest.approx(c, rel=1e-6)

    def test_zero_coupling_gives_zero(self):
        env = random_environment(5, 2, coupling_bound=0.0, seed=5)
        code = build_code("five_qubit")
        spec = InteractionSpec("non_contact", env=env)
        assert leading_coefficient(code, env, spec, PSI, 1) == 0.0

    def test_contact_rejected(self):
        env = random_environment(5, 2, seed=5)
        code = build_code("five_qubit")
        spec = InteractionSpec("contact", terms=(ContactTerm(1.0, (1, 1, 0, 0, 0)),))
        with pytest.raises(UnsupportedInteractionError):
            leading_coefficient(code, env, spec, PSI, 1)

    def test_k_mismatch_rejected(self):
        env = random_environment(5, 2, seed=5)
        code = build_code("five_qubit")
        spec = InteractionSpec("non_contact", env=env)
        with pytest.raises(ShapeError):
            leading_coefficient(code, env, spec, PSI, 2)


class TestBounds:
    def test_error_bound_values(self):
        assert error_bound(2.0, 0, 3.0) == pytest.approx(36.0)
        assert error_bound(0.5, 1, 2.0) == pytest.approx(1.0 / 4.0)
        assert error_bound(0.0, 3, 5.0) == 0.0
        with pytest.raises(ShapeError):
            error_bound(-1.0, 0, 1.0)

    def test_stabilization_at_threshold(self):
        x0 = asymptotic_x0()
        c = 1.3
        t_star = threshold_time(c, x0)
        assert stabilization_bound(t_star, c, 7, x0) == pytest.approx(1.0, abs=1e-12)
        # below threshold longer codes help, above they hurt
        below = 0.5 * t_star
        above = 2.0 * t_star
        assert stabilization_bound(below, c, 10, x0) < stabilization_bound(below, c, 5, x0)
        assert stabilization_bound(above, c, 10, x0) > stabilization_bound(above, c, 5, x0)


class TestPeriodicCorrection:
    def test_zero_coupling_keeps_fidelity(self):
        env = random_environment(3, 2, coupling_bound=0.0, seed=43)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        decay = periodic_correction_decay(code, env, None, v, 0.1, 12, PSI)
        assert decay.rate == pytest.approx(0.0, abs=1e-12)
        assert all(f == pytest.approx(1.0, abs=1e-12) for _, _, f in decay.samples)

    def test_correction_beats_free_decay(self):
        env = random_environment(3, 2, seed=47)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        h0 = free_hamiltonian(env)
        on = periodic_correction_decay(code, env, h0, v, 0.05, 20, PSI, apply_correction=True)
        off = periodic_correction_decay(code, env, h0, v, 0.05, 20, PSI, apply_correction=False)
        assert on.rate < off.rate

    @pytest.mark.parametrize("name", SHIPPED_CODES)
    def test_matches_dense_reference(self, name):
        for seed in (61, 67):
            code, env, h0, v = shipped_model(name, seed)
            for dt in (0.12, 0.03):
                for corrected in (True, False):
                    decay = periodic_correction_decay(code, env, h0, v, dt, 40, PSI, apply_correction=corrected)
                    want = dense_periodic_reference(code, env, h0, v, dt, 40, PSI, corrected)
                    got = [f for _, _, f in decay.samples]
                    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (seed, dt, corrected)

    def test_non_power_of_two_environment(self):
        # d_e = 3 is not a power of two, so a slip in the (environment, register) reshapes shows
        code = build_code("repetition-3")
        env = random_environment(code.n, 3, seed=71)
        h0, v = free_hamiltonian(env), build_noncontact(env)
        for dt in (0.12, 0.03):
            for corrected in (True, False):
                decay = periodic_correction_decay(code, env, h0, v, dt, 40, PSI, apply_correction=corrected)
                want = dense_periodic_reference(code, env, h0, v, dt, 40, PSI, corrected)
                got = [f for _, _, f in decay.samples]
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (dt, corrected)

    def test_reused_pipeline_matches_fresh_builds(self):
        code, env, h0, v = shipped_model("five_qubit", 73)
        pipeline = _CorrectionPipeline(code, env, h0, v)
        for i in range(3):
            dt = 0.12 / 2 ** i
            for corrected in (True, False):
                fresh = periodic_correction_decay(code, env, h0, v, dt, 40, PSI, apply_correction=corrected)
                assert pipeline.decay(dt, 40, PSI, apply_correction=corrected) == fresh, (dt, corrected)

    def test_contact_matches_dense_reference(self):
        code = build_code("five_qubit")
        env = trivial_environment(code.n)
        terms = (ContactTerm(0.9, (1, 1, 0, 0, 0)), ContactTerm(-0.4, (0, 0, 3, 0, 2)), ContactTerm(0.3, (0, 0, 0, 2, 0)))
        v = interaction_matrix(InteractionSpec("contact", terms=terms))
        for corrected in (True, False):
            decay = periodic_correction_decay(code, env, None, v, 0.2, 40, PSI, apply_correction=corrected)
            want = dense_periodic_reference(code, env, None, v, 0.2, 40, PSI, corrected)
            assert np.max(np.abs(np.subtract([f for _, _, f in decay.samples], want))) <= 1e-12

    def test_unnormalised_state_rejected(self):
        env = random_environment(3, 2, seed=53)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        with pytest.raises(ValidationError):
            periodic_correction_decay(code, env, None, v, 0.1, 12, (1.0, 1.0))

    def test_sample_layout(self):
        env = random_environment(3, 2, seed=53)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        decay = periodic_correction_decay(code, env, None, v, 0.07, 10, PSI)
        assert decay.samples[0] == (0, 0.0, 1.0)
        assert len(decay.samples) == 11
        assert decay.samples[3][1] == pytest.approx(0.21)

    def test_validation(self):
        env = random_environment(3, 2, seed=53)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        with pytest.raises(ShapeError):
            periodic_correction_decay(code, env, None, v, 0.1, 5, PSI)
        for dt in (-0.1, math.inf, math.nan):
            with pytest.raises(ShapeError):
                periodic_correction_decay(code, env, None, v, dt, 12, PSI)


def test_operator_norm_feeds_bound():
    env = random_environment(5, 2, seed=59)
    v = build_noncontact(env)
    vn = operator_norm(v)
    assert error_bound(0.01, 1, vn) == pytest.approx((0.01 * vn) ** 4 / 4.0)
