import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import decoq.metrics
from decoq.errors import FitError, ShapeError, ValidationError
from decoq.tensor import DensityMatrix, operator_norm
from decoq.dynamics import (
    EnvironmentModel,
    build_noncontact,
    contact_hamiltonian,
    free_hamiltonian,
    random_environment,
    trivial_environment,
)
from decoq.codes import asymptotic_x0, build_code, encode_logical, recovery_channel, recovery_unitary
from decoq.metrics import (
    ARGMAX_TIE_ULPS,
    CodeErrorResult,
    _bloch_pair,
    _CorrectionPipeline,
    _log_slopes,
    _pauli_covariance,
    _sphere_error,
    _sphere_suprema,
    _state_error,
    _taylor_sums,
    _taylor_terms,
    code_error,
    error_bound,
    fit_power_law,
    leading_coefficient,
    periodic_correction_decay,
    stabilization_bound,
    threshold_time,
)

from conftest import expm_hermitian, random_density, random_hermitian

PSI = (0.6, 0.8j)
SHIPPED_CODES = ("identity", "repetition-3", "repetition-5", "five_qubit")


class DilationReference:
    """E through the unitary dilation: propagate, append a fresh ancilla,
    apply ``recovery_unitary`` and weigh the complement of the encoded state."""

    def __init__(self, code, env, h, t):
        self.code, self.env = code, env
        self.u = expm_hermitian(h, t)
        self.recovery = recovery_unitary(code)
        self.ancilla = np.zeros(code.ancilla_dim, dtype=complex)
        self.ancilla[0] = 1.0
        self.env_weights, self.env_vecs = np.linalg.eigh(env.rho0.array)

    def __call__(self, psi_logical) -> float:
        de, dc, da = self.env.dim, self.code.register_dim, self.code.ancilla_dim
        psi_bar = encode_logical(self.code, *psi_logical)
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


def dense_periodic_reference(code, env, h, dt, cycles, psi_logical, corrected):
    """Fidelity trace on the full joint density matrix: one ``exp(-i h dt)`` step per
    cycle, then every kron(1_env, K_s) of the recovery channel."""
    psi_bar = encode_logical(code, *psi_logical)
    eye_e = np.eye(env.dim)
    p_full = np.kron(eye_e, np.outer(psi_bar, psi_bar.conj()))
    rho = np.kron(env.rho0.array, np.outer(psi_bar, psi_bar.conj()))
    u = expm_hermitian(h, dt)
    kraus = [np.kron(eye_e, k) for k in recovery_channel(code)]
    fidelities = [1.0]
    for _ in range(cycles):
        rho = u @ rho @ u.conj().T
        if corrected:
            rho = sum(k @ rho @ k.conj().T for k in kraus)
        fidelities.append(float(np.einsum("ij,ji->", rho, p_full).real))
    return fidelities


def propagated(pipeline, t, phase=np.exp):
    """U(t) applied to the start vectors from the pipeline's eigendecomposition: the per-t reference.

    With ``phase=np.expm1`` it is (U(t) - 1) applied to them, the form ``covariances`` reads out."""
    evals, evecs = pipeline.eigenbasis()
    return evecs @ (phase(-1j * evals * float(t))[:, None] * (evecs.conj().T @ pipeline.start))


def shipped_model(name, seed, de=2):
    code = build_code(name)
    env = random_environment(code.n, de, seed=seed)
    return code, env, free_hamiltonian(env) + build_noncontact(env)


def dephasing_environment(rng, de):
    h = random_hermitian(rng, de)
    zero = np.zeros((de, de), dtype=complex)
    rho = DensityMatrix(random_density(rng, de), (de,))
    return EnvironmentModel(de, rho, zero, ((zero, zero, h),)), h


class TestCurveTypes:
    def test_curve_rejects_disorder(self):
        with pytest.raises(ValidationError, match="^curve times must increase strictly$"):
            fit_power_law([(0.2, 0.5), (0.1, 0.6)])
        ts = np.geomspace(1e-2, 1e-1, 9).tolist()
        with pytest.raises(ValidationError, match="^curve times must increase strictly$"):
            # each neighbour comparison with the NaN is false, so a test of t2 <= t1 alone let the 0.05 through
            fit_power_law([(t, 0.3 * t) for t in ts + [math.nan, 0.05]])

    def test_curve_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^curve value 1\.5 at t=0\.1 outside \[0, 1\]$"):
            fit_power_law([(0.1, 1.5)])


class TestFidelity:
    def test_zero_coupling_is_lossless(self):
        env = random_environment(5, 2, coupling_bound=0.0, seed=4)
        code = build_code("five_qubit")
        v = build_noncontact(env)
        e = _state_error(_CorrectionPipeline(code, env, free_hamiltonian(env) + v).covariances([2.0]), PSI)[0]
        assert 1.0 - e == pytest.approx(1.0, abs=1e-12)
        e = _state_error(_CorrectionPipeline(code, env, v).covariances([2.0]), PSI)[0]
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
        e = _state_error(_CorrectionPipeline(code, env, v).covariances([t]), psi_plus)[0]
        assert 1.0 - e == pytest.approx(expected, abs=1e-12)

    def test_matches_dilation_reference(self, rng):
        for name in SHIPPED_CODES:
            code, env, h = shipped_model(name, 23)
            pipeline = _CorrectionPipeline(code, env, h)
            ts = (0.02, 0.2, 0.9)
            for t, c in zip(ts, pipeline.covariances(ts)):
                reference = DilationReference(code, env, h, t)
                for _ in range(4):
                    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    psi = tuple(raw / np.linalg.norm(raw))
                    want = reference(psi)
                    assert _state_error(c[None], psi)[0] == pytest.approx(want, rel=1e-9), (name, t)

    def test_energy_scale_equivariance(self):
        # exp(-i (sV) (t/s)) = exp(-i V t): rescaling energy and time cancels
        env = random_environment(3, 2, seed=29)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        s = 3.7
        e1 = _state_error(_CorrectionPipeline(code, env, v).covariances([0.8]), PSI)[0]
        e2 = _state_error(_CorrectionPipeline(code, env, s * v).covariances([0.8 / s]), PSI)[0]
        assert e1 == pytest.approx(e2, abs=1e-12)

    def test_hamiltonian_shape_and_hermiticity_checked(self):
        code, env = build_code("identity"), random_environment(1, 2, seed=3)
        with pytest.raises(ShapeError, match=r"\(2, 2\) does not match env 2 x register 2"):
            _CorrectionPipeline(code, env, np.zeros((2, 2)))
        h = free_hamiltonian(env) + build_noncontact(env)
        h[0, 1] += 1e-6
        with pytest.raises(ValidationError, match="^joint Hamiltonian is not Hermitian"):
            _CorrectionPipeline(code, env, h)

    def test_logical_pair_required(self):
        env = trivial_environment(1)
        code = build_code("identity")
        with pytest.raises(ShapeError):
            _state_error(_CorrectionPipeline(code, env, np.zeros((2, 2))).covariances([0.1]), (1.0, 0.0, 0.0))


class TestCodeError:
    def test_dominates_fixed_state(self):
        env = random_environment(1, 2, seed=31)
        code = build_code("identity")
        v = build_noncontact(env)
        (sup,) = code_error(code, env, v, [0.4])
        cs = _CorrectionPipeline(code, env, v).covariances([0.4])
        pole = _state_error(cs, (1.0, 0.0))[0]
        generic = _state_error(cs, PSI)[0]
        assert sup.value + 1e-14 >= pole
        assert sup.value + 1e-14 >= generic
        assert float(sup) == sup.value

    def test_supremum_dominates_reference_grid(self):
        # the exact supremum is at least every point of a 16 x 16 grid
        # evaluated through the dilation, up to their 1e-9 agreement
        for name, t in (("identity", 0.5), ("repetition-3", 0.3), ("five_qubit", 0.05)):
            code, env, h = shipped_model(name, 37)
            (sup,) = code_error(code, env, h, [t])
            reference = DilationReference(code, env, h, t)
            grid = [
                reference(_bloch_pair(theta, phi))
                for theta in np.linspace(0.0, math.pi, 16)
                for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
            ]
            assert sup.value >= max(grid) * (1.0 - 1e-9), name
            assert reference(_bloch_pair(sup.theta, sup.phi)) == pytest.approx(sup.value, rel=1e-9)

    def test_angles_in_range(self):
        code, env, h = shipped_model("five_qubit", 41)
        for sup in code_error(code, env, h, (1e-3, 0.1, 1.0)):
            assert 0.0 <= sup.theta <= math.pi
            assert 0.0 <= sup.phi < 2.0 * math.pi

    def test_zero_covariance_reports_pole(self):
        # no coupling and no free term: the blocks are exactly the identity
        code = build_code("repetition-3")
        env = trivial_environment(3)
        (sup,) = code_error(code, env, np.zeros((8, 8)), [0.7])
        assert (sup.value, sup.theta, sup.phi) == (0.0, 0.0, 0.0)


class TestGridShape:
    def test_empty_grid(self):
        for model in (shipped_model("five_qubit", 3), wide_model(3)):
            assert _CorrectionPipeline(*model).covariances([]).shape == (0, 3, 3)

    @pytest.mark.parametrize("name", ["identity", "five_qubit"])
    def test_one_row_views_equal_grid_rows(self, name):
        # below TAYLOR_MIN_DIM every grid takes the eigendecomposition, so a
        # single t, the same t inside a grid and a per-t propagation round identically
        pipeline = _CorrectionPipeline(*shipped_model(name, 19))
        ts = np.geomspace(5e-4, 0.3, 9).tolist()
        cs = pipeline.covariances(ts)
        sups = _sphere_suprema(cs)
        errors = _state_error(cs, PSI)
        for t, c, sup, e in zip(ts, cs, sups, errors):
            moved = propagated(pipeline, t, np.expm1)[:, None, :]
            assert np.array_equal(_pauli_covariance(pipeline.readout, moved, pipeline.env_dim)[0], c)
            one = pipeline.covariances([t])
            assert np.array_equal(one[0], c)
            assert _sphere_suprema(one) == [sup]
            assert _state_error(one, PSI)[0] == e


def assert_rows_independent_of_grid(pipeline, ts, extra):
    """Each t's C, supremum and error carry the same bits from ``ts``, from [t] alone and from ``ts`` grown by ``extra``."""
    cs = pipeline.covariances(ts)
    grown = sorted(ts + extra)
    rows = dict(zip(grown, pipeline.covariances(grown)))
    for t, c, sup, e in zip(ts, cs, _sphere_suprema(cs), _state_error(cs, PSI)):
        one = pipeline.covariances([t])
        assert one[0].tobytes() == c.tobytes(), t
        assert rows[t].tobytes() == c.tobytes(), t
        assert _sphere_suprema(one) == [sup]
        assert _state_error(one, PSI)[0] == e


class TestRowsIndependentOfGrid:
    """A row of E(t) is a function of its own t: times added to the grid leave its bits alone."""

    @pytest.mark.parametrize("name,de", [(n, de) for n in ("identity", "repetition-3", "five_qubit") for de in (1, 2, 3, 5)])
    def test_eigendecomposition_rows(self, name, de):
        # odd d_e gives 2 d_e columns per time, not a multiple of four: a product over the whole
        # grid can round such a column by the grid's width
        for seed in (1, 2, 3):
            pipeline = _CorrectionPipeline(*shipped_model(name, seed, de))
            assert_rows_independent_of_grid(pipeline, np.geomspace(5e-4, 0.3, 9).tolist(), [1e-4, 0.05, 0.7])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_taylor_rows(self, seed, eigh_sizes):
        # the grown grid reaches the window's edge: a series step taken from the grid would move every row
        pipeline = _CorrectionPipeline(*wide_model(seed))
        _, _, t_edge = taylor_radius(pipeline)
        assert_rows_independent_of_grid(pipeline, list(WIDE_GRID), [1e-3, 5e-3, t_edge])
        assert 256 not in eigh_sizes

    @pytest.mark.parametrize("seed", [1, 2, 3, 131])
    def test_taylor_rows_beside_a_time_past_the_window(self, seed):
        # 2 t_edge goes through the eigenbasis on its own; the rows inside the window keep the series
        pipeline = _CorrectionPipeline(*wide_model(seed))
        _, _, t_edge = taylor_radius(pipeline)
        assert_rows_independent_of_grid(pipeline, list(WIDE_GRID), [2.0 * t_edge])


def einsum_covariance(readout, vecs, env_dim):
    """C per time through one ``einsum`` over the register index: the reference for ``_pauli_covariance``."""
    _, n_t, cols = vecs.shape
    sheets = vecs.reshape(env_dim, readout.shape[2], n_t, cols // 2, 2)
    blocks = np.einsum("sac,ectij->tseiaj", readout, sheets).reshape(n_t, len(readout) * env_dim * cols // 2, 2, 2)
    a00, a01, a10, a11 = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]
    a = np.stack([(a01 + a10) / 2.0, 1j * (a01 - a10) / 2.0, (a00 - a11) / 2.0], axis=1)
    return a @ a.conj().transpose(0, 2, 1)


def einsum_recovery_steps(pipeline, dts, propagate=None):
    """M_s per dt, each propagated on its own by ``propagate(pipeline, lifted, dt)`` (default ``_evolve``
    on that dt alone) and read out by its own ``einsum`` over the register index: the reference for
    the readout of ``_recovery_steps``."""
    de, dc = pipeline.env_dim, pipeline.code.register_dim
    side, n_s = 2 * de, len(pipeline.readout)
    lifted = np.kron(np.eye(de), pipeline.code.encoder)
    kraus = np.empty((len(dts), n_s * side, side), dtype=complex)
    for out, dt in zip(kraus, dts):
        moved = propagate(pipeline, lifted, dt) if propagate else pipeline._evolve(lifted, [dt])[:, 0]
        out[:] = np.einsum("sac,ecx->seax", pipeline.readout, moved.reshape(de, dc, side)).reshape(-1, side)
    return kraus


def eigenbasis_recovery_steps(pipeline, dts):
    """M_s per dt propagated by the eigendecomposition whatever the dimension and dt: the reference
    the Taylor branch of ``_recovery_steps`` is held to."""
    def propagate(pipeline, lifted, dt):
        evals, evecs = pipeline.eigenbasis()
        return evecs @ (np.exp(-1j * evals * dt)[:, None] * (evecs.conj().T @ lifted))
    return einsum_recovery_steps(pipeline, dts, propagate)


# The codes the product replaced the einsum for.  On steane and shor the two differ in the last bit
# (2e-16 relative), as two summation orders may.
READOUT_MODELS = [(name, de) for name in SHIPPED_CODES + ("repetition-7",) for de in (1, 2, 3, 8)]


def readout_model(name, de):
    code = build_code(name)
    env = random_environment(code.n, de, seed=31 + de)
    return code, env, free_hamiltonian(env) + build_noncontact(env)


class TestReadoutProduct:
    """The readout as one matrix product gives the bits of the ``einsum`` it replaced."""

    @pytest.mark.parametrize("name,de", READOUT_MODELS)
    def test_covariance_bits_equal_einsum(self, name, de):
        code = build_code(name)
        readout = code.readout
        rng = np.random.default_rng(de)
        d = de * code.register_dim
        for n_t in (1, 3, 14):
            vecs = rng.standard_normal((d, n_t, 2 * de)) + 1j * rng.standard_normal((d, n_t, 2 * de))
            got = _pauli_covariance(readout, vecs, de)
            assert got.tobytes() == einsum_covariance(readout, vecs, de).tobytes(), (name, de, n_t)

    @pytest.mark.parametrize("name,de", [m for m in READOUT_MODELS if m != ("repetition-7", 8)])
    def test_corrected_decay_bits_equal_einsum(self, name, de, monkeypatch):
        # repetition-7 at d_e = 8 is left out only for the 1024-dimensional eigh it would cost
        dts = [0.2, 0.1, 0.05]
        pipeline = _CorrectionPipeline(*readout_model(name, de))
        steps = pipeline._recovery_steps(dts)
        assert steps.tobytes() == einsum_recovery_steps(pipeline, dts).tobytes()
        got = pipeline.decay(dts, 12, PSI)
        monkeypatch.setattr(_CorrectionPipeline, "_recovery_steps", einsum_recovery_steps)
        assert pipeline.decay(dts, 12, PSI) == got


WIDE_GRID = tuple(float(t) for t in np.geomspace(2e-3, 1.6e-2, 3))


def wide_model(seed):
    """five_qubit at d_e = 8: the joint dimension is 256, where short grids use the Taylor basis."""
    code = build_code("five_qubit")
    env = random_environment(code.n, 8, seed=seed)
    return code, env, free_hamiltonian(env) + build_noncontact(env)


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
        mu, norm, t_edge = taylor_radius(pipeline)
        shifted = pipeline.h - mu * np.eye(len(pipeline.h))
        for grid in (WIDE_GRID, WIDE_GRID + (t_edge,)):
            eigh_sizes.clear()
            taylor = pipeline.covariances(grid)
            assert 256 not in eigh_sizes
            tau = 1.0 / norm
            terms = _taylor_terms(shifted, pipeline.start, tau)
            assert len(terms) <= 22
            series = _taylor_sums(terms, np.array(grid), tau, mu)
            change = _taylor_sums(terms, np.array(grid), tau, mu, minus_one=True)
            assert np.array_equal(taylor, _pauli_covariance(pipeline.readout, change, pipeline.env_dim))
            moved = np.stack([propagated(pipeline, t) for t in grid], axis=1)
            assert np.max(np.abs(series - moved)) <= 1e-13, seed
            assert np.max(np.abs(change - (moved - pipeline.start[:, None, :]))) <= 1e-13, seed
            dense = _pauli_covariance(pipeline.readout, moved, pipeline.env_dim)
            for t, got, want in zip(grid, _sphere_suprema(taylor), _sphere_suprema(dense)):
                assert got.value == pytest.approx(want.value, rel=1e-9), (seed, t)
                assert abs(got.theta - want.theta) <= 1e-7
                assert abs(math.remainder(got.phi - want.phi, 2.0 * math.pi)) <= 1e-7
            np.testing.assert_allclose(_state_error(taylor, PSI), _state_error(dense, PSI), rtol=1e-9)

    def test_dense_below_taylor_dimension(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*shipped_model("five_qubit", 1))
        pipeline.covariances(WIDE_GRID)
        pipeline.covariances(WIDE_GRID)
        assert eigh_sizes.count(64) == 1

    def test_short_grid_at_256_skips_eigh(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*wide_model(1))
        pipeline.covariances(WIDE_GRID)
        pipeline.covariances(WIDE_GRID[-1:])
        assert eigh_sizes.count(256) == 0

    def test_long_grid_and_decay_at_256_use_one_eigh(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*wide_model(1))
        _, _, t_edge = taylor_radius(pipeline)
        long_grid = (1e-3, 2.0 * t_edge)
        pipeline.covariances(long_grid)
        assert eigh_sizes.count(256) == 1
        pipeline.decay([0.12], 10, PSI)
        pipeline.covariances(long_grid)
        assert eigh_sizes.count(256) == 1
        fresh = _CorrectionPipeline(*wide_model(1))
        fresh.decay([0.12], 10, PSI, apply_correction=False)
        fresh.decay([0.06], 10, PSI)
        assert eigh_sizes.count(256) == 2

    @pytest.mark.parametrize("seed", [1, 131])
    def test_decay_at_256_independent_of_a_dt_past_the_window(self, seed):
        pipeline = _CorrectionPipeline(*wide_model(seed))
        _, _, t_edge = taylor_radius(pipeline)
        assert 0.01 < t_edge < 0.12
        assert pipeline.decay([0.01], 10, PSI) == pipeline.decay([0.01, 0.12], 10, PSI)[:1]

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


def extended_suprema(pipeline, times):
    """Suprema from C formed in extended precision: (U(t) - 1) X by its Taylor series and its readout in clongdouble.

    The series runs until a term is below 1e-30 of the start vectors X; only
    the sphere search on the final 3 x 3 C runs in double."""
    h = pipeline.h.astype(np.clongdouble)
    x = pipeline.start.astype(np.clongdouble)
    readout = pipeline.readout.astype(np.clongdouble)
    limit = 1e-30 * np.abs(x).max()
    cs = []
    for t in times:
        step = np.clongdouble(-1j * t)
        term, total, j = x, np.zeros_like(x), 0
        while j == 0 or np.abs(term).max() > limit:
            j += 1
            term = (h @ term) * (step / j)
            total = total + term
        cs.append(_pauli_covariance(readout, total[:, None, :], pipeline.env_dim)[0])
    return _sphere_suprema(np.array(cs, dtype=complex))


EXPONENT_LAW_GRID = tuple(float(t) for t in np.geomspace(5e-4, 8e-3, 14))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="the reference needs an extended long double")
class TestShortTimeDigits:
    """E keeps the digits it prints: C is read out from (U - 1) X, so the O(t^(k+1)) traceless
    parts are not differences of O(1) block entries, and E matches an extended-precision reference."""

    @pytest.mark.parametrize("name,de", [(n, de) for n in ("identity", "repetition-3", "five_qubit") for de in (1, 2, 3)])
    def test_eigendecomposition_rows(self, name, de):
        # five_qubit at d_e = 2, seed 42, is the shipped exponent_law, whose first row read out from U X was 2.9e-10 off
        pipeline = _CorrectionPipeline(*shipped_model(name, 42, de))
        got = _sphere_suprema(pipeline.covariances(EXPONENT_LAW_GRID))
        for t, sup, want in zip(EXPONENT_LAW_GRID, got, extended_suprema(pipeline, EXPONENT_LAW_GRID)):
            assert sup.value == pytest.approx(want.value, rel=1e-11, abs=0.0), (name, de, t)

    def test_taylor_rows(self, eigh_sizes):
        pipeline = _CorrectionPipeline(*wide_model(1))
        grid = (5e-4, 2e-3) + WIDE_GRID
        got = _sphere_suprema(pipeline.covariances(grid))
        assert 256 not in eigh_sizes
        for t, sup, want in zip(grid, got, extended_suprema(pipeline, grid)):
            assert sup.value == pytest.approx(want.value, rel=1e-11, abs=0.0), t


def _sphere_points(rng, count):
    pts = rng.standard_normal((count, 3))
    axes = np.vstack([np.eye(3), -np.eye(3)])
    return np.vstack([axes, pts / np.linalg.norm(pts, axis=1, keepdims=True)])


_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _covariance(m, w):
    """The Hermitian C with Re C = m and twist w."""
    a = np.zeros((3, 3))
    a[1, 2], a[2, 0], a[0, 1] = w / 2.0
    return m + 1j * (a - a.T)


def _bloch(sup):
    return np.array([
        math.sin(sup.theta) * math.cos(sup.phi),
        math.sin(sup.theta) * math.sin(sup.phi),
        math.cos(sup.theta),
    ])


def _physical_covariance(entries):
    """C of three logical Kraus blocks of a random channel, stacked as a 6 x 2 isometry; None if near-singular."""
    g = np.array(entries[:12]).reshape(6, 2) + 1j * np.array(entries[12:]).reshape(6, 2)
    if np.linalg.svd(g, compute_uv=False)[-1] < 1e-6:
        return None
    q, _ = np.linalg.qr(g)
    return _pauli_covariance(np.eye(2, dtype=complex)[None], q[:, None, :], 3)[0]


class TestSphereMaximum:
    @_PROPERTY
    @given(st.lists(_entries, min_size=9, max_size=9), st.lists(_entries, min_size=3, max_size=3),
           st.sampled_from([0.0, 1e-6, 1.0]))
    def test_beats_sampled_points(self, b_entries, w_entries, w_scale):
        b = np.array(b_entries).reshape(3, 3)
        m = b @ b.T
        w = w_scale * np.array(w_entries)
        # scaled so that the maximum, which lies in [2/3 tr m, tr m + |w|], is at most 1
        top = float(np.trace(m) + np.linalg.norm(w))
        if top == 0.0:
            return
        sup = _sphere_suprema(_covariance(m, w)[None] / top)[0]
        r = _bloch(sup)
        best = float(w @ r - r @ m @ r)
        assert sup.value == pytest.approx((float(np.trace(m)) + best) / top, abs=1e-12)
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
        c = _physical_covariance(entries)
        if c is None:
            return
        values = _sphere_error(c, _sphere_points(np.random.default_rng(1), 100))
        assert values.min() >= -1e-12 and values.max() <= 1.0 + 1e-12
        top = _sphere_suprema(c[None])[0]
        assert -1e-12 <= top.value <= 1.0 + 1e-12
        assert top.value >= values.max() - 1e-12
        assert float(_sphere_error(c, _bloch(top))) == pytest.approx(top.value, abs=1e-12)

    @_PROPERTY
    @given(
        st.lists(st.lists(_entries, min_size=24, max_size=24), min_size=1, max_size=5),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_rows_independent_of_the_stack(self, entries, zeros, random):
        # every row of a stack, in any order and next to zero rows, is the result for that C alone
        rows = [c for c in map(_physical_covariance, entries) if c is not None] + [np.zeros((3, 3), complex)] * zeros
        random.shuffle(rows)
        if not rows:
            return
        stacked = _sphere_suprema(np.array(rows))
        assert stacked == [_sphere_suprema(c[None])[0] for c in rows]
        for c, sup in zip(rows, stacked):
            if not c.any():
                assert (sup.value, sup.theta, sup.phi) == (0.0, 0.0, 0.0)

    def test_hard_case_zero_w(self):
        sup = _sphere_suprema(np.diag([0.5, 0.2, 0.9])[None] / 1.6 + 0j)[0]
        assert abs(_bloch(sup)[1]) == pytest.approx(1.0, abs=1e-15)
        assert sup.value == pytest.approx(1.4 / 1.6, rel=1e-15)

    @pytest.mark.parametrize("w", [(1e-9, 1.0 / 64.0, 1.0 / 64.0), (1e-9, 2.0 / 64.0, 23.0 / 64.0)])
    def test_tied_candidates_take_the_hard_case(self, w):
        # Re C is diagonal and w nearly misses its bottom axis, so the interior
        # root lies 2e-10 to 1e-9 from the hard-case point; their E agree to
        # rounding (here the interior scores 1 or 2 ulps higher), and the hard
        # case is the one reported, whichever way the last bits fall
        m, w = np.diag([0.125, 0.25, 0.5]), np.array(w)
        c = _covariance(m, w)
        tr = float(np.trace(m))
        g, gaps = w / (2.0 * tr), (np.diag(m) - m[0, 0]) / tr
        hard = np.array([0.0, g[1] / gaps[1], g[2] / gaps[2]])
        hard[0] = math.sqrt(1.0 - hard @ hard)
        sup = _sphere_suprema(c[None])[0]
        assert np.max(np.abs(_bloch(sup) - hard)) <= 1e-13
        at_hard = float(_sphere_error(c, hard))
        assert abs(sup.value - at_hard) <= ARGMAX_TIE_ULPS * np.spacing(at_hard)

    @pytest.mark.parametrize("scale", [0.0, 1e-17, -1e-17])
    def test_even_error_reports_the_upper_hemisphere(self, scale):
        # a twist at rounding level leaves E(r) = E(-r): the maximiser reported is the z >= 0 one, whatever its sign
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        m = q @ np.diag([0.1, 0.3, 0.6]) @ q.T
        bottom = q[:, 0] if q[2, 0] > 0.0 else -q[:, 0]
        sup = _sphere_suprema(_covariance(m, scale * np.array([0.3, -0.5, 0.8]))[None])[0]
        assert sup.theta <= math.pi / 2
        assert np.max(np.abs(_bloch(sup) - bottom)) <= 1e-12

    @pytest.mark.parametrize("axis, reported", [((0.6, -0.8, 0.0), (-0.6, 0.8, 0.0)), ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))])
    def test_even_error_on_the_equator_takes_y_then_x_nonnegative(self, axis, reported):
        for u in (np.array(axis), -np.array(axis)):
            m = 0.5 * np.eye(3) - 0.4 * np.outer(u, u)
            sup = _sphere_suprema(_covariance(m, np.zeros(3))[None])[0]
            assert np.max(np.abs(_bloch(sup) - np.array(reported))) <= 1e-12, u

    def test_zero_matrix_and_zero_w(self):
        assert _sphere_suprema(np.zeros((1, 3, 3), complex)) == [CodeErrorResult(0.0, 0.0, 0.0)]

    def test_empty_stack(self):
        assert _sphere_suprema(np.zeros((0, 3, 3), complex)) == []


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
        # the curve is any iterable of (t, E) pairs, here the rows of one (n, 2) array
        ts = np.geomspace(1e-2, 1e-1, 9)
        curve = np.column_stack([ts, 0.3 * ts])
        assert fit_power_law(curve).exponent == pytest.approx(1.0, abs=1e-9)


class TestLeadingCoefficient:
    def test_dephasing_matches_second_moment(self, rng):
        # k = 0, sigma_z coupling, |+>: the coefficient is tr(rho_e h^2)
        env, h = dephasing_environment(rng, 3)
        code = build_code("identity")
        psi_plus = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        c = leading_coefficient(code, env, psi_plus, 0)
        expected = np.trace(env.rho0.array @ h @ h).real
        assert c == pytest.approx(expected, rel=1e-10)

    def test_matches_short_time_curve(self, rng):
        env, _ = dephasing_environment(rng, 2)
        code = build_code("identity")
        v = build_noncontact(env)
        psi_plus = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        c = leading_coefficient(code, env, psi_plus, 0)
        t = 1e-4
        e = _state_error(_CorrectionPipeline(code, env, v).covariances([t]), psi_plus)[0]
        assert e / t ** 2 == pytest.approx(c, rel=1e-6)

    def test_zero_coupling_gives_zero(self):
        env = random_environment(5, 2, coupling_bound=0.0, seed=5)
        code = build_code("five_qubit")
        assert leading_coefficient(code, env, PSI, 1) == 0.0

    def test_k_mismatch_rejected(self):
        env = random_environment(5, 2, seed=5)
        code = build_code("five_qubit")
        with pytest.raises(ShapeError):
            leading_coefficient(code, env, PSI, 2)


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
        decay = periodic_correction_decay(code, env, v, 0.1, 12, PSI)
        assert decay.rate == pytest.approx(0.0, abs=1e-12)
        assert all(f == pytest.approx(1.0, abs=1e-12) for _, _, f in decay.samples)

    def test_correction_beats_free_decay(self):
        env = random_environment(3, 2, seed=47)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        h = free_hamiltonian(env) + v
        on = periodic_correction_decay(code, env, h, 0.05, 20, PSI, apply_correction=True)
        off = periodic_correction_decay(code, env, h, 0.05, 20, PSI, apply_correction=False)
        assert on.rate < off.rate

    @pytest.mark.parametrize("name", SHIPPED_CODES)
    def test_matches_dense_reference(self, name):
        for seed in (61, 67):
            code, env, h = shipped_model(name, seed)
            for dt in (0.12, 0.03):
                for corrected in (True, False):
                    decay = periodic_correction_decay(code, env, h, dt, 40, PSI, apply_correction=corrected)
                    want = dense_periodic_reference(code, env, h, dt, 40, PSI, corrected)
                    got = [f for _, _, f in decay.samples]
                    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (seed, dt, corrected)

    def test_non_power_of_two_environment(self):
        # d_e = 3 is not a power of two, so a slip in the (environment, register) reshapes shows
        code = build_code("repetition-3")
        env = random_environment(code.n, 3, seed=71)
        h = free_hamiltonian(env) + build_noncontact(env)
        for dt in (0.12, 0.03):
            for corrected in (True, False):
                decay = periodic_correction_decay(code, env, h, dt, 40, PSI, apply_correction=corrected)
                want = dense_periodic_reference(code, env, h, dt, 40, PSI, corrected)
                got = [f for _, _, f in decay.samples]
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (dt, corrected)

    @pytest.mark.parametrize("name", SHIPPED_CODES)
    def test_rows_equal_single_interval_calls(self, name):
        dts = (0.12, 0.06, 0.03, 0.2)
        for seed, de in ((61, 2), (67, 2), (61, 1), (61, 3)):
            pipeline = _CorrectionPipeline(*shipped_model(name, seed, de))
            for corrected in (True, False):
                together = pipeline.decay(dts, 40, PSI, apply_correction=corrected)
                backwards = pipeline.decay(dts[::-1], 40, PSI, apply_correction=corrected)[::-1]
                alone = [pipeline.decay([dt], 40, PSI, apply_correction=corrected)[0] for dt in dts]
                assert together == alone == backwards, (seed, de, corrected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_equal_single_interval_calls_on_taylor_branch(self, seed, eigh_sizes, monkeypatch):
        # d = 256 with every dt inside the Taylor window: the recovery steps skip the eigendecomposition
        dts = (0.04, 0.02, 0.01, 0.03)
        pipeline = _CorrectionPipeline(*wide_model(seed))
        together = pipeline.decay(dts, 12, PSI)
        assert 256 not in eigh_sizes
        backwards = pipeline.decay(dts[::-1], 12, PSI)[::-1]
        assert together == [pipeline.decay([dt], 12, PSI)[0] for dt in dts] == backwards
        monkeypatch.setattr(_CorrectionPipeline, "_recovery_steps", eigenbasis_recovery_steps)
        for got, want in zip(together, pipeline.decay(dts, 12, PSI)):
            assert np.max(np.abs(np.subtract(got.samples, want.samples))) <= 1e-13

    def test_no_intervals(self):
        pipeline = _CorrectionPipeline(*shipped_model("repetition-3", 61))
        for corrected in (True, False):
            assert pipeline.decay([], 40, PSI, apply_correction=corrected) == []

    @pytest.mark.parametrize("de, cycles", [(2, 40), (2, 41), (8, 41)])
    def test_trace_across_eigenvector_blocks(self, de, cycles):
        # identity has d = 2 d_e, so the uncorrected times go through in blocks of 2 d_e;
        # at d_e = 8, G has d_e^2 = 64 columns and goes through in four chunks of d = 16
        code = build_code("identity")
        env = random_environment(1, de, seed=61)
        h = free_hamiltonian(env) + build_noncontact(env)
        assert len(_CorrectionPipeline(code, env, h).h) == 2 * de
        for corrected in (True, False):
            decay = periodic_correction_decay(code, env, h, 0.12, cycles, PSI, apply_correction=corrected)
            want = dense_periodic_reference(code, env, h, 0.12, cycles, PSI, corrected)
            assert np.max(np.abs(np.subtract([f for _, _, f in decay.samples], want))) <= 1e-12, corrected

    @pytest.mark.parametrize("name", SHIPPED_CODES)
    def test_rate_matches_polyfit(self, name):
        # the closed-form slope against the cycle index, over dt, is the straight line through (t, log F)
        pipeline = _CorrectionPipeline(*shipped_model(name, 61))
        for corrected in (True, False):
            for decay in pipeline.decay((0.12, 0.03), 40, PSI, apply_correction=corrected):
                ts, fs = zip(*((t, f) for _, t, f in decay.samples if f > 0.0))
                assert decay.rate == pytest.approx(-np.polyfit(ts, np.log(fs), 1)[0], rel=1e-12), corrected

    def test_log_slopes_skip_non_positive_fidelities(self):
        e = math.exp
        fs = np.array([[1.0, 0.0, e(-2.0), -1e-300, e(-4.0)], [1.0, e(-0.5), e(-1.0), e(-1.5), e(-2.0)]])
        np.testing.assert_allclose(_log_slopes(fs), [-1.0, -0.5], rtol=1e-14)
        with pytest.raises(FitError, match="collapsed"):
            _log_slopes(np.array([[1.0, 0.5, 0.25], [1.0, 0.0, 0.0]]))

    def test_reused_pipeline_matches_fresh_builds(self):
        code, env, h = shipped_model("five_qubit", 73)
        pipeline = _CorrectionPipeline(code, env, h)
        for i in range(3):
            dt = 0.12 / 2 ** i
            for corrected in (True, False):
                fresh = periodic_correction_decay(code, env, h, dt, 40, PSI, apply_correction=corrected)
                assert pipeline.decay([dt], 40, PSI, apply_correction=corrected) == [fresh], (dt, corrected)

    def test_contact_matches_dense_reference(self):
        code = build_code("five_qubit")
        env = trivial_environment(code.n)
        v = contact_hamiltonian([(0.9, (1, 1, 0, 0, 0)), (-0.4, (0, 0, 3, 0, 2)), (0.3, (0, 0, 0, 2, 0))], code.n)
        for corrected in (True, False):
            decay = periodic_correction_decay(code, env, v, 0.2, 40, PSI, apply_correction=corrected)
            want = dense_periodic_reference(code, env, v, 0.2, 40, PSI, corrected)
            assert np.max(np.abs(np.subtract([f for _, _, f in decay.samples], want))) <= 1e-12

    def test_unnormalised_state_rejected(self):
        env = random_environment(3, 2, seed=53)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        with pytest.raises(ValidationError):
            periodic_correction_decay(code, env, v, 0.1, 12, (1.0, 1.0))

    def test_sample_layout(self):
        env = random_environment(3, 2, seed=53)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        decay = periodic_correction_decay(code, env, v, 0.07, 10, PSI)
        assert decay.samples[0] == (0, 0.0, 1.0)
        assert len(decay.samples) == 11
        assert decay.samples[3][1] == pytest.approx(0.21)

    def test_validation(self):
        env = random_environment(3, 2, seed=53)
        code = build_code("repetition-3")
        v = build_noncontact(env)
        with pytest.raises(ShapeError):
            periodic_correction_decay(code, env, v, 0.1, 5, PSI)
        for dt in (-0.1, math.inf, math.nan):
            with pytest.raises(ShapeError):
                periodic_correction_decay(code, env, v, dt, 12, PSI)


def test_operator_norm_feeds_bound():
    env = random_environment(5, 2, seed=59)
    v = build_noncontact(env)
    vn = operator_norm(v)
    assert error_bound(0.01, 1, vn) == pytest.approx((0.01 * vn) ** 4 / 4.0)
