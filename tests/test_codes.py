import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from decoq.errors import ShapeError, ValidationError
from decoq.tolerances import CHANNEL_TOL
from decoq.tensor import DensityMatrix, partial_trace_array, trace_distance
from decoq.pauli import pauli_string
from decoq.dynamics import (
    build_noncontact,
    contact_hamiltonian,
    free_hamiltonian,
    random_environment,
    trivial_environment,
)
from decoq.metrics import _CorrectionPipeline, _sphere_suprema, _state_error, fit_power_law
from decoq.codes import (
    AMPLITUDE_ONLY,
    CODES,
    FULL_PAULI,
    CodeSpec,
    _apply,
    _sphere_sum,
    asymptotic_bound_gap,
    asymptotic_x0,
    build_code,
    build_five_qubit_code,
    build_identity_code,
    build_repetition_code,
    build_stabilizer_code,
    covered_errors,
    encode_logical,
    hamming_gv_check,
    min_code_length,
    recovery_channel,
    recovery_unitary,
)

from conftest import random_density

ALL_CODES = ("identity", "repetition-3", "repetition-5", "five_qubit")
# codes with a hand-built dense reference below; the dense projectors of a nine-qubit code would take a GiB
DENSE_REFERENCE_CODES = ("identity", "repetition-3", "repetition-5", "repetition-7", "five_qubit")
# codes whose recovery dilation, 2^n x 2^(n-1), is too large to build
UNDILATED_CODES = ("steane", "shor", "repetition-9")
# codes whose Kraus stack, (2^(n-1), 2^n, 2^n), fits in memory: at n = 9 it takes a GiB
KRAUS_CODES = tuple(name for name, (n, _) in CODES.items() if n <= 7)


def syndrome_space_projectors(code) -> dict:
    """The dense projector W_s W_s^dag onto each syndrome space, built from the readout block W_s^dag."""
    return {bits: block.conj().T @ block for bits, block in zip(code.syndromes, code.readout)}


def apply_kraus(kraus, rho):
    """sum_s K_s rho K_s^dag over a stack of Kraus operators."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def strings_commute(v, w) -> bool:
    """Whether two Pauli strings commute: an even number of positions hold two different non-identity letters."""
    return sum(1 for a, b in zip(v, w) if a and b and a != b) % 2 == 0


@pytest.mark.parametrize("name", ALL_CODES)
def test_encoder_isometry(name):
    code = build_code(name)
    gram = code.encoder.conj().T @ code.encoder
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


@pytest.mark.parametrize("name", ALL_CODES)
def test_projectors_resolve_identity(name):
    code = build_code(name)
    total = sum(syndrome_space_projectors(code).values())
    assert np.max(np.abs(total - np.eye(code.register_dim))) < 1e-12


def test_projectors_mutually_orthogonal():
    code = build_five_qubit_code()
    projs = list(syndrome_space_projectors(code).values())
    assert len(projs) == 16
    for i, p in enumerate(projs):
        assert np.max(np.abs(p @ p - p)) < 1e-12
        for q in projs[i + 1 :]:
            assert np.max(np.abs(p @ q)) < 1e-12


def test_five_qubit_cosets_span_register():
    # the encoded basis times the 16 covered errors fills all 32 dimensions
    code = build_five_qubit_code()
    columns = []
    for err in covered_errors(code):
        e = pauli_string(err)
        columns.append(e @ code.encoder[:, 0])
        columns.append(e @ code.encoder[:, 1])
    basis = np.stack(columns, axis=1)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(32))) < 1e-10


def test_covered_error_counts():
    assert sum(1 for _ in covered_errors(build_repetition_code(5))) == 16
    assert sum(1 for _ in covered_errors(build_five_qubit_code())) == 16
    assert sum(1 for _ in covered_errors(build_repetition_code(3))) == 4
    assert sum(1 for _ in covered_errors(build_identity_code())) == 1


def test_error_class_letters():
    rep = build_repetition_code(3)
    assert rep.error_class == AMPLITUDE_ONLY
    assert all(set(v) <= {0, 1} for v in covered_errors(rep))
    five = build_five_qubit_code()
    assert five.error_class == FULL_PAULI


@pytest.mark.parametrize("name", ALL_CODES)
def test_recovery_reverses_covered_errors(name):
    # up to the recorded correction's global phase the channel output is exact
    code = build_code(name)
    psi = encode_logical(code, 0.6, 0.8j)
    target = np.outer(psi, psi.conj())
    kraus = recovery_channel(code)
    worst = 0.0
    for err in covered_errors(code):
        e = pauli_string(err)
        corrupted = e @ target @ e.conj().T
        worst = max(worst, float(np.max(np.abs(apply_kraus(kraus, corrupted) - target))))
    assert worst < 1e-12


@pytest.mark.parametrize("name", ALL_CODES)
def test_unitary_recovery_matches_channel(name, rng):
    code = build_code(name)
    r = recovery_unitary(code)
    dc, da = code.register_dim, code.ancilla_dim
    anc = np.zeros((da, da), dtype=complex)
    anc[0, 0] = 1.0
    kraus = recovery_channel(code)
    for _ in range(5):
        rho = random_density(rng, dc)
        via_unitary = partial_trace_array(
            r @ np.kron(rho, anc) @ r.conj().T, (dc, da), (0,)
        )
        assert trace_distance(via_unitary, apply_kraus(kraus, rho)) < 1e-12


@pytest.mark.parametrize("name", KRAUS_CODES)
def test_recovery_channel_is_complete(name):
    code = build_code(name)
    kraus = recovery_channel(code)
    dc = code.register_dim
    assert kraus.shape == (dc // 2, dc, dc)
    total = sum(k.conj().T @ k for k in kraus)
    assert np.max(np.abs(total - np.eye(dc))) <= CHANNEL_TOL


def test_ancilla_records_syndrome():
    # after writing, the ancilla holds the syndrome bits as a basis state
    code = build_repetition_code(3)
    r = recovery_unitary(code)
    psi = encode_logical(code, 1.0, 0.0)
    flipped = pauli_string((0, 1, 0)) @ psi  # error on qubit 2
    joint = r @ np.kron(flipped, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    anc = partial_trace_array(np.outer(joint, joint.conj()), (8, 4), (1,))
    bits = next(
        b for b, corr in code.syndrome_table.items() if corr == (0, 1, 0)
    )
    idx = int("".join(str(b) for b in bits), 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[idx, idx] = 1.0
    assert np.max(np.abs(anc - expected)) < 1e-12


def test_repetition_majority_table():
    code = build_repetition_code(5)
    assert code.k_corr == 2
    assert code.syndrome_table[(0, 0, 0, 0)] == (0, 0, 0, 0, 0)
    for bits, corr in code.syndrome_table.items():
        assert sum(1 for c in corr if c) <= 2


def test_repetition_rejects_even_or_tiny():
    with pytest.raises(ShapeError):
        build_repetition_code(4)
    with pytest.raises(ShapeError):
        build_repetition_code(1)


def _parity_bits(basis_index: int, n: int) -> tuple[int, ...]:
    bits = [(basis_index >> (n - 1 - i)) & 1 for i in range(n)]
    return tuple(bits[i] ^ bits[i + 1] for i in range(n - 1))


def dense_repetition_reference(n: int):
    """The hand-built repetition code: basis-state encoder, parity-bit projectors, majority table."""
    dc = 2 ** n
    encoder = np.zeros((dc, 2), dtype=complex)
    encoder[0, 0] = 1.0
    encoder[dc - 1, 1] = 1.0
    projectors, table = {}, {}
    for b in range(dc):
        bits = _parity_bits(b, n)
        proj = projectors.setdefault(bits, np.zeros((dc, dc), dtype=complex))
        proj[b, b] = 1.0
    for bits in projectors:
        pattern = [0] * n
        for i, bit in enumerate(bits):
            pattern[i + 1] = pattern[i] ^ bit
        if sum(pattern) > (n - 1) // 2:
            pattern = [1 - p for p in pattern]
        table[bits] = tuple(1 if p else 0 for p in pattern)
    return encoder, table, projectors


FIVE_QUBIT_GENERATORS = ((1, 3, 3, 1, 0), (0, 1, 3, 3, 1), (1, 0, 1, 3, 3), (3, 1, 0, 1, 3))


def dense_five_qubit_reference():
    """The five-qubit code from dense stabilizer products: encoder columns of prod (1 + g)/2,
    one projector prod (1 +- g)/2 per single-qubit error's syndrome."""
    n, dc = 5, 32
    gens = [pauli_string(g) for g in FIVE_QUBIT_GENERATORS]
    group_proj = np.eye(dc, dtype=complex)
    for g in gens:
        group_proj = group_proj @ (np.eye(dc) + g) / 2.0
    zero = group_proj[:, 0] / np.linalg.norm(group_proj[:, 0])
    one = group_proj[:, dc - 1] / np.linalg.norm(group_proj[:, dc - 1])
    errors = [(0,) * n] + [tuple(mu if i == pos else 0 for i in range(n)) for pos in range(n) for mu in (1, 2, 3)]
    projectors, table = {}, {}
    for err in errors:
        bits = tuple(0 if strings_commute(gen, err) else 1 for gen in FIVE_QUBIT_GENERATORS)
        proj = np.eye(dc, dtype=complex)
        for bit, g in zip(bits, gens):
            proj = proj @ (np.eye(dc) + (-1.0 if bit else 1.0) * g) / 2.0
        projectors[bits] = proj
        table[bits] = err
    return np.stack([zero, one], axis=1), table, projectors


def dense_reference(name: str):
    """(encoder, syndrome table, dense projectors) of a registered code, built the pre-stabilizer way."""
    if name == "identity":
        return np.eye(2, dtype=complex), {(): (0,)}, {(): np.eye(2, dtype=complex)}
    if name == "five_qubit":
        return dense_five_qubit_reference()
    return dense_repetition_reference(int(name.split("-")[1]))


@pytest.mark.parametrize("name", DENSE_REFERENCE_CODES)
def test_stabilizer_core_matches_dense_reference(name):
    code = build_code(name)
    encoder, table, projectors = dense_reference(name)
    assert np.array_equal(code.encoder, encoder)
    assert code.syndrome_table == table
    derived = syndrome_space_projectors(code)
    assert list(derived) == sorted(projectors)
    assert all(np.array_equal(derived[bits], projectors[bits]) for bits in projectors)
    kraus = [pauli_string(table[bits]) @ projectors[bits] for bits in sorted(table)]
    assert np.array_equal(code.readout, np.stack([encoder.conj().T @ k for k in kraus]))
    assert np.array_equal(recovery_channel(code), np.stack(kraus))


def test_registry_lengths_match_built_codes():
    # Scenario sizes a run from the registered length without building the code
    assert {name: build_code(name).n for name in CODES} == {name: n for name, (n, _) in CODES.items()}


@pytest.mark.parametrize("name", CODES)
def test_syndrome_basis_is_unitary_and_generators_fix_code_space(name):
    code = build_code(name)
    dc = code.register_dim
    assert code.readout.shape == (dc // 2, 2, dc)
    w = code.readout.reshape(dc, dc).conj().T  # the readout is W^dag, one 2 x 2^n block W_s^dag per syndrome
    assert np.max(np.abs(w.conj().T @ w - np.eye(dc))) < 1e-12
    for g in code.generators:
        assert np.max(np.abs(pauli_string(g) @ code.encoder - code.encoder)) < 1e-12
    for bits, block in zip(code.syndromes, code.readout):
        assert np.array_equal(block.conj().T, pauli_string(code.syndrome_table[bits]) @ code.encoder)


@pytest.mark.parametrize("name", CODES)
def test_readout_is_the_one_register_array_held(name):
    code = build_code(name)
    dc = code.register_dim
    corrections = [code.syndrome_table[bits] for bits in code.syndromes]
    w = _apply(corrections, code.encoder).transpose(1, 0, 2).reshape(dc, dc)  # the W whose W^dag W the build checks
    assert np.ascontiguousarray(code.readout.reshape(dc, dc).conj().T).tobytes() == w.tobytes()
    blocks = w.reshape(dc, -1, 2).transpose(1, 0, 2)  # W_s = C_s encoder
    assert code.readout.conj().transpose(0, 2, 1).tobytes() == np.ascontiguousarray(blocks).tobytes()
    held = {key: value.shape for key, value in vars(code).items() if isinstance(value, np.ndarray)}
    assert held == {"encoder": (dc, 2), "readout": (len(corrections), 2, dc)}


RECORDS_WITH_ARRAYS = {
    "CodeSpec": lambda: build_code("identity"),
    "EnvironmentModel": lambda: random_environment(1, 2, seed=1),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2, (2,)),
}


@pytest.mark.parametrize("make", RECORDS_WITH_ARRAYS.values(), ids=RECORDS_WITH_ARRAYS)
def test_equality_of_records_holding_arrays_is_identity(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert len({a, b, a}) == 2


def test_repetition_seven_registered():
    code = build_code("repetition-7")
    assert (code.n, code.k_corr, code.ancilla_count) == (7, 3, 6)
    assert all(sum(corr) <= 3 for corr in code.syndrome_table.values())


def _fields(code):
    return dict(
        name=code.name,
        n=code.n,
        k_corr=code.k_corr,
        error_class=code.error_class,
        generators=code.generators,
        encoder=code.encoder,
        syndrome_table=dict(code.syndrome_table),
    )


def test_rejects_correction_with_wrong_syndrome():
    fields = _fields(build_repetition_code(3))
    table = fields["syndrome_table"]
    table[(1, 0)], table[(0, 1)] = table[(0, 1)], table[(1, 0)]
    with pytest.raises(ValidationError, match="has syndrome"):
        CodeSpec(**fields)


def test_rejects_two_leaders_on_one_syndrome():
    # under full Pauli noise the bit-flip checks cannot tell z1 from no error
    with pytest.raises(ValidationError, match="syndrome collision"):
        build_stabilizer_code("bad", 3, [(3, 3, 0), (0, 3, 3)], 1, FULL_PAULI)


def test_rejects_encoder_a_generator_does_not_fix():
    fields = _fields(build_repetition_code(3))
    encoder = np.zeros((8, 2), dtype=complex)
    encoder[0, 0] = encoder[1, 1] = 1.0  # |000>, |001>: z2 z3 flips the sign of the second
    with pytest.raises(ValidationError, match="does not fix the encoder"):
        CodeSpec(**dict(fields, encoder=encoder))


def test_rejects_incomplete_syndrome_table():
    fields = _fields(build_repetition_code(3))
    del fields["syndrome_table"][(1, 1)]
    with pytest.raises(ShapeError):
        CodeSpec(**fields)


def test_degenerate_leaders_accepted():
    # Shor's nine-qubit code: z1, z2, z3 share a syndrome and act alike on the code space
    gens = [
        (3, 3, 0, 0, 0, 0, 0, 0, 0), (0, 3, 3, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 3, 3, 0, 0, 0, 0), (0, 0, 0, 0, 3, 3, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 3, 3, 0), (0, 0, 0, 0, 0, 0, 0, 3, 3),
        (1, 1, 1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1, 1),
    ]
    code = build_code("shor")
    assert code.generators == tuple(gens)
    z1, z2 = (3,) + (0,) * 8, (0, 3) + (0,) * 7
    assert code.syndrome_table[tuple(0 if strings_commute(g, z2) else 1 for g in gens)] == z1
    for err in covered_errors(code):  # the leader undoes every covered error up to a phase
        bits = tuple(0 if strings_commute(g, err) else 1 for g in gens)
        undone = pauli_string(code.syndrome_table[bits]) @ pauli_string(err) @ code.encoder
        phase = np.vdot(code.encoder[:, 0], undone[:, 0])
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(undone - phase * code.encoder)) < 1e-12


def test_shor_encoder_is_plus_and_minus_logical():
    # |0_L> and |1_L> are (|000> +- |111>)^(x)3 / 2^(3/2); Pi |0...0> and Pi |1...1> are their sum and difference
    block = np.zeros(8)
    block[0] = block[7] = 1.0
    flipped = block * np.array([1.0] + [0.0] * 6 + [-1.0])
    zero_l = np.kron(np.kron(block, block), block) / 2 ** 1.5
    one_l = np.kron(np.kron(flipped, flipped), flipped) / 2 ** 1.5
    encoder = build_code("shor").encoder
    assert np.max(np.abs(encoder[:, 0] - (zero_l + one_l) / np.sqrt(2))) < 1e-15
    assert np.max(np.abs(encoder[:, 1] - (zero_l - one_l) / np.sqrt(2))) < 1e-15


def test_steane_generators_from_hamming_rows():
    rows = ((0, 0, 0, 1, 1, 1, 1), (0, 1, 1, 0, 0, 1, 1), (1, 0, 1, 0, 1, 0, 1))
    code = build_code("steane")
    assert code.generators == tuple(tuple(letter * b for b in row) for letter in (1, 3) for row in rows)
    assert (code.n, code.k_corr, code.error_class, len(code.syndrome_table)) == (7, 1, FULL_PAULI, 64)


@pytest.mark.parametrize("name", UNDILATED_CODES)
def test_recovery_without_dilation(name, rng):
    # criterion 8 where R (register x ancilla) is too large: 100 encoded states, each hit by a covered error,
    # recovered by the channel's Kraus operators K_s = encoder W_s^dag and by measuring each generator and
    # applying the tabulated correction
    code = build_code(name)
    errors = list(covered_errors(code))
    gens = [pauli_string(g) for g in code.generators]
    worst = 0.0
    for _ in range(100):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw = raw / np.linalg.norm(raw)
        psi = encode_logical(code, raw[0], raw[1])
        corrupted = pauli_string(errors[int(rng.integers(0, len(errors)))]) @ psi
        logical = code.readout @ corrupted  # K_s corrupted = encoder logical[s]
        worst = max(worst, trace_distance(logical.T @ logical.conj(), np.outer(raw, raw.conj())))
        bits = tuple(int(np.vdot(corrupted, g @ corrupted).real < 0.0) for g in gens)
        fixed = pauli_string(code.syndrome_table[bits]) @ corrupted
        worst = max(worst, float(np.max(np.abs(fixed - np.vdot(psi, fixed) * psi))))
    assert worst <= 1e-10


def test_steane_exponent_four():
    # k = 1 under full Pauli noise: the supremum error starts at t^4
    code = build_code("steane")
    env = random_environment(code.n, 2, coupling_bound=1.0, seed=42)
    pipeline = _CorrectionPipeline(code, env, free_hamiltonian(env) + build_noncontact(env))
    ts = np.geomspace(2e-3, 4e-2, 14).tolist()
    fit = fit_power_law([(t, sup.value) for t, sup in zip(ts, _sphere_suprema(pipeline.covariances(ts)))])
    assert fit.exponent == pytest.approx(4.0, abs=0.1)


def test_repetition_nine_single_flip_exponent():
    # k = 4: the single-flip error starts at t^10
    code = build_code("repetition-9")
    omegas = (0.9, 1.1, 0.75, 1.3, 0.85, 1.0, 0.95, 1.2, 0.8)
    h = contact_hamiltonian([(w, [int(i == l) for i in range(9)]) for l, w in enumerate(omegas)], 9)
    pipeline = _CorrectionPipeline(code, trivial_environment(code.n), h)
    ts = np.geomspace(0.04, 0.16, 14).tolist()
    errors = _state_error(pipeline.covariances(ts), (0.6, 0.8j))
    fit = fit_power_law(list(zip(ts, errors.tolist())))
    assert fit.exponent == pytest.approx(10.0, abs=0.1)


def test_build_code_unknown():
    with pytest.raises(ShapeError):
        build_code("no_such_code")


def test_encode_logical_norm_gate():
    code = build_identity_code()
    with pytest.raises(ValidationError):
        encode_logical(code, 1.0, 1.0)


class TestBoundsArithmetic:
    def test_reference_rows(self):
        row = hamming_gv_check(5, 1)
        assert row.n == 5 and row.k == 1
        assert row.hamming_ok and row.gv_ok
        assert not hamming_gv_check(4, 1).hamming_ok
        assert hamming_gv_check(10, 2).hamming_ok
        assert not hamming_gv_check(9, 2).hamming_ok

    def test_hamming_equality_at_five(self):
        # 1 + 5*3 = 16 = 2^4: the packing is tight
        assert _sphere_sum(5, 1) == 16
        assert _sphere_sum(5, 1) == 2 ** 4

    def test_sphere_sum_against_enumeration(self):
        # brute force count of strings with rank <= radius
        for n in range(1, 7):
            for radius in range(0, n + 1):
                count = sum(
                    1
                    for v in itertools.product(range(4), repeat=n)
                    if sum(1 for x in v if x) <= radius
                )
                assert _sphere_sum(n, radius) == count

    def test_independent_reevaluation(self):
        # re-derive both inequalities with bare integer arithmetic
        for n in range(1, 21):
            for k in range(0, min(3, n) + 1):
                lhs = sum(math.comb(n, l) * 3 ** l for l in range(k + 1))
                rhs = sum(math.comb(n, l) * 3 ** l for l in range(2 * k + 1))
                row = hamming_gv_check(n, k)
                assert row.hamming_ok == (lhs <= 2 ** (n - 1))
                assert row.gv_ok == (2 ** (n - 1) <= rhs)

    def test_min_code_length(self):
        assert min_code_length(0) == 1
        assert min_code_length(1) == 5
        assert min_code_length(2) == 10
        assert min_code_length(3) == 15

    def test_validation(self):
        with pytest.raises(ShapeError):
            hamming_gv_check(0, 0)
        with pytest.raises(ShapeError):
            hamming_gv_check(3, 4)
        with pytest.raises(ShapeError):
            min_code_length(-1)


class TestAsymptoticRoot:
    def test_against_brentq(self):
        # oracle: scipy root finder on the same gap function
        root = scipy.optimize.brentq(asymptotic_bound_gap, 1e-9, 0.499999, xtol=1e-13)
        assert abs(asymptotic_x0() - root / 2.0) < 1e-9

    def test_plug_back_residual(self):
        x0 = asymptotic_x0()
        assert abs(asymptotic_bound_gap(2.0 * x0)) < 1e-9

    def test_gap_sign_structure(self):
        x0 = asymptotic_x0()
        assert asymptotic_bound_gap(2.0 * x0 * 0.999) < 0
        assert asymptotic_bound_gap(2.0 * x0 * 1.001) > 0
        assert asymptotic_bound_gap(0.01) < 0

    def test_published_value(self):
        assert asymptotic_x0() == pytest.approx(0.0946, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ShapeError):
            asymptotic_bound_gap(0.0)
        with pytest.raises(ShapeError):
            asymptotic_bound_gap(1.0)
