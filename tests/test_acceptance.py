"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line with the measured numbers; run

    python3 -m pytest tests/test_acceptance.py -v -s

to see them even when everything passes.  Criteria also enforce their wall
clock budgets, so a pathological slowdown fails loudly rather than silently.
"""

import itertools
import math
import pathlib
import time

import numpy as np
import pytest

from decoq.pauli import decompose, pauli_string, reconstruct
from decoq.dynamics import (
    build_noncontact,
    contact_hamiltonian,
    free_hamiltonian,
    random_environment,
    trivial_environment,
)
from decoq.codes import (
    _sphere_sum,
    asymptotic_bound_gap,
    asymptotic_x0,
    build_code,
    covered_errors,
    encode_logical,
    hamming_gv_check,
    min_code_length,
    recovery_channel,
    recovery_unitary,
)
from decoq.metrics import (
    _CorrectionPipeline,
    _state_error,
    error_bound,
    fit_power_law,
    leading_coefficient,
    periodic_correction_decay,
)
from decoq.tensor import operator_norm, partial_trace_array, trace_distance
from decoq.runner import run
from decoq.scenario import load_scenario

from conftest import random_unitary

PSI = (0.6, 0.8j)
EXPONENT_SEEDS = (42, 43, 44, 45, 46)
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def exponent_law_data():
    """Shared by criteria 5 and 7: per-seed curves, fits, coefficients, norms."""
    started = time.monotonic()
    code = build_code("five_qubit")
    ts = np.geomspace(5e-4, 8e-3, 14)
    data = {}
    for seed in EXPONENT_SEEDS:
        env = random_environment(5, 2, coupling_bound=1.0, seed=seed)
        v = build_noncontact(env)
        pipeline = _CorrectionPipeline(code, env, free_hamiltonian(env) + v)
        curve = tuple(zip(ts.tolist(), _state_error(pipeline.covariances(ts), PSI).tolist()))
        fit = fit_power_law(curve)
        c13 = leading_coefficient(code, env, PSI)
        data[seed] = {"curve": curve, "fit": fit, "c13": c13, "v_norm": operator_norm(v)}
    return {"seeds": data, "elapsed": time.monotonic() - started}


def test_criterion_01_decomposition_round_trip(rng):
    started = time.monotonic()
    worst_recon = 0.0
    worst_weight = 0.0
    cases = list(itertools.product((1, 2, 3), (1, 2, 3)))
    for i in range(50):
        de, n = cases[i % len(cases)]
        u = random_unitary(rng, de * 2 ** n)
        comps = decompose(u, n)
        recon = reconstruct(comps)
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - u))))
        weight = sum(float(np.linalg.norm(a) ** 2) for a in comps.values())
        worst_weight = max(worst_weight, abs(weight - de))
    elapsed = time.monotonic() - started
    ok = worst_recon <= 1e-10 and worst_weight <= 1e-10 and elapsed < 10.0
    report(
        1,
        ok,
        f"50 round trips, max |recon - U| = {worst_recon:.2e} (<= 1e-10), "
        f"max |weight - d_e| = {worst_weight:.2e} (<= 1e-10), {elapsed:.2f}s (< 10s)",
    )
    assert ok


def test_criterion_02_bounds_arithmetic():
    started = time.monotonic()
    ok = min_code_length(1) == 5
    ok = ok and _sphere_sum(5, 1) == 16 == 2 ** 4
    ok = ok and min_code_length(2) == 10
    mismatches = 0
    for n in range(1, 21):
        for k in range(0, min(3, n) + 1):
            lhs = sum(math.comb(n, l) * 3 ** l for l in range(k + 1))
            rhs = sum(math.comb(n, l) * 3 ** l for l in range(2 * k + 1))
            row = hamming_gv_check(n, k)
            if row.hamming_ok != (lhs <= 2 ** (n - 1)) or row.gv_ok != (2 ** (n - 1) <= rhs):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = ok and mismatches == 0 and elapsed < 1.0
    report(
        2,
        ok,
        f"min lengths (5, 10), packing equality 16 == 2^4, table n<=20 k<=3 "
        f"mismatches = {mismatches}, {elapsed:.3f}s (< 1s)",
    )
    assert ok


def test_criterion_03_asymptotic_root():
    started = time.monotonic()
    x0 = asymptotic_x0()
    residual = abs(asymptotic_bound_gap(2.0 * x0))
    elapsed = time.monotonic() - started
    ok = abs(x0 - 0.0946) <= 1e-4 and residual < 1e-9 and elapsed < 1.0
    report(
        3,
        ok,
        f"x0 = {x0:.10f} (0.0946 +/- 1e-4), plug-back residual = {residual:.2e} (< 1e-9), "
        f"{elapsed:.3f}s (< 1s)",
    )
    assert ok


def test_criterion_04_watchdog_baseline():
    started = time.monotonic()
    code = build_code("identity")
    env = random_environment(1, 2, coupling_bound=1.0, seed=42)
    h = free_hamiltonian(env) + build_noncontact(env)
    pipeline = _CorrectionPipeline(code, env, h)
    ts = np.geomspace(0.004, 0.12, 16)
    curve = tuple(zip(ts.tolist(), _state_error(pipeline.covariances(ts), PSI).tolist()))
    fit = fit_power_law(curve)
    elapsed = time.monotonic() - started
    ok = abs(fit.exponent - 2.0) <= 0.05 and elapsed < 30.0
    report(
        4,
        ok,
        f"identity code exponent = {fit.exponent:.4f} (2 +/- 0.05), {elapsed:.2f}s (< 30s)",
    )
    assert ok


def test_criterion_05_exponent_law(exponent_law_data):
    details = []
    ok = True
    for seed, d in exponent_law_data["seeds"].items():
        c_fit = math.exp(d["fit"].log_coefficient)
        rel = abs(c_fit - d["c13"]) / d["c13"]
        ok = ok and abs(d["fit"].exponent - 4.0) <= 0.1 and rel <= 0.05
        details.append(f"seed {seed}: m = {d['fit'].exponent:.4f}, |dc|/c = {rel:.4f}")
    elapsed = exponent_law_data["elapsed"]
    ok = ok and elapsed < 300.0
    report(5, ok, "; ".join(details) + f"; (4 +/- 0.1, coeff within 5%), {elapsed:.1f}s (< 300s)")
    assert ok


def test_criterion_06_intro_example():
    started = time.monotonic()
    code = build_code("repetition-5")
    env = trivial_environment(5)
    psi = (math.cos(0.6), complex(math.cos(0.5), math.sin(0.5)) * math.sin(0.6))
    ts = np.geomspace(0.02, 0.2, 14)
    h_single = contact_hamiltonian([(w, [int(i == l) for i in range(5)]) for l, w in enumerate((0.9, 1.1, 0.75, 1.3, 0.85))], 5)
    pairs = {(1, 2): 0.8, (3, 4): 1.05, (2, 3): 0.65, (4, 5): 0.95, (1, 3): 0.7}
    h_pair = contact_hamiltonian([(w, [int(i in pair) for i in range(1, 6)]) for pair, w in pairs.items()], 5)
    fits = {}
    for label, h in (("single", h_single), ("pair", h_pair)):
        pipeline = _CorrectionPipeline(code, env, h)
        curve = tuple(zip(ts.tolist(), _state_error(pipeline.covariances(ts), psi).tolist()))
        fits[label] = fit_power_law(curve)
    elapsed = time.monotonic() - started
    ok = (
        abs(fits["single"].exponent - 6.0) <= 0.2
        and abs(fits["pair"].exponent - 4.0) <= 0.2
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"single-flip exponent = {fits['single'].exponent:.4f} (6 +/- 0.2), "
        f"pair-flip exponent = {fits['pair'].exponent:.4f} (4 +/- 0.2), {elapsed:.2f}s (< 120s)",
    )
    assert ok


def test_criterion_07_bound_dominance(exponent_law_data):
    violations = 0
    checked = 0
    worst_margin = -np.inf
    for d in exponent_law_data["seeds"].values():
        for t, e in d["curve"]:
            bound = error_bound(t, 1, d["v_norm"])
            if bound <= 1.0:
                checked += 1
                margin = e - bound
                worst_margin = max(worst_margin, margin)
                if margin > 1e-12:
                    violations += 1
    ok = violations == 0 and checked > 0
    report(
        7,
        ok,
        f"{checked} sampled points under the envelope, violations = {violations}, "
        f"worst E - bound = {worst_margin:.2e} (slack 1e-12)",
    )
    assert ok


def test_criterion_08_recovery_equivalence(rng):
    worst = 0.0
    count = 0
    for name, draws in (("repetition-3", 34), ("repetition-5", 33), ("five_qubit", 33)):
        code = build_code(name)
        r = recovery_unitary(code)
        channel = recovery_channel(code)
        errors = list(covered_errors(code))
        dc, da = code.register_dim, code.ancilla_dim
        anc = np.zeros((da, da), dtype=complex)
        anc[0, 0] = 1.0
        for _ in range(draws):
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            raw = raw / np.linalg.norm(raw)
            psi = encode_logical(code, raw)
            err = errors[int(rng.integers(0, len(errors)))]
            corrupted = pauli_string(err) @ psi
            rho = np.outer(corrupted, corrupted.conj())
            via_unitary = partial_trace_array(r @ np.kron(rho, anc) @ r.conj().T, (dc, da), (0,))
            worst = max(worst, trace_distance(via_unitary, sum(k @ rho @ k.conj().T for k in channel)))
            count += 1
    ok = worst <= 1e-10 and count == 100
    report(
        8,
        ok,
        f"{count} corrupted states, worst unitary-vs-channel trace distance = {worst:.2e} (<= 1e-10)",
    )
    assert ok


def test_criterion_09_periodic_correction():
    started = time.monotonic()
    code = build_code("five_qubit")
    env = random_environment(5, 2, coupling_bound=1.0, seed=42)
    h = free_hamiltonian(env) + build_noncontact(env)
    on_rates = []
    paired_ok = True
    for dt in (0.12, 0.06, 0.03):
        on = periodic_correction_decay(code, env, h, dt, 40, PSI, apply_correction=True)
        off = periodic_correction_decay(code, env, h, dt, 40, PSI, apply_correction=False)
        paired_ok = paired_ok and on.rate < off.rate
        on_rates.append(on.rate)
    monotone = on_rates[0] > on_rates[1] > on_rates[2]
    elapsed = time.monotonic() - started
    ok = paired_ok and monotone and elapsed < 180.0
    report(
        9,
        ok,
        f"rates with correction {on_rates[0]:.3e} > {on_rates[1]:.3e} > {on_rates[2]:.3e} "
        f"(monotone {monotone}), corrected < uncorrected at every dt ({paired_ok}), "
        f"{elapsed:.1f}s (< 180s)",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    mismatched = []
    total = 0
    for cfg in sorted(SCENARIO_DIR.glob("*.cfg")):
        scenario = load_scenario(str(cfg))
        out_a = tmp_path / "a" / cfg.stem
        out_b = tmp_path / "b" / cfg.stem
        run(scenario, out_dir=str(out_a), seed=42, plots=False)
        run(scenario, out_dir=str(out_b), seed=42, plots=False)
        for file_a in sorted(out_a.glob("*.csv")):
            total += 1
            if file_a.read_bytes() != (out_b / file_a.name).read_bytes():
                mismatched.append(f"{cfg.stem}/{file_a.name}")
    ok = not mismatched and total > 0
    report(
        10,
        ok,
        f"{total} CSV files from double seed-42 runs of all shipped scenarios, "
        f"mismatches = {mismatched or 'none'}",
    )
    assert ok
